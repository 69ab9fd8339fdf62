"""Reading and writing Petri nets.

Two formats are supported. A subset of PNML (read only): single net, at
most one page, plain place/transition elements with `initialMarking` and
arc `inscription` weights. Anything colored, and arcs carrying a non-normal
`type` (inhibitor, read, reset arcs), is rejected rather than dropped,
because silently ignoring it would corrupt the computed relation. Benign
decorations (`name`, `graphics`, `toolspecific`) are skipped.

The textual format (read and write) is line oriented, one declaration per
line, `#` starting a comment::

    pl <id> [<initial>]
    tr <id> : <in-list> -> <out-list>

where each list is a space-separated sequence of `<place>[*<weight>]`
terms and either list may be empty. Places must be declared before use.
The document order of place declarations fixes the matrix row order used
everywhere downstream.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import (DuplicateId, InputFormatError, MalformedNet,
                     NetSyntaxError, UnknownPlace, UnsupportedNet,
                     UnwritableName, shown)
from .matrix import parse_count, writable_name
from .ptnet import PetriNet


@dataclass
class NetDocument:
    """A net together with its initial marking, a total dict of counts."""

    net: PetriNet
    initial: dict[str, int]

    def __post_init__(self):
        if set(self.initial) != set(self.net.places):
            raise ValueError("initial marking domain differs from net places")


# -- textual format ----------------------------------------------------------

_TOKEN = re.compile(r"\S+")


def _term(place: str, weight: int) -> str:
    return place if weight == 1 else f"{place}*{weight}"


def write_net_text(doc: NetDocument) -> str:
    """Serialize to the textual format; inverse of `parse_net_text`.

    Raises `UnwritableName` for a place or transition name that would not
    read back as itself.
    """
    net = doc.net
    for name in (*net.places, *net.transitions):
        if not writable_name(name):
            raise UnwritableName(name)
    lines = []
    for p in net.places:
        n = doc.initial[p]
        lines.append(f"pl {p} {n}" if n else f"pl {p}")
    for t in net.transitions:
        # each side lists its places in place order
        pre, post = net.pre[t], net.post[t]
        ins = [_term(p, pre[p]) for p in sorted(pre, key=net.place_index)]
        outs = [_term(p, post[p]) for p in sorted(post, key=net.place_index)]
        lines.append(" ".join(["tr", t, ":"] + ins + ["->"] + outs))
    return "\n".join(lines) + "\n" if lines else ""


def _column(line: str, k: int) -> int:
    """The 1-based column of the `k`-th token of `line`, for a message."""
    return list(_TOKEN.finditer(line))[k].start() + 1


def _read_arcs(flow: dict[str, int], tokens: list[str], start: int, stop: int,
               line: str, lineno: int, places: dict[str, int]) -> None:
    """Add the arc terms `tokens[start:stop]` of line `lineno` to `flow`."""
    for k in range(start, stop):
        name, star, weight_text = tokens[k].partition("*")
        weight = parse_count(weight_text) if star else 1
        if not weight:
            raise NetSyntaxError(lineno, _column(line, k), "positive arc weight")
        if name not in places:
            raise UnknownPlace(name, lineno)
        flow[name] = flow.get(name, 0) + weight


def parse_net_text(text: str) -> NetDocument:
    """Parse the textual net format into a document.

    Each line is split once; token columns are computed only for an error
    message (`str.split` and the `\\S+` pattern agree on whitespace).
    """
    places: list[str] = []
    marking: dict[str, int] = {}
    transitions: list[str] = []
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}
    known: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "pl":
            if len(tokens) < 2:
                raise NetSyntaxError(lineno, _column(line, 0) + len(keyword),
                                     "place identifier")
            name = tokens[1]
            if name in known:
                raise DuplicateId(name, lineno)
            if len(tokens) > 3:
                raise NetSyntaxError(lineno, _column(line, 3), "end of line")
            initial = 0
            if len(tokens) == 3:
                initial = parse_count(tokens[2])
                if initial is None:
                    raise NetSyntaxError(lineno, _column(line, 2),
                                         "initial marking (integer)")
            known.add(name)
            places.append(name)
            marking[name] = initial
        elif keyword == "tr":
            if len(tokens) < 2:
                raise NetSyntaxError(lineno, _column(line, 0) + len(keyword),
                                     "transition identifier")
            name = tokens[1]
            if name in known:
                raise DuplicateId(name, lineno)
            if len(tokens) < 3 or tokens[2] != ":":
                bad = (_column(line, 2) if len(tokens) > 2
                       else _column(line, 1) + len(name))
                raise NetSyntaxError(lineno, bad, "':'")
            if tokens.count("->") != 1:
                where = _column(line, len(tokens) - 1) + len(tokens[-1])
                raise NetSyntaxError(lineno, where, "exactly one '->'")
            arrow = tokens.index("->")
            known.add(name)
            transitions.append(name)
            pre[name] = {}
            post[name] = {}
            _read_arcs(pre[name], tokens, 3, arrow, line, lineno, marking)
            _read_arcs(post[name], tokens, arrow + 1, len(tokens), line,
                       lineno, marking)
        else:
            raise NetSyntaxError(lineno, _column(line, 0), "'pl' or 'tr'")

    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


# -- PNML subset -------------------------------------------------------------

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _text_of(elem: ET.Element) -> str:
    return "".join(elem.itertext()).strip()


_COLORED_MARKERS = {"hlinscription", "hlinitialmarking", "declaration",
                    "declarations", "structure", "condition", "hlmarking",
                    "type"}


def parse_pnml(data) -> NetDocument:
    """Parse a single-page place/transition PNML document.

    Accepts bytes, text, or a readable object. Raises `MalformedNet` for
    broken XML or schema violations, and `UnsupportedNet` for features
    outside the plain P/T subset (multiple pages, arc types other than
    normal, colored annotations), naming the offending element.
    """
    if hasattr(data, "read"):
        data = data.read()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedNet(f"XML parse error: {exc}") from None

    kind = _local(root.tag)
    if kind == "pnml":
        nets = [child for child in root if _local(child.tag) == "net"]
    elif kind == "net":
        nets = [root]
    else:
        tag = shown(kind, quote="", noun="a tag ")
        raise MalformedNet(f"expected a <pnml> or <net> root, found <{tag}>")
    if not nets:
        raise MalformedNet("no <net> element")
    if len(nets) > 1:
        raise UnsupportedNet("multiple <net> elements")
    net_elem = nets[0]

    net_type = net_elem.get("type", "")
    if any(marker in net_type.lower() for marker in ("symmetric", "highlevel")):
        raise UnsupportedNet(f"net type {shown(net_type)}")

    # each element's tag is read once: the net's children, then its page's
    elements = [(_local(child.tag), child) for child in net_elem]
    pages = [elem for kind, elem in elements if kind == "page"]
    if len(pages) > 1:
        extra = pages[1].get("id", "<anonymous>")
        raise UnsupportedNet(f"multiple pages, e.g. page {shown(extra)}")
    for page in pages:
        on_page = [(_local(child.tag), child) for child in page]
        if any(kind == "page" for kind, _ in on_page):
            raise UnsupportedNet("nested page under"
                                 f" {shown(page.get('id'), noun='a page ')}")
        elements += on_page

    places: list[str] = []
    marking: dict[str, int] = {}
    transitions: list[str] = []
    arcs: list[tuple[str, str, str, int]] = []
    ids: set[str] = set()

    def require_id(elem: ET.Element, kind: str,
                   fallback: str | None = None) -> str:
        """The unique id of `elem`; an element without one is refused,
        unless it has a `fallback` name, which is not an id."""
        ident = elem.get("id")
        if not ident:
            if fallback is None:
                raise MalformedNet(f"<{kind}> element without an id")
            return fallback
        if ident in ids:
            raise MalformedNet(f"duplicate id {shown(ident)}")
        ids.add(ident)
        return ident

    def read_children(elem: ET.Element, kind: str, ident: str,
                      what: str | None = None, default: int = 0,
                      minimum: int = 0) -> int:
        """Refuse colour markers and a non-normal arc type among the
        children of `elem`, then read its first `what` count annotation."""
        node = None
        for child in elem:
            tag = _local(child.tag)
            if tag == what and node is None:
                node = child
            elif tag == "type" and kind == "arc":
                value = _text_of(child) or child.get("value", "")
                if value and value != "normal":
                    raise UnsupportedNet(f"arc {shown(ident)}"
                                         f" of type {shown(value)}")
            elif tag in _COLORED_MARKERS:
                raise UnsupportedNet(f"<{tag}> on {kind} {shown(ident)}")
        if node is None:
            return default
        text = _text_of(node)
        value = parse_count(text)
        if value is None:
            raise MalformedNet(f"non-integer {what} {shown(text)}"
                               f" on {shown(ident, noun='an id ')}")
        if value < minimum:
            raise MalformedNet(f"{what} {value} below {minimum}"
                               f" on {shown(ident, noun='an id ')}")
        return value

    for kind, elem in elements:
        if kind == "place":
            ident = require_id(elem, kind)
            marking[ident] = read_children(elem, kind, ident, "initialMarking")
            places.append(ident)
        elif kind == "transition":
            ident = require_id(elem, kind)
            read_children(elem, kind, ident)
            transitions.append(ident)
        elif kind == "arc":
            # an arc without an id, or with an empty one, is named by its ends
            source, target = elem.get("source"), elem.get("target")
            ident = require_id(elem, kind, f"{source}->{target}")
            if not source or not target:
                raise MalformedNet(f"arc {shown(ident)} lacks source or target")
            weight = read_children(elem, kind, ident, "inscription", 1, 1)
            arcs.append((ident, source, target, weight))
        # name/graphics/toolspecific and the like carry no semantics

    place_set = set(places)
    transition_set = set(transitions)
    pre: dict[str, dict[str, int]] = {t: {} for t in transitions}
    post: dict[str, dict[str, int]] = {t: {} for t in transitions}
    for ident, source, target, weight in arcs:
        if source in place_set and target in transition_set:
            flow, key = pre[target], source
        elif source in transition_set and target in place_set:
            flow, key = post[source], target
        else:
            raise MalformedNet(f"arc {shown(ident)} does not connect a place"
                               f" and a transition")
        flow[key] = flow.get(key, 0) + weight

    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


def _decode(data: bytes, path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text"
                               f" (byte {exc.start})") from None


def read_text(path) -> str:
    """Read a UTF-8 text file; undecodable bytes are an input format error."""
    with open(path, "rb") as handle:
        return _decode(handle.read(), path)


def load_net(path) -> NetDocument:
    """Load a net file, sniffing PNML versus the textual format."""
    with open(path, "rb") as handle:
        data = handle.read()
    head = data.lstrip()[:6]
    if head.startswith(b"<"):
        return parse_pnml(data)
    return parse_net_text(_decode(data, path))
