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
                     NetSyntaxError, UnknownPlace, UnsupportedNet)
from .ptnet import Marking, PetriNet


@dataclass(eq=False)
class NetDocument:
    """A net together with its initial marking and source metadata.

    Equality is structural (net and initial marking); the name and the
    source format are carrier metadata and do not take part in it.
    """

    net: PetriNet
    initial: Marking
    name: str | None = None
    source_format: str = "textual"

    def __post_init__(self):
        if set(self.initial.tokens) != set(self.net.places):
            raise ValueError("initial marking domain differs from net places")

    def __eq__(self, other):
        if not isinstance(other, NetDocument):
            return NotImplemented
        return self.net == other.net and self.initial == other.initial


# -- textual format ----------------------------------------------------------

_TOKEN = re.compile(r"\S+")


def _term(place: str, weight: int) -> str:
    return place if weight == 1 else f"{place}*{weight}"


def write_net_text(doc: NetDocument) -> str:
    """Serialize to the textual format; inverse of `parse_net_text`."""
    net = doc.net
    lines = []
    for p in net.places:
        n = doc.initial[p]
        lines.append(f"pl {p} {n}" if n else f"pl {p}")
    for t in net.transitions:
        ins = [_term(p, net.pre[t][p]) for p in net.places if p in net.pre[t]]
        outs = [_term(p, net.post[t][p]) for p in net.places if p in net.post[t]]
        lines.append(" ".join(["tr", t, ":"] + ins + ["->"] + outs))
    return "\n".join(lines) + "\n" if lines else ""


def parse_net_text(text: str) -> NetDocument:
    """Parse the textual net format into a document."""
    places: list[str] = []
    marking: dict[str, int] = {}
    transitions: list[str] = []
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}
    known: set[str] = set()

    def parse_arc_term(token: str, col: int, lineno: int, flow: dict[str, int]):
        name, star, weight_text = token.partition("*")
        if star:
            if not weight_text.isdigit() or int(weight_text) < 1:
                raise NetSyntaxError(lineno, col, "positive arc weight")
            weight = int(weight_text)
        else:
            weight = 1
        if name not in marking:
            raise UnknownPlace(name, lineno)
        flow[name] = flow.get(name, 0) + weight

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        if keyword == "pl":
            if len(tokens) < 2:
                raise NetSyntaxError(lineno, col + len(keyword), "place identifier")
            name = tokens[1][0]
            if name in known:
                raise DuplicateId(name, lineno)
            if len(tokens) > 3:
                raise NetSyntaxError(lineno, tokens[3][1], "end of line")
            initial = 0
            if len(tokens) == 3:
                value, vcol = tokens[2]
                if not value.isdigit():
                    raise NetSyntaxError(lineno, vcol, "initial marking (integer)")
                initial = int(value)
            known.add(name)
            places.append(name)
            marking[name] = initial
        elif keyword == "tr":
            if len(tokens) < 2:
                raise NetSyntaxError(lineno, col + len(keyword),
                                     "transition identifier")
            name = tokens[1][0]
            if name in known:
                raise DuplicateId(name, lineno)
            if len(tokens) < 3 or tokens[2][0] != ":":
                bad = tokens[2][1] if len(tokens) > 2 else tokens[1][1] + len(name)
                raise NetSyntaxError(lineno, bad, "':'")
            arrows = [k for k, (tok, _) in enumerate(tokens) if tok == "->"]
            if len(arrows) != 1:
                where = tokens[-1][1] + len(tokens[-1][0])
                raise NetSyntaxError(lineno, where, "exactly one '->'")
            known.add(name)
            transitions.append(name)
            pre[name] = {}
            post[name] = {}
            for tok, tcol in tokens[3:arrows[0]]:
                parse_arc_term(tok, tcol, lineno, pre[name])
            for tok, tcol in tokens[arrows[0] + 1:]:
                parse_arc_term(tok, tcol, lineno, post[name])
        else:
            raise NetSyntaxError(lineno, col, "'pl' or 'tr'")

    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking), source_format="textual")


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

    if _local(root.tag) == "pnml":
        nets = [child for child in root if _local(child.tag) == "net"]
    elif _local(root.tag) == "net":
        nets = [root]
    else:
        raise MalformedNet(f"expected a <pnml> or <net> root,"
                           f" found <{_local(root.tag)}>")
    if not nets:
        raise MalformedNet("no <net> element")
    if len(nets) > 1:
        raise UnsupportedNet("multiple <net> elements")
    net_elem = nets[0]

    net_type = net_elem.get("type", "")
    if any(marker in net_type.lower() for marker in ("symmetric", "highlevel")):
        raise UnsupportedNet(f"net type '{net_type}'")

    pages = [child for child in net_elem if _local(child.tag) == "page"]
    if len(pages) > 1:
        extra = pages[1].get("id", "<anonymous>")
        raise UnsupportedNet(f"multiple pages, e.g. page '{extra}'")
    for page in pages:
        if any(_local(child.tag) == "page" for child in page):
            raise UnsupportedNet(f"nested page under '{page.get('id')}'")
    containers = [net_elem] + pages

    places: list[str] = []
    marking: dict[str, int] = {}
    transitions: list[str] = []
    arcs: list[tuple[str, str, str, int]] = []
    name: str | None = net_elem.get("id")

    def require_id(elem: ET.Element) -> str:
        ident = elem.get("id")
        if not ident:
            raise MalformedNet(f"<{_local(elem.tag)}> element without an id")
        if ident in marking or ident in set(transitions):
            raise MalformedNet(f"duplicate id '{ident}'")
        return ident

    def int_annotation(elem: ET.Element, what: str, default: int,
                       minimum: int) -> int:
        node = next((c for c in elem if _local(c.tag) == what), None)
        if node is None:
            return default
        text = _text_of(node)
        try:
            value = int(text)
        except ValueError:
            raise MalformedNet(f"non-integer {what} '{text}'"
                               f" on '{elem.get('id')}'") from None
        if value < minimum:
            raise MalformedNet(f"{what} {value} below {minimum}"
                               f" on '{elem.get('id')}'")
        return value

    for container in containers:
        for elem in container:
            kind = _local(elem.tag)
            if kind == "place":
                ident = require_id(elem)
                for child in elem:
                    if _local(child.tag) in _COLORED_MARKERS:
                        raise UnsupportedNet(f"<{_local(child.tag)}>"
                                             f" on place '{ident}'")
                places.append(ident)
                marking[ident] = int_annotation(elem, "initialMarking", 0, 0)
            elif kind == "transition":
                ident = require_id(elem)
                for child in elem:
                    if _local(child.tag) in _COLORED_MARKERS:
                        raise UnsupportedNet(f"<{_local(child.tag)}>"
                                             f" on transition '{ident}'")
                transitions.append(ident)
            elif kind == "arc":
                ident = elem.get("id", f"{elem.get('source')}->{elem.get('target')}")
                source, target = elem.get("source"), elem.get("target")
                if not source or not target:
                    raise MalformedNet(f"arc '{ident}' lacks source or target")
                for child in elem:
                    local = _local(child.tag)
                    if local == "type":
                        value = _text_of(child) or child.get("value", "")
                        if value and value != "normal":
                            raise UnsupportedNet(f"arc '{ident}'"
                                                 f" of type '{value}'")
                    elif local in _COLORED_MARKERS:
                        raise UnsupportedNet(f"<{local}> on arc '{ident}'")
                weight = int_annotation(elem, "inscription", 1, 1)
                arcs.append((ident, source, target, weight))
            elif kind == "name" and container is net_elem:
                text = _text_of(elem)
                if text:
                    name = text
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
            raise MalformedNet(f"arc '{ident}' does not connect a place"
                               f" and a transition")
        flow[key] = flow.get(key, 0) + weight

    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking), name=name,
                       source_format="pnml")


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
