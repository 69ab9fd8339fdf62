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

from .errors import (DuplicateId, InputFormatError, MalformedNet,
                     NetSyntaxError, UnknownPlace, UnsupportedNet,
                     UnwritableName, shown)
from .matrix import Record, parse_count, writable_name
from .ptnet import PetriNet


class NetDocument(Record):
    """A net together with its initial marking, a total dict of counts."""

    __slots__ = ("net", "initial")

    def __init__(self, net: PetriNet, initial: dict[str, int]):
        self.net = net
        self.initial = initial
        if set(initial) != set(net.places):
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


_COLORED_MARKERS = {"hlinscription", "hlinitialmarking", "declaration",
                    "declarations", "structure", "condition", "hlmarking",
                    "type"}

# what the children of an open element are to `_NetReader`
_SKIP, _NETS, _ON_NET, _ON_PAGE, _ANNOTATIONS, _ANNOTATION = range(6)


class _NetReader:
    """An `ET.XMLParser` target that keeps no element tree, only what
    `parse_pnml` checks: the root's local tag, the `type` of each net, the
    ids of the first net's pages and of pages on those, and one record
    ``(kind, id, source, target, children)`` per place, transition and arc
    among the children of the first net (`on_net`) and of its pages
    (`on_page`), None for an absent attribute. `children` holds ``(tag,
    value, text)`` per child, `text` being all the text below it, stripped.
    Other elements (name, graphics, toolspecific) carry no semantics.
    """

    def __init__(self):
        self.tags: dict[str, str] = {}      # one `_local` call per tag
        self.root: str | None = None
        self.net_types: list[str] = []
        self.pages: list[str | None] = []
        self.nested: list[str | None] = []
        self.on_net: list[tuple] = []
        self.on_page: list[tuple] = []
        self.records = self.on_net          # the list holding the open node
        self.roles = [_SKIP]
        self.annotation = ("", "")          # tag and value of a node's open child
        self.chunks: list[str] = []
        self.data = self.chunks.append

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        kind = self.tags.get(tag)
        if kind is None:
            kind = self.tags[tag] = _local(tag)
        role = self.roles[-1]
        if role == _ON_PAGE or role == _ON_NET:
            records = self.on_page if role == _ON_PAGE else self.on_net
            if kind in ("place", "transition", "arc"):
                records.append((kind, attrib.get("id"), attrib.get("source"),
                                attrib.get("target"), ()))
                self.records = records
                role = _ANNOTATIONS
            elif kind == "page":
                (self.pages if role == _ON_NET else self.nested).append(
                    attrib.get("id"))
                role = _ON_PAGE if role == _ON_NET else _SKIP
            else:
                role = _SKIP
        elif role == _ANNOTATIONS:
            self.annotation = (kind, attrib.get("value", ""))
            self.chunks.clear()
            role = _ANNOTATION
        elif self.root is None:
            self.root = kind
            role = _NETS if kind == "pnml" else _SKIP
            if kind == "net":
                self.net_types.append(attrib.get("type", ""))
                role = _ON_NET
        elif role == _NETS and kind == "net":
            self.net_types.append(attrib.get("type", ""))
            role = _ON_NET if len(self.net_types) == 1 else _SKIP
        else:
            role = _SKIP
        self.roles.append(role)

    def end(self, tag: str) -> None:
        if self.roles.pop() == _ANNOTATION:
            record = self.records[-1]
            if not record[4]:
                record = self.records[-1] = (*record[:4], [])
            record[4].append((*self.annotation, "".join(self.chunks).strip()))


def parse_pnml(data) -> NetDocument:
    """Parse a single-page place/transition PNML document.

    Accepts bytes, text, or a readable object. Raises `MalformedNet` for
    broken XML or schema violations, and `UnsupportedNet` for features
    outside the plain P/T subset (multiple pages, arc types other than
    normal, colored annotations), naming the offending element.
    """
    # imported here, not at the top: text-net commands never parse XML
    import xml.etree.ElementTree as ET

    if hasattr(data, "read"):
        data = data.read()
    reader = _NetReader()
    parser = ET.XMLParser(target=reader)
    try:
        parser.feed(data)
        parser.close()
    except ET.ParseError as exc:
        raise MalformedNet(f"XML parse error: {exc}") from None

    if reader.root not in ("pnml", "net"):
        tag = shown(reader.root, quote="", noun="a tag ")
        raise MalformedNet(f"expected a <pnml> or <net> root, found <{tag}>")
    if not reader.net_types:
        raise MalformedNet("no <net> element")
    if len(reader.net_types) > 1:
        raise UnsupportedNet("multiple <net> elements")

    net_type = reader.net_types[0]
    if any(marker in net_type.lower() for marker in ("symmetric", "highlevel")):
        raise UnsupportedNet(f"net type {shown(net_type)}")

    pages = reader.pages
    if len(pages) > 1:
        extra = "<anonymous>" if pages[1] is None else pages[1]
        raise UnsupportedNet(f"multiple pages, e.g. page {shown(extra)}")
    if reader.nested:
        raise UnsupportedNet("nested page under"
                             f" {shown(pages[0], noun='a page ')}")

    places: list[str] = []
    marking: dict[str, int] = {}
    transitions: list[str] = []
    arcs: list[tuple[str, str, str, int]] = []
    ids: set[str] = set()

    def read_children(children: list[tuple], kind: str, ident: str,
                      what: str | None = None, default: int = 0,
                      minimum: int = 0) -> int:
        """Refuse colour markers and a non-normal arc type among the
        `children` of an element, then read its first `what` count."""
        text = None
        for tag, value, content in children:
            if tag == what and text is None:
                text = content
            elif tag == "type" and kind == "arc":
                value = content or value
                if value and value != "normal":
                    raise UnsupportedNet(f"arc {shown(ident)}"
                                         f" of type {shown(value)}")
            elif tag in _COLORED_MARKERS:
                raise UnsupportedNet(f"<{tag}> on {kind} {shown(ident)}")
        if text is None:
            return default
        value = parse_count(text)
        if value is None:
            raise MalformedNet(f"non-integer {what} {shown(text)}"
                               f" on {shown(ident, noun='an id ')}")
        if value < minimum:
            raise MalformedNet(f"{what} {value} below {minimum}"
                               f" on {shown(ident, noun='an id ')}")
        return value

    for kind, ident, source, target, children in (*reader.on_net,
                                                  *reader.on_page):
        if not ident:
            # an arc without an id, or with an empty one, is named by its ends
            if kind != "arc":
                raise MalformedNet(f"<{kind}> element without an id")
            ident = f"{source}->{target}"
        elif ident in ids:
            raise MalformedNet(f"duplicate id {shown(ident)}")
        else:
            ids.add(ident)
        if kind == "place":
            marking[ident] = (read_children(children, kind, ident,
                                            "initialMarking") if children else 0)
            places.append(ident)
        elif kind == "transition":
            if children:
                read_children(children, kind, ident)
            transitions.append(ident)
        else:
            if not source or not target:
                raise MalformedNet(f"arc {shown(ident)} lacks source or target")
            weight = (read_children(children, kind, ident, "inscription", 1, 1)
                      if children else 1)
            arcs.append((ident, source, target, weight))

    # `marking` holds the places and `pre` the transitions
    pre: dict[str, dict[str, int]] = {t: {} for t in transitions}
    post: dict[str, dict[str, int]] = {t: {} for t in transitions}
    for ident, source, target, weight in arcs:
        if source in marking and target in pre:
            flow, key = pre[target], source
        elif source in pre and target in marking:
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
    # the XML parser reads a UTF-8 byte-order mark; the text formats do not
    if data.removeprefix(b"\xef\xbb\xbf").lstrip().startswith(b"<"):
        return parse_pnml(data)
    return parse_net_text(_decode(data, path))
