"""Token flow graphs: reduction equations, the graph, and configurations.

A reduction run relates an initial net N1 to a residual net N2 through an
ordered system of linear equations, each of the shape ``v = y1 + ... + yl``
and tagged either R (redundancy: v is reconstructible from the parts, v is
removed) or A (agglomeration: v's tokens split over the parts, the parts
are removed). The token flow graph materializes this system as a DAG:

* an R equation ``v = sum(X)`` contributes arcs ``x ->. v`` for x in X;
* an A equation ``v = sum(X)`` contributes arcs ``v o-> x`` for x in X;
* constants 0/1 become dedicated root nodes carrying a fixed value.

Well-formedness of the graph means: every name that is not a place of N1
or N2 was introduced by an agglomeration (T1), constant nodes are roots
(T2), no node is removed twice (T3), arc groups correspond one-to-one to
equations (T4), and the graph is acyclic. An auxiliary check (W5) warns
when some leaf is not a place of N1; the safe-configuration reasoning
downstream assumes leaves are observable in N1.

A configuration is a partial valuation of the nodes. It is well-defined
when definedness is uniform along arcs (CBot) and every equation whose
nodes are defined holds arithmetically (CEq). The three operations
`propagate_token`, `split_token` and `find_marked_root` implement the
token game on the DAG: values can always be routed from a node to any
descendant, split across agglomeration children in any way that preserves
the sum, and traced back to some marked root. All three are deterministic
here, with ties broken by the canonical node order.

Equation text format, one equation per line, `//` comments and blank
lines skipped::

    # R |- p5 = p4
    # A |- a1 = p1 + p2
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (BadConstant, BadShareSum, DuplicateRemoval,
                     EquationSyntaxError, IllDefinedInput, NoTokenAt,
                     NotAgglomeration, NotAncestor, UndefinedAt, UnknownNode,
                     UnwritableName, WellFormednessError, shown)
from .matrix import bits, parse_count, writable_name


class ConstantNode(NamedTuple):
    """A root node carrying the fixed value 0 or 1.

    Each constant literal in the equation system gets its own node;
    `index` is the position of the owning equation.
    """

    value: int
    index: int

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"K({self.value})@{self.index}"


Node = Union[str, ConstantNode]
Term = Union[str, int]


class _EquationFields(NamedTuple):
    tag: str
    defined: Term
    parts: tuple[Term, ...]


class Equation(_EquationFields):
    """One tagged reduction equation ``defined = sum(parts)``.

    At most one side may be a constant literal, and constants are
    restricted to 0 and 1.
    """

    __slots__ = ()

    # a `NamedTuple` class body may not define `__new__`, hence the base
    def __new__(cls, tag: str, defined: Term, parts: tuple[Term, ...]):
        if tag not in ("R", "A"):
            raise ValueError(f"bad equation tag {tag!r}")
        if not parts:
            raise ValueError("equation with an empty right-hand side")
        constants = [term for term in (defined, *parts) if isinstance(term, int)]
        if constants:
            for value in constants:
                if value not in (0, 1):
                    raise BadConstant(value)
            part_consts = [t for t in parts if isinstance(t, int)]
            if part_consts and (len(parts) > 1 or isinstance(defined, int)):
                raise ValueError("at most one side of an equation may be constant")
        return super().__new__(cls, tag, defined, parts)

    def removed(self) -> tuple[Term, ...]:
        """The nodes this equation removes from the net."""
        return (self.defined,) if self.tag == "R" else self.parts

    def __str__(self) -> str:
        rhs = " + ".join(str(t) for t in self.parts)
        return f"# {self.tag} |- {self.defined} = {rhs}"


class EquationSystem:
    """An ordered list of equations with a unique-removal guarantee."""

    __slots__ = ("equations",)

    def __init__(self, equations: Iterable[Equation]):
        self.equations = tuple(equations)
        removed: set[str] = set()
        for eq in self.equations:
            for target in eq.removed():
                if isinstance(target, str):
                    if target in removed:
                        raise DuplicateRemoval(target)
                    removed.add(target)

    @property
    def variables(self) -> frozenset[str]:
        """All variable names occurring in the system."""
        names = {eq.defined for eq in self.equations}
        names.update(*(eq.parts for eq in self.equations))
        return frozenset(names - {0, 1})    # `Equation` allows no other constant

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    def __eq__(self, other):
        if not isinstance(other, EquationSystem):
            return NotImplemented
        return self.equations == other.equations

    def __repr__(self):
        return f"EquationSystem({len(self.equations)} equations)"


# lines are stripped, so the term runs to the end of the line
_EQ_LINE = re.compile(r"#\s*(\S+)\s*\|-\s*(\S+)\s*=\s*(.+)")


def _parse_term(text: str, lineno: int) -> Term:
    """The term `text` holds: one word, as a name holds no space."""
    words = text.split()
    token = words[0] if len(words) == 1 else text.strip()
    if token.isdigit():
        value = parse_count(token)
        if value is None:
            raise EquationSyntaxError(lineno, "constant is not a decimal count")
        return value            # `Equation` checks that it is 0 or 1
    if len(words) != 1 or "+" in token or "=" in token:
        raise EquationSyntaxError(lineno, f"bad term {shown(token)}")
    return token


def parse_equation_system(text: str) -> EquationSystem:
    """Parse the equation text format, preserving the equation order."""
    equations: list[Equation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        match = _EQ_LINE.fullmatch(line)
        if match is None:
            raise EquationSyntaxError(lineno)
        tag, lhs, rhs = match.groups()
        if tag not in ("R", "A"):
            raise EquationSyntaxError(lineno, f"bad tag {shown(tag)}")
        defined = _parse_term(lhs, lineno)
        parts = tuple([_parse_term(token, lineno) for token in rhs.split("+")])
        try:
            equations.append(Equation(tag, defined, parts))
        except ValueError as exc:
            raise EquationSyntaxError(lineno, str(exc)) from None
    return EquationSystem(equations)


def write_equation_system(system: EquationSystem) -> str:
    """Serialize equations in the same line format `parse_equation_system` reads.

    Raises `UnwritableName` for a name that would not read back as itself.
    """
    for name in sorted(system.variables):
        if not writable_name(name):
            raise UnwritableName(name)
    lines = [str(eq) for eq in system]
    return "\n".join(lines) + "\n" if lines else ""


class Group(NamedTuple):
    """One equation materialized over graph nodes."""

    tag: str
    head: Node
    members: tuple[Node, ...]


class TokenFlowGraph:
    """The reduction DAG between the places of N1 and of N2.

    Built through `build_tfg`; immutable afterwards. `cones[i]` is the
    successor set of ``nodes[i]`` (itself included) as a mask over `nodes`.
    """

    __slots__ = ("nodes", "index", "groups", "roots", "topo", "warnings",
                 "a_group_of", "r_targets_of", "head_groups_of", "_children",
                 "_cones")

    def __init__(self, **fields):
        for key, value in fields.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_cones", None)

    def __setattr__(self, key, value):
        raise AttributeError("token flow graphs are immutable")

    @property
    def cones(self) -> tuple[int, ...]:
        """The cone masks, built at the first read: they take space
        quadratic in a chain's length, and `check-tfg` never reads them."""
        if self._cones is None:
            # each node's cone is itself and its children's cones, children first
            children, index = self._children, self.index
            cones = [0] * len(children)
            for v in map(index.__getitem__, reversed(self.topo)):
                cone = 1 << v
                for w in children[v]:
                    cone |= cones[w]
                cones[v] = cone
            object.__setattr__(self, "_cones", tuple(cones))
        return self._cones

    def out_children(self, v: Node) -> tuple[Node, ...]:
        """Arc targets of v: agglomeration children, then redundancy targets."""
        return self.a_group_of.get(v, ()) + self.r_targets_of.get(v, ())

    def __repr__(self):
        return (f"TokenFlowGraph({len(self.nodes)} nodes,"
                f" {len(self.groups)} equations)")


def successors(tfg: TokenFlowGraph, v: Node) -> frozenset[Node]:
    """Reflexive-transitive closure of v over both arc kinds."""
    if v not in tfg.index:
        raise UnknownNode(v)
    return frozenset(tfg.nodes[i] for i in bits(tfg.cones[tfg.index[v]]))


def build_tfg(system: EquationSystem, p1: Sequence[str],
              p2: Sequence[str]) -> TokenFlowGraph:
    """Build and validate the token flow graph of an equation system.

    `p1` and `p2` are the places of the initial and the residual net, in
    document order; that order, followed by residual-only places and then
    freshly introduced or constant nodes in equation order, is the
    canonical node order used for matrices and tie-breaking.
    """
    p1 = tuple(p1)
    p2 = tuple(p2)
    p1_set, p2_set = set(p1), set(p2)
    if len(p1_set) != len(p1) or len(p2_set) != len(p2):
        raise ValueError("duplicate place in p1 or p2")

    groups: list[Group] = []
    a_heads: set[str] = set()
    removed: set[Node] = set()          # T3 holds: `EquationSystem` checks it
    for i, eq in enumerate(system):
        head: Node = ConstantNode(eq.defined, i) if isinstance(eq.defined, int) \
            else eq.defined
        # a constant part is the only part (`Equation` checks it)
        members: tuple[Node, ...] = (ConstantNode(eq.parts[0], i),) \
            if isinstance(eq.parts[0], int) else eq.parts
        if isinstance(head, str) and head in eq.parts:
            raise WellFormednessError("T4", [head],
                                      "node defined in terms of itself")
        if eq.tag == "A":
            if isinstance(head, str):
                if head in a_heads:
                    raise WellFormednessError(
                        "T4", [head],
                        "two agglomeration equations share a defined node")
                a_heads.add(head)
            targets: tuple[Node, ...] = members
        else:
            targets = (head,)
        for target in targets:
            if isinstance(target, ConstantNode):
                raise WellFormednessError("T2", [target],
                                          "a constant node is an arc target")
            removed.add(target)
        groups.append(Group(eq.tag, head, members))

    # T1: every variable outside P1 and P2 must be agglomeration-inserted;
    # the least stray name is the one a sorted scan meets first
    stray = system.variables - p1_set - p2_set - a_heads
    if stray:
        raise WellFormednessError("T1", [min(stray)],
                                  "name is not a place and never inserted")

    # canonical node order
    nodes: list[Node] = list(p1) + [p for p in p2 if p not in p1_set]
    seen: set[Node] = set(nodes)
    for group in groups:
        for node in (group.head, *group.members):
            if node not in seen:
                seen.add(node)
                nodes.append(node)
    index = {node: i for i, node in enumerate(nodes)}

    a_group_of: dict[Node, tuple[Node, ...]] = {}
    r_targets_of: dict[Node, list[Node]] = {}
    head_groups_of: dict[Node, tuple[Group, ...]] = {}
    for group in groups:
        head_groups_of[group.head] = head_groups_of.get(group.head, ()) + (group,)
        if group.tag == "A":
            a_group_of[group.head] = group.members
        else:
            for member in group.members:
                r_targets_of.setdefault(member, []).append(group.head)
    r_targets_of = {v: tuple(ts) for v, ts in r_targets_of.items()}

    # the arc targets of each node, by index: agglomeration children, then
    # redundancy targets; Kahn's algorithm, W5 and the cones all read them
    children: list[tuple[int, ...]] = [()] * len(nodes)
    for arcs in (a_group_of, r_targets_of):
        for v, targets in arcs.items():
            children[index[v]] += tuple(map(index.__getitem__, targets))

    # acyclicity via Kahn's algorithm with canonical tie-breaking; the heap
    # alone fixes the order, so arcs are walked as stored
    indeg = [0] * len(nodes)
    for targets in children:
        for w in targets:
            indeg[w] += 1
    ready = [v for v, d in enumerate(indeg) if not d]
    heapify(ready)
    topo: list[int] = []
    while ready:
        v = heappop(ready)
        topo.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heappush(ready, w)
    if len(topo) != len(nodes):
        raise WellFormednessError("Cycle", [v for v, d in zip(nodes, indeg) if d])

    # a node is an arc target exactly when some group removes it
    roots = tuple(v for v in nodes if v not in removed)

    warnings = tuple(f"leaf node '{v}' is not a place of the initial net (W5)"
                     for v, targets in zip(nodes, children)
                     if not targets and isinstance(v, str) and v not in p1_set)

    return TokenFlowGraph(
        nodes=tuple(nodes), index=index, groups=tuple(groups), roots=roots,
        topo=tuple(map(nodes.__getitem__, topo)), warnings=warnings,
        a_group_of=a_group_of, r_targets_of=r_targets_of,
        head_groups_of=head_groups_of, _children=children,
    )


# -- configurations ----------------------------------------------------------

class Configuration:
    """A partial valuation of graph nodes; constants are implicitly valued."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[Node, int] | None = None):
        stored: dict[Node, int] = {}
        for node, value in (values or {}).items():
            if isinstance(node, ConstantNode):
                if value != node.value:
                    raise ValueError(f"constant node {node!r} valued {value}")
                continue
            if value < 0:
                raise ValueError(f"negative value at '{node}'")
            stored[node] = value
        self.values = stored

    def value(self, v: Node) -> Optional[int]:
        if isinstance(v, ConstantNode):
            return v.value
        return self.values.get(v)

    def defined(self, v: Node) -> bool:
        return self.value(v) is not None

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        inner = ", ".join(f"{node}:{value}" for node, value in
                          sorted(self.values.items(), key=lambda kv: str(kv[0])))
        return "Configuration({" + inner + "})"


class ConfigVerdict(NamedTuple):
    """Outcome of a well-definedness check."""

    ok: bool
    rule: str | None = None          # 'CBot' or 'CEq' when not ok
    node: Node | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_configuration(tfg: TokenFlowGraph, c: Configuration) -> ConfigVerdict:
    """Check CBot and CEq, group by group in equation order.

    CBot: along every arc, either both ends are defined or neither is.
    CEq: a defined equation head equals the sum of its members.
    """
    for group in tfg.groups:
        head_defined = c.defined(group.head)
        undefined = [m for m in group.members if not c.defined(m)]
        if head_defined and undefined:
            return ConfigVerdict(False, "CBot", undefined[0])
        if not head_defined:
            if len(undefined) < len(group.members):
                return ConfigVerdict(False, "CBot", group.head)
            continue
        total = sum(c.value(m) for m in group.members)
        if c.value(group.head) != total:
            return ConfigVerdict(False, "CEq", group.head)
    return ConfigVerdict(True)


def _rebalance(tfg: TokenFlowGraph, c: Configuration,
               route: Mapping[Node, Node], pins: Mapping[Node, int]) -> Configuration:
    """Deterministic repair of a configuration after local token moves.

    `route` maps an agglomeration head to the child that must receive its
    full value (the other children drop to zero); `pins` fixes explicit
    child values. Every other group is recomputed only when one of its
    inputs changed, so nodes outside the affected cone keep their values.
    """
    vals = dict(c.values)

    def val(node: Node) -> int:
        if isinstance(node, ConstantNode):
            return node.value
        return vals[node]

    dirty: set[Node] = set()
    for node, value in pins.items():
        if vals.get(node) != value:
            vals[node] = value
            dirty.add(node)

    for node in tfg.topo:
        for group in tfg.head_groups_of.get(node, ()):
            # redundancy head: recompute the sum when any source moved
            if group.tag == "R" and any(m in dirty for m in group.members):
                total = sum(val(m) for m in group.members)
                if vals.get(node) != total:
                    vals[node] = total
                    dirty.add(node)
        members = tfg.a_group_of.get(node)
        if not members:
            continue
        if node in route:
            chosen = route[node]
            assignment = {m: (val(node) if m == chosen else 0) for m in members}
        elif any(m in pins for m in members):
            continue                      # split already placed these values
        elif node in dirty:
            assignment = {m: 0 for m in members}
            assignment[members[0]] = val(node)
        else:
            continue
        for member, value in assignment.items():
            if vals.get(member) != value:
                vals[member] = value
                dirty.add(member)
    return Configuration(vals)


def propagate_token(tfg: TokenFlowGraph, c: Configuration,
                    p: Node, q: Node) -> Configuration:
    """Route the value of `p` down to its descendant `q`.

    Returns a well-defined configuration c' with ``c'(q) >= c'(p) = c(p)``
    and every node outside the successors of `p` untouched. At each
    agglomeration step the full value follows the path and the siblings
    drop to zero; descendants are repaired level by level.
    """
    for node in (p, q):
        if node not in tfg.index:
            raise UnknownNode(node)
    if not check_configuration(tfg, c):
        raise IllDefinedInput("input configuration is not well-defined")
    if c.value(p) is None:
        raise UndefinedAt(p)
    index, target = tfg.index, 1 << tfg.index[q]
    if not tfg.cones[index[p]] & target:
        raise NotAncestor(f"{shown(p, noun='a node ')} does not reach"
                          f" {shown(q, noun='a node ')}")
    if p == q:
        return c

    path = [p]
    node = p
    while node != q:
        node = min((w for w in tfg.out_children(node)
                    if tfg.cones[index[w]] & target), key=index.__getitem__)
        path.append(node)
    route = {u: w for u, w in zip(path, path[1:])
             if w in tfg.a_group_of.get(u, ())}
    return _rebalance(tfg, c, route, {})


def split_token(tfg: TokenFlowGraph, c: Configuration, p: Node,
                shares: Sequence[int]) -> Configuration:
    """Distribute the value of `p` over its agglomeration children.

    `shares` follows the children in equation order and must sum to the
    value of `p`. Descendants of the children are repaired; everything
    outside the successors of `p` is untouched.
    """
    if p not in tfg.index:
        raise UnknownNode(p)
    members = tfg.a_group_of.get(p)
    if not members:
        raise NotAgglomeration(p)
    if not check_configuration(tfg, c):
        raise IllDefinedInput("input configuration is not well-defined")
    value = c.value(p)
    if value is None:
        raise UndefinedAt(p)
    shares = list(shares)
    if len(shares) != len(members):
        raise BadShareSum(f"{len(shares)} shares for {len(members)} children")
    if any(s < 0 for s in shares):
        raise BadShareSum("negative share")
    if sum(shares) != value:
        raise BadShareSum(f"shares sum to {sum(shares)},"
                          f" but {shown(p, noun='a node ')} holds {value}")
    return _rebalance(tfg, c, {}, dict(zip(members, shares)))


def find_marked_root(tfg: TokenFlowGraph, c: Configuration, p: Node) -> Node:
    """Return the first root, in canonical order, that is marked and reaches `p`."""
    if p not in tfg.index:
        raise UnknownNode(p)
    if not check_configuration(tfg, c):
        raise IllDefinedInput("input configuration is not well-defined")
    value = c.value(p)
    if value is None or value == 0:
        raise NoTokenAt(p)
    target = 1 << tfg.index[p]
    for root in tfg.roots:
        if (c.value(root) or 0) > 0 and tfg.cones[tfg.index[root]] & target:
            return root
    raise AssertionError("well-defined marked node without a marked root")
