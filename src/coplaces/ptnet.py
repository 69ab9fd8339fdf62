"""Petri net syntax, semantics, explicit-state reachability and oracle.

A marking is a total ``dict`` from the places of a net to token counts,
as `PetriNet.make_marking` builds it; net files, the reducer and
`fire_transition` take counts of two or more.

The exploration side is deliberately brute force: a deterministic
breadth-first closure over bit masks, bit i standing for the token of
place i. It doubles as the ground truth against which the structural
pipeline is verified, so it stays simple and obviously correct. Only
1-bounded (safe) nets are explored; evidence of a second token in any
place aborts with `NotSafe`.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from .errors import NotEnabled, NotSafe, UnknownTransition
from .matrix import UNDECIDED, ConcurrencyMatrix

DEFAULT_STATE_CAP = 1_000_000
DEFAULT_TIME_BUDGET = 60.0


class PetriNet:
    """A place/transition net with weighted flow functions.

    Attributes
    ----------
    places : tuple of str
        Place identifiers; the order is the canonical matrix order.
    transitions : tuple of str
        Transition identifiers, disjoint from the places.
    pre, post : dict of str to dict of str to int
        Sparse flow functions, transition -> (place -> weight > 0).
    """

    __slots__ = ("places", "transitions", "pre", "post", "_place_index")

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 pre: Mapping[str, Mapping[str, int]] | None = None,
                 post: Mapping[str, Mapping[str, int]] | None = None):
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self._place_index = {p: i for i, p in enumerate(self.places)}
        if len(self._place_index) != len(self.places):
            raise ValueError("duplicate place identifiers")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition identifiers")
        if not self._place_index.keys().isdisjoint(self.transitions):
            raise ValueError("place and transition identifiers overlap")
        self.pre = self._normalize(pre or {})
        self.post = self._normalize(post or {})

    def _normalize(self, flow: Mapping[str, Mapping[str, int]]):
        known = self._place_index
        out: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        for t, arcs in flow.items():
            row = out.get(t)
            if row is None:
                raise ValueError(f"flow refers to unknown transition '{t}'")
            # a known place with a positive weight costs one test
            for p, w in arcs.items():
                if w > 0 and p in known:
                    row[p] = w
                elif p not in known:
                    raise ValueError(f"flow refers to unknown place '{p}'")
                elif w < 0:
                    raise ValueError(f"negative arc weight on ('{t}', '{p}')")
        return out

    def place_index(self, place: str) -> int:
        return self._place_index[place]

    def make_marking(self, tokens: Mapping[str, int] | None = None
                     ) -> dict[str, int]:
        """Build a total marking, filling unmentioned places with zero."""
        tokens = dict(tokens or {})
        unknown = tokens.keys() - self._place_index.keys()
        if unknown:
            raise ValueError(f"marking mentions unknown places {sorted(unknown)}")
        for place, count in tokens.items():
            if count < 0:
                raise ValueError(f"negative token count at '{place}'")
        return {p: tokens.get(p, 0) for p in self.places}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (self.places == other.places
                and self.transitions == other.transitions
                and self.pre == other.pre and self.post == other.post)

    def __hash__(self):
        return hash((self.places, self.transitions))

    def __repr__(self) -> str:
        return (f"PetriNet({len(self.places)} places,"
                f" {len(self.transitions)} transitions)")


class ReachabilitySet:
    """The explored markings of a safe net, as bit masks.

    `masks` lists them in discovery (breadth-first) order; bit i of a mask
    is the token count, 0 or 1, of ``place_order[i]``. `truncated` is set
    when exploration stopped on the state cap or the time budget; `masks`
    is then a prefix of the full order.
    """

    __slots__ = ("place_order", "masks", "truncated")

    def __init__(self, place_order: tuple[str, ...], masks: list[int],
                 truncated: bool):
        self.place_order = place_order
        self.masks = masks
        self.truncated = truncated

    def marking_from_mask(self, mask: int) -> dict[str, int]:
        return {p: (mask >> i) & 1 for i, p in enumerate(self.place_order)}

    @property
    def markings(self) -> tuple[dict[str, int], ...]:
        """All stored markings, in discovery (BFS) order."""
        return tuple(self.marking_from_mask(m) for m in self.masks)

    def __contains__(self, marking: Mapping[str, int]) -> bool:
        """Whether the total `marking` was explored; a scan of `masks`."""
        if (marking.keys() != set(self.place_order)
                or not set(marking.values()) <= {0, 1}):
            return False
        return sum(1 << i for i, p in enumerate(self.place_order)
                   if marking[p]) in self.masks

    def __len__(self) -> int:
        return len(self.masks)


def fire_transition(net: PetriNet, marking: Mapping[str, int],
                    t: str) -> dict[str, int]:
    """Fire `t` at `marking`, returning the successor marking.

    Raises
    ------
    UnknownTransition
        `t` is not a transition of the net.
    NotEnabled
        Some place holds fewer tokens than the pre-condition requires.
    """
    if t not in net.pre:
        raise UnknownTransition(f"'{t}' is not a transition of the net")
    pre, post = net.pre[t], net.post[t]
    for p, w in pre.items():
        if marking.get(p, 0) < w:
            raise NotEnabled(f"'{t}' is not enabled: needs {w} token(s)"
                             f" in '{p}', has {marking.get(p, 0)}")
    successor = dict(marking)
    for p, w in pre.items():
        successor[p] -= w
    for p, w in post.items():
        successor[p] = successor.get(p, 0) + w
    return successor


def _compile_transitions(net: PetriNet):
    """Per-transition firing data over place indices, for mask exploration.

    Transitions with a pre-condition weight of 2 or more can never fire
    from a 1-bounded marking and are dropped from the frontier loop.
    """
    compiled = []
    for t in net.transitions:
        pre, post = net.pre[t], net.post[t]
        if any(w >= 2 for w in pre.values()):
            continue
        pre_mask = 0
        for p in pre:
            pre_mask |= 1 << net.place_index(p)
        post_items = tuple((net.place_index(p), w) for p, w in post.items())
        compiled.append((t, pre_mask, post_items))
    return compiled


def explore_reachable(net: PetriNet, m0: Mapping[str, int],
                      cap: int = DEFAULT_STATE_CAP,
                      budget: float | None = DEFAULT_TIME_BUDGET) -> ReachabilitySet:
    """Breadth-first closure of the reachable markings of a safe net.

    Stops early (with ``truncated=True``) when `cap` markings were stored or
    the wall-clock `budget` in seconds ran out. Raises `NotSafe` with the
    witness marking as soon as any place reaches two tokens.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if set(m0) != set(net.places):
        raise ValueError("marking domain differs from net places")
    m0_mask = 0
    for p, n in m0.items():
        if n >= 2:
            raise NotSafe(m0)
        m0_mask |= n << net.place_index(p)

    compiled = _compile_transitions(net)
    deadline = None if budget is None else time.monotonic() + budget

    seen = {m0_mask}
    masks = [m0_mask]
    # the discovery list is also the queue: walking it while appending to
    # it visits the markings in breadth-first order
    for mask in masks:
        if deadline is not None and time.monotonic() > deadline:
            return ReachabilitySet(net.places, masks, truncated=True)
        for t, pre_mask, post_items in compiled:
            if mask & pre_mask != pre_mask:
                continue
            new = mask & ~pre_mask
            for i, w in post_items:
                if w >= 2 or new >> i & 1:
                    # two tokens would land in place i: the successor
                    # marking is the unsafety evidence
                    marking = {p: mask >> j & 1
                               for j, p in enumerate(net.places)}
                    raise NotSafe(fire_transition(net, marking, t))
                new |= 1 << i
            if new not in seen:
                if len(masks) >= cap:
                    return ReachabilitySet(net.places, masks, truncated=True)
                seen.add(new)
                masks.append(new)
    return ReachabilitySet(net.places, masks, truncated=False)


def independent_parts(net: PetriNet) -> list[PetriNet]:
    """The connected parts of `net` as sub-nets, ordered by first place.

    Two places share a part when some transition has both in its pre- or
    post-set. A part keeps its places and the transitions touching them in
    net order; a transition that touches no place belongs to no part, and
    a place that no transition touches is a part of its own. Transitions
    of different parts share no place, so the reachable markings of the
    net are the product of those of its parts.
    """
    parent = list(range(len(net.places)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    ends = {t: [net.place_index(p) for p in (*net.pre[t], *net.post[t])]
            for t in net.transitions}
    for t, touched in ends.items():
        for i in touched[1:]:
            parent[find(i)] = find(touched[0])
    places: dict[int, list[str]] = {}
    for i, p in enumerate(net.places):
        places.setdefault(find(i), []).append(p)
    transitions: dict[int, list[str]] = {root: [] for root in places}
    for t, touched in ends.items():
        if touched:
            transitions[find(touched[0])].append(t)
    return [PetriNet(places[root], transitions[root],
                     {t: net.pre[t] for t in transitions[root]},
                     {t: net.post[t] for t in transitions[root]})
            for root in places]


def oracle_matrix(net: PetriNet, m0: Mapping[str, int],
                  cap: int = DEFAULT_STATE_CAP,
                  budget: float | None = DEFAULT_TIME_BUDGET) -> ConcurrencyMatrix:
    """Ground-truth concurrency matrix over ``net.places`` by exploration.

    When exploration completes, the matrix is total: 1 where two places are
    marked together in some reachable marking (diagonal: place not dead),
    0 everywhere else. When it is truncated, only witnessed 1s are emitted
    and every other cell stays undecided, which is sound but partial.
    """
    result = explore_reachable(net, m0, cap=cap, budget=budget)
    fill = UNDECIDED if result.truncated else 0
    matrix = ConcurrencyMatrix(net.places, fill=fill)
    for mask in result.masks:
        matrix.relate(mask, mask)
    return matrix
