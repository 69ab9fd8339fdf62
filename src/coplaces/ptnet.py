"""Petri net syntax, semantics, explicit-state reachability and oracle.

The exploration side is deliberately brute force: a deterministic
breadth-first closure over bit-vector encoded markings. It doubles as the
ground truth against which the structural pipeline is verified, so it stays
simple and obviously correct. Only 1-bounded (safe) nets are explored;
evidence of a second token in any place aborts with `NotSafe`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Mapping, Optional

from .errors import NotEnabled, NotSafe, UnknownTransition
from .matrix import UNDECIDED, ConcurrencyMatrix

DEFAULT_STATE_CAP = 1_000_000
DEFAULT_TIME_BUDGET = 60.0


class Marking:
    """Total map from the places of a net to token counts.

    Immutable and hashable, so markings can live in sets.
    """

    __slots__ = ("tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int]):
        for place, count in tokens.items():
            if count < 0:
                raise ValueError(f"negative token count at '{place}'")
        self.tokens = dict(tokens)
        self._hash: Optional[int] = None

    def __getitem__(self, place: str) -> int:
        return self.tokens[place]

    def __iter__(self):
        return iter(self.tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self.tokens == other.tokens

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.tokens.items()))
        return self._hash

    def __repr__(self) -> str:
        marked = ", ".join(f"{p}:{n}" for p, n in sorted(self.tokens.items())
                           if n > 0)
        return "{" + (marked or "empty") + "}"


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
        if len(set(self.places)) != len(self.places):
            raise ValueError("duplicate place identifiers")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition identifiers")
        if set(self.places) & set(self.transitions):
            raise ValueError("place and transition identifiers overlap")
        self._place_index = {p: i for i, p in enumerate(self.places)}
        self.pre = self._normalize(pre or {})
        self.post = self._normalize(post or {})

    def _normalize(self, flow: Mapping[str, Mapping[str, int]]):
        out: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        for t, arcs in flow.items():
            if t not in out:
                raise ValueError(f"flow refers to unknown transition '{t}'")
            for p, w in arcs.items():
                if p not in self._place_index:
                    raise ValueError(f"flow refers to unknown place '{p}'")
                if w < 0:
                    raise ValueError(f"negative arc weight on ('{t}', '{p}')")
                if w > 0:
                    out[t][p] = w
        return out

    def place_index(self, place: str) -> int:
        return self._place_index[place]

    def make_marking(self, tokens: Mapping[str, int] | None = None) -> Marking:
        """Build a total marking, filling unmentioned places with zero."""
        tokens = dict(tokens or {})
        unknown = set(tokens) - set(self.places)
        if unknown:
            raise ValueError(f"marking mentions unknown places {sorted(unknown)}")
        return Marking({p: tokens.get(p, 0) for p in self.places})

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
    """The explored marking set of a net.

    `truncated` is set when exploration stopped on the state cap or the
    time budget; the stored set is then a prefix-closed under-approximation.
    Every stored marking is 1-bounded, so `safe` holds for the stored set.
    """

    __slots__ = ("place_order", "masks", "safe", "truncated", "_mask_set")

    def __init__(self, place_order: tuple[str, ...], masks: Iterable[int],
                 safe: bool, truncated: bool):
        self.place_order = place_order
        self.masks = tuple(masks)
        self.safe = safe
        self.truncated = truncated
        self._mask_set = frozenset(self.masks)

    def marking_from_mask(self, mask: int) -> Marking:
        return Marking({p: (mask >> i) & 1
                        for i, p in enumerate(self.place_order)})

    @property
    def markings(self) -> tuple[Marking, ...]:
        """All stored markings, in discovery (BFS) order."""
        return tuple(self.marking_from_mask(m) for m in self.masks)

    def __contains__(self, marking: Marking) -> bool:
        mask = 0
        for i, p in enumerate(self.place_order):
            n = marking.tokens.get(p, 0)
            if n > 1:
                return False
            mask |= n << i
        return mask in self._mask_set

    def __len__(self) -> int:
        return len(self.masks)


def fire_transition(net: PetriNet, marking: Marking, t: str) -> Marking:
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
        if marking.tokens.get(p, 0) < w:
            raise NotEnabled(f"'{t}' is not enabled at {marking}:"
                             f" needs {w} token(s) in '{p}'")
    tokens = dict(marking.tokens)
    for p, w in pre.items():
        tokens[p] -= w
    for p, w in post.items():
        tokens[p] = tokens.get(p, 0) + w
    return Marking(tokens)


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


def explore_reachable(net: PetriNet, m0: Marking,
                      cap: int = DEFAULT_STATE_CAP,
                      budget: float | None = DEFAULT_TIME_BUDGET) -> ReachabilitySet:
    """Breadth-first closure of the reachable markings of a safe net.

    Stops early (with ``truncated=True``) when `cap` markings were stored or
    the wall-clock `budget` in seconds ran out. Raises `NotSafe` with the
    witness marking as soon as any place reaches two tokens.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if set(m0.tokens) != set(net.places):
        raise ValueError("marking domain differs from net places")
    m0_mask = 0
    for p, n in m0.tokens.items():
        if n >= 2:
            raise NotSafe(m0)
        m0_mask |= n << net.place_index(p)

    compiled = _compile_transitions(net)
    deadline = None if budget is None else time.monotonic() + budget

    seen = {m0_mask}
    order = [m0_mask]
    queue = deque([m0_mask])
    truncated = False
    while queue:
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            break
        mask = queue.popleft()
        for t, pre_mask, post_items in compiled:
            if mask & pre_mask != pre_mask:
                continue
            new = mask & ~pre_mask
            for i, w in post_items:
                if w >= 2 or new >> i & 1:
                    # two tokens would land in place i: rebuild the exact
                    # successor marking as unsafety evidence
                    witness = net.make_marking({
                        p: (mask >> net.place_index(p) & 1)
                        - net.pre[t].get(p, 0) + net.post[t].get(p, 0)
                        for p in net.places})
                    raise NotSafe(witness)
                new |= 1 << i
            if new not in seen:
                if len(seen) >= cap:
                    truncated = True
                    queue.clear()
                    break
                seen.add(new)
                order.append(new)
                queue.append(new)
    return ReachabilitySet(net.places, order, safe=True, truncated=truncated)


def oracle_matrix(net: PetriNet, m0: Marking,
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
        indices = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        for a, i in enumerate(indices):
            matrix.set_at(i, i, 1)
            for j in indices[:a]:
                matrix.set_at(i, j, 1)
    return matrix
