"""Structural net reduction with a tagged equation trail.

Three sound rule families are applied to a fixpoint, always picking the
first match in a fixed scan order (rule priority, then place order), so a
given input always yields the same residual net and equation file:

* duplicate place: q behaves identically to an earlier place p (same
  pre/post column on every transition, same initial marking); q is dropped
  and ``R |- q = p`` recorded.
* constant place: p's marking can never change (every transition has equal
  pre and post weight on p, and that weight never exceeds the initial
  marking, so no transition is disabled by dropping p); p is dropped and
  ``R |- p = k`` recorded with k its initial marking, 0 or 1.
* chain agglomeration: a transition t with pre exactly {p} and post
  exactly {q} (both weight one), t the only consumer of p and the only
  producer of q, q initially empty; p and q fuse into a fresh place x
  with ``A |- x = p + q``, and t disappears.

Rules fire one at a time. The sparse columns ``{t: (pre, post)}`` (the
transitions touching a place, in transition order) are built once, and
a surviving place's column never changes: dropping a place deletes only
its own entries, and a chain firing removes only t, which touches only
p and q. So each place's twin key (marking, column) and its constant
test are settled when the place is added, and the reducer keeps, across
firings, the twin classes and one candidate heap per rule keyed by place
position. A firing costs about the columns it touches times a heap
operation, not a pass over the net. The time budget is checked before
every firing; `BudgetExhausted` ends the run once it is spent.

Richer reducers exist; the point of keeping this catalogue small is that
the downstream reconstruction accepts externally produced equation files
just as well, so anything emitting the same equation shapes can be
plugged in front.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import BudgetExhausted
from .formats import NetDocument
from .ptnet import PetriNet
from .tfg import Equation, EquationSystem

if TYPE_CHECKING:
    from fractions import Fraction


class ReductionResult(NamedTuple):
    """Everything a reduction run leaves behind.

    `ratio` is the fraction of original places that were removed; 1 means
    the residual net has no places left (fully reduced), 0 means nothing
    applied. Freshly inserted places do not count.
    """

    original: NetDocument
    residual: NetDocument
    equations: EquationSystem
    ratio: Fraction


def _ratio(p1: tuple[str, ...], p2: tuple[str, ...]) -> Fraction:
    # imported here: `fractions` loads `decimal`, and only `reduce` needs it
    from fractions import Fraction

    if not p1:
        # nothing to remove: an empty net is trivially fully reduced
        return Fraction(1)
    kept = len(set(p1) & set(p2))
    return Fraction(len(p1) - kept, len(p1))


class _Reducer:
    """Working copy of a net during rule application.

    Places are addressed by position: their index in declaration order,
    fresh places taking the next one, so a rule's "first match in place
    order" is the smallest position among its candidates.
    """

    def __init__(self, doc: NetDocument):
        self.transitions = doc.net.transitions
        self.rank = {t: i for i, t in enumerate(self.transitions)}
        self.marking = dict(doc.initial)
        self.pre = {t: dict(doc.net.pre[t]) for t in self.transitions}
        self.post = {t: dict(doc.net.post[t]) for t in self.transitions}
        self.equations: list[Equation] = []
        taken = set(doc.net.places) | set(doc.net.transitions)
        self.fresh_names = (name for name in (f"a{k}" for k in count(1))
                            if name not in taken)
        self.order: list[str] = []  # every place ever added, by position
        # live place -> (position, twin key, column)
        self.live: dict[str, tuple[int, tuple, dict[str, tuple[int, int]]]] = {}
        self.classes: dict[tuple, list[int]] = {}  # twin key -> positions
        self.twins: list[tuple[int, tuple]] = []  # classes of 2+, by first
        self.constants: list[int] = []  # positions passing the constant test
        self.chains: list[int] = []     # positions that may start a chain
        cols: dict[str, dict[str, tuple[int, int]]] = {
            p: {} for p in doc.net.places}
        for t in self.transitions:
            for p, w in self.pre[t].items():
                cols[p][t] = (w, self.post[t].get(p, 0))
            for p, w in self.post[t].items():
                cols[p].setdefault(t, (0, w))
        for p in doc.net.places:
            self.add(p, cols[p])

    def add(self, p: str, col: dict[str, tuple[int, int]]) -> None:
        """Give `p` the next position; its column is final, so its twin
        key and its constant test are settled here."""
        pos = len(self.order)
        self.order.append(p)
        k = self.marking[p]
        key = (k, tuple(col.items()))
        self.live[p] = (pos, key, col)
        members = self.classes.setdefault(key, [])
        members.append(pos)
        if len(members) == 2:
            heappush(self.twins, (members[0], key))
        if k in (0, 1) and all(w == v <= k for w, v in col.values()):
            heappush(self.constants, pos)
        heappush(self.chains, pos)

    def forget(self, p: str) -> dict[str, tuple[int, int]]:
        """Remove `p` from the bookkeeping and return its column."""
        pos, key, col = self.live.pop(p)
        members = self.classes[key]
        members.remove(pos)
        if not members:
            del self.classes[key]
        del self.marking[p]
        return col

    def touch(self, u: str) -> None:
        """Queue the place that `u` may now chain from.

        A chain from p reads only the arcs of p's one consumer, so when
        the arcs of `u` change, only the place `u` consumes, if it is
        alone, can turn into a chain.
        """
        if len(self.pre[u]) == 1 and len(self.post[u]) == 1:
            p, = self.pre[u]
            heappush(self.chains, self.live[p][0])

    def drop_place(self, p: str) -> None:
        for t in self.forget(p):
            self.pre[t].pop(p, None)
            self.post[t].pop(p, None)
            self.touch(t)

    def apply_duplicate(self) -> bool:
        # the class whose first member comes first drops its second; the
        # other rules fire only while every class is alone, so the first
        # member of a class of two or more never leaves
        if not self.twins:
            return False
        members = self.classes[self.twins[0][1]]
        p, q = self.order[members[0]], self.order[members[1]]
        if len(members) == 2:
            heappop(self.twins)
        self.drop_place(q)
        self.equations.append(Equation("R", q, (p,)))
        return True

    def apply_constant(self) -> bool:
        while self.constants:
            p = self.order[heappop(self.constants)]
            if p in self.live:
                k = self.marking[p]
                self.drop_place(p)
                self.equations.append(Equation("R", p, (k,)))
                return True
        return False

    def _chain_at(self, p: str) -> Optional[tuple[str, str]]:
        consumers = [t for t, (w, _) in self.live[p][2].items() if w]
        if len(consumers) != 1:
            return None
        t = consumers[0]
        if self.pre[t] != {p: 1} or len(self.post[t]) != 1:
            return None
        (q, weight), = self.post[t].items()
        if weight != 1 or q == p or self.marking[q] != 0:
            return None
        if [u for u, (_, w) in self.live[q][2].items() if w] != [t]:
            return None
        return t, q

    def apply_chain(self) -> bool:
        while self.chains:
            p = self.order[heappop(self.chains)]
            found = p in self.live and self._chain_at(p)
            if found:
                break
        else:
            return False
        t, q = found
        x = next(self.fresh_names)
        tokens = self.marking[p]
        col_p, col_q = self.forget(p), self.forget(q)
        # x inherits p's producers and q's consumers: besides t, q's
        # column holds only consumers of q and p's only producers of p
        del col_p[t], col_q[t], self.pre[t], self.post[t]
        for u in col_q:
            self.pre[u][x] = self.pre[u].pop(q)
        for u in col_p:
            self.post[u][x] = self.post[u].pop(p)
        self.marking[x] = tokens
        touched = sorted(col_p.keys() | col_q.keys(), key=self.rank.get)
        self.add(x, {u: (self.pre[u].get(x, 0), self.post[u].get(x, 0))
                     for u in touched})
        for u in touched:
            self.touch(u)
        self.equations.append(Equation("A", x, (p, q)))
        return True

    def run(self, deadline: float | None) -> None:
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhausted("reduction ran out of its time budget")
            if not (self.apply_duplicate() or self.apply_constant()
                    or self.apply_chain()):
                return


def reduce_net(doc: NetDocument,
               budget: float | None = None) -> ReductionResult:
    """Reduce a (safe) net to a fixpoint of the three rule families.

    Returns the residual net, the ordered tagged equation system relating
    the two nets, and the reduction ratio. When no rule applies the result
    is the identity: the residual equals the input and the ratio is 0.
    Raises `BudgetExhausted` when the wall-clock `budget` in seconds runs
    out before the fixpoint; None means no budget.
    """
    reducer = _Reducer(doc)
    reducer.run(None if budget is None else time.monotonic() + budget)
    places = [p for p in reducer.order if p in reducer.live]
    transitions = [t for t in reducer.transitions if t in reducer.pre]
    net = PetriNet(places, transitions, reducer.pre, reducer.post)
    residual = NetDocument(net, net.make_marking(reducer.marking))
    return ReductionResult(
        original=doc,
        residual=residual,
        equations=EquationSystem(reducer.equations),
        ratio=_ratio(doc.net.places, residual.net.places),
    )
