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

Each pass applies one rule once. It first derives every place's sparse
column ``{t: (pre, post)}`` (the transitions touching it, in transition
order) in one sweep over the arcs, and the rules read only columns;
duplicates are found by grouping places on (marking, column). A pass
costs O(arcs), and a net of P places needs at most P passes. A pass
starts only while the time budget lasts; `BudgetExhausted` ends the run
otherwise.

Richer reducers exist; the point of keeping this catalogue small is that
the downstream reconstruction accepts externally produced equation files
just as well, so anything emitting the same equation shapes can be
plugged in front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Optional

from .errors import BudgetExhausted
from .formats import NetDocument
from .ptnet import PetriNet
from .tfg import Equation, EquationSystem


@dataclass(frozen=True)
class ReductionResult:
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
    if not p1:
        # nothing to remove: an empty net is trivially fully reduced
        return Fraction(1)
    kept = len(set(p1) & set(p2))
    return Fraction(len(p1) - kept, len(p1))


class _Reducer:
    """Mutable working copy of a net during rule application."""

    def __init__(self, doc: NetDocument):
        self.places = list(doc.net.places)
        self.transitions = list(doc.net.transitions)
        self.marking = dict(doc.initial)
        self.pre = {t: dict(doc.net.pre[t]) for t in self.transitions}
        self.post = {t: dict(doc.net.post[t]) for t in self.transitions}
        self.equations: list[Equation] = []
        taken = set(doc.net.places) | set(doc.net.transitions)
        self.fresh_names = (name for name in (f"a{k}" for k in count(1))
                            if name not in taken)

    def columns(self) -> dict[str, dict[str, tuple[int, int]]]:
        """Every place's sparse column {t: (pre, post)}, in transition order."""
        cols: dict[str, dict[str, tuple[int, int]]] = {p: {} for p in self.places}
        for t in self.transitions:
            for p, w in self.pre[t].items():
                cols[p][t] = (w, self.post[t].get(p, 0))
            for p, w in self.post[t].items():
                cols[p].setdefault(t, (0, w))
        return cols

    def drop_place(self, p: str, col: dict[str, tuple[int, int]]) -> None:
        self.places.remove(p)
        del self.marking[p]
        for t in col:
            self.pre[t].pop(p, None)
            self.post[t].pop(p, None)

    def apply_duplicate(self, cols) -> bool:
        classes: dict[tuple, list[str]] = {}
        for p in self.places:
            classes.setdefault((self.marking[p], tuple(cols[p].items())),
                               []).append(p)
        for p, *twins in classes.values():
            if twins:
                self.drop_place(twins[0], cols[twins[0]])
                self.equations.append(Equation("R", twins[0], (p,)))
                return True
        return False

    def apply_constant(self, cols) -> bool:
        for p in self.places:
            k = self.marking[p]
            if k in (0, 1) and all(w == v <= k for w, v in cols[p].values()):
                self.drop_place(p, cols[p])
                self.equations.append(Equation("R", p, (k,)))
                return True
        return False

    def _chain_at(self, p: str, cols) -> Optional[tuple[str, str]]:
        consumers = [t for t, (w, _) in cols[p].items() if w]
        if len(consumers) != 1:
            return None
        t = consumers[0]
        if self.pre[t] != {p: 1} or len(self.post[t]) != 1:
            return None
        (q, weight), = self.post[t].items()
        if weight != 1 or q == p or self.marking[q] != 0:
            return None
        if [u for u, (_, w) in cols[q].items() if w] != [t]:
            return None
        return t, q

    def apply_chain(self, cols) -> bool:
        for p in self.places:
            found = self._chain_at(p, cols)
            if found is None:
                continue
            t, q = found
            x = next(self.fresh_names)
            # x inherits p's producers and q's consumers: besides t, q's
            # column holds only consumers of q and p's only producers of p
            del cols[p][t], cols[q][t], self.pre[t], self.post[t]
            self.transitions.remove(t)
            for u in cols[q]:
                self.pre[u][x] = self.pre[u].pop(q)
            for u in cols[p]:
                self.post[u][x] = self.post[u].pop(p)
            self.marking[x] = self.marking[p]
            self.places.remove(p)
            self.places.remove(q)
            del self.marking[p], self.marking[q]
            self.places.append(x)
            self.equations.append(Equation("A", x, (p, q)))
            return True
        return False

    def run(self, deadline: float | None) -> None:
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhausted("reduction ran out of its time budget")
            cols = self.columns()
            if not (self.apply_duplicate(cols) or self.apply_constant(cols)
                    or self.apply_chain(cols)):
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
    net = PetriNet(reducer.places, reducer.transitions, reducer.pre,
                   reducer.post)
    residual = NetDocument(net, net.make_marking(reducer.marking))
    return ReductionResult(
        original=doc,
        residual=residual,
        equations=EquationSystem(reducer.equations),
        ratio=_ratio(doc.net.places, residual.net.places),
    )
