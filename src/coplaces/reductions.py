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

Richer reducers exist; the point of keeping this catalogue small is that
the downstream reconstruction accepts externally produced equation files
just as well, so anything emitting the same equation shapes can be
plugged in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
        self.marking = dict(doc.initial.tokens)
        self.pre = {t: dict(doc.net.pre[t]) for t in self.transitions}
        self.post = {t: dict(doc.net.post[t]) for t in self.transitions}
        self.equations: list[Equation] = []
        self.used_names = set(doc.net.places) | set(doc.net.transitions)
        self._fresh_counter = 0

    # -- helpers --------------------------------------------------------

    def fresh_name(self) -> str:
        while True:
            self._fresh_counter += 1
            name = f"a{self._fresh_counter}"
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def column(self, p: str):
        return tuple((self.pre[t].get(p, 0), self.post[t].get(p, 0))
                     for t in self.transitions)

    def drop_place(self, p: str) -> None:
        self.places.remove(p)
        del self.marking[p]
        for t in self.transitions:
            self.pre[t].pop(p, None)
            self.post[t].pop(p, None)

    # -- rules ----------------------------------------------------------

    def apply_duplicate(self) -> bool:
        for i, p in enumerate(self.places):
            col = self.column(p)
            for q in self.places[i + 1:]:
                if self.marking[q] == self.marking[p] and self.column(q) == col:
                    self.drop_place(q)
                    self.equations.append(Equation("R", q, (p,)))
                    return True
        return False

    def apply_constant(self) -> bool:
        for p in self.places:
            k = self.marking[p]
            if k not in (0, 1):
                continue
            if all(self.pre[t].get(p, 0) == self.post[t].get(p, 0) <= k
                   for t in self.transitions):
                self.drop_place(p)
                self.equations.append(Equation("R", p, (k,)))
                return True
        return False

    def _chain_at(self, p: str) -> Optional[tuple[str, str]]:
        consumers = [t for t in self.transitions if self.pre[t].get(p, 0) > 0]
        if len(consumers) != 1:
            return None
        t = consumers[0]
        if self.pre[t] != {p: 1} or len(self.post[t]) != 1:
            return None
        (q, weight), = self.post[t].items()
        if weight != 1 or q == p or self.marking[q] != 0:
            return None
        producers = [u for u in self.transitions if self.post[u].get(q, 0) > 0]
        if producers != [t]:
            return None
        return t, q

    def apply_chain(self) -> bool:
        for p in self.places:
            found = self._chain_at(p)
            if found is None:
                continue
            t, q = found
            x = self.fresh_name()
            # x inherits p's producers and q's consumers; nothing else can
            # touch p or q by the uniqueness conditions
            self.transitions.remove(t)
            del self.pre[t], self.post[t]
            for u in self.transitions:
                if q in self.pre[u]:
                    self.pre[u][x] = self.pre[u].pop(q)
                if p in self.post[u]:
                    self.post[u][x] = self.post[u].pop(p)
            self.marking[x] = self.marking[p]
            self.places.remove(p)
            self.places.remove(q)
            del self.marking[p], self.marking[q]
            self.places.append(x)
            self.equations.append(Equation("A", x, (p, q)))
            return True
        return False

    def run(self) -> None:
        while (self.apply_duplicate()
               or self.apply_constant()
               or self.apply_chain()):
            pass

    def residual(self, doc: NetDocument) -> NetDocument:
        net = PetriNet(self.places, self.transitions, self.pre, self.post)
        return NetDocument(net, net.make_marking(self.marking),
                           name=doc.name, source_format=doc.source_format)


def reduce_net(doc: NetDocument) -> ReductionResult:
    """Reduce a (safe) net to a fixpoint of the three rule families.

    Returns the residual net, the ordered tagged equation system relating
    the two nets, and the reduction ratio. When no rule applies the result
    is the identity: the residual equals the input and the ratio is 0.
    """
    reducer = _Reducer(doc)
    reducer.run()
    residual = reducer.residual(doc)
    return ReductionResult(
        original=doc,
        residual=residual,
        equations=EquationSystem(reducer.equations),
        ratio=_ratio(doc.net.places, residual.net.places),
    )
