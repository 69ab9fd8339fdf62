"""Reconstructing the concurrency relation of the initial net.

Given a well-formed token flow graph and the concurrency relation between
its roots (the residual-net places plus the constant nodes), the complete
mode recovers the relation of the initial net without firing a single
transition: every live root floods its successor cone, each redundancy arc
under a live node relates the cone accumulated so far with the arc's cone,
and every concurrent pair of live roots relates the two cones wholesale.
Restricted to the places of the initial net, the result is exact.

The partial mode starts from an all-undecided matrix, seeds it with
whatever is known about the roots, runs the same 1-propagation from roots
known to be live, and then closes the matrix under six zero-propagation
axioms (A1..A6 below). Every 0 or 1 it writes is sound; undecided cells
simply remain undecided.

Axioms, where a "group" is one equation head v with members X:

* A1  a dead node is nonconcurrent with everything;
* A2  all members dead implies the head dead;
* A3  a dead head implies all members dead;
* A4  distinct members of one group are pairwise nonconcurrent;
* A5  if every member is nonconcurrent with w, so is the head;
* A6  if the head is nonconcurrent with w, so is every member.

The closure runs on a worklist of decided-zero cells, so each cell is
processed once and the fixpoint is order-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections import deque
from typing import Iterable, Optional

from .errors import IncompleteRootRelation, InvalidRootRelation
from .formats import NetDocument
from .matrix import UNDECIDED, ConcurrencyMatrix, MatrixDocument
from .ptnet import DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET, oracle_matrix
from .tfg import ConstantNode, Node, TokenFlowGraph


@dataclass
class PropagationStats:
    """Instrumentation for the complexity contract of the complete mode."""

    body_runs: int = 0


class RootRelation:
    """The concurrency relation restricted to the graph roots.

    Cells take the values 0, 1 or `UNDECIDED`. Constant roots follow the
    fixed convention: a 1-constant is live and concurrent with every
    not-dead root, a 0-constant is dead and concurrent with nothing.
    """

    __slots__ = ("tfg", "cells")

    def __init__(self, tfg: TokenFlowGraph, cells: ConcurrencyMatrix):
        if cells.order != tfg.roots:
            raise InvalidRootRelation("relation order must equal the graph roots")
        self.tfg = tfg
        self.cells = cells
        self._normalize()

    def _normalize(self) -> None:
        roots, cells = self.tfg.roots, self.cells
        # a 1 anywhere in a row implies the diagonal; a 0 diagonal zeroes
        # the row; a decided-dead root with a 1 in its row is contradictory
        for a in roots:
            row_one = any(cells.value(a, b) == 1 for b in roots)
            diag = cells.value(a, a)
            if diag == 0 and row_one:
                raise InvalidRootRelation(f"root '{a}' is dead yet related")
            if diag == UNDECIDED and row_one:
                cells.set_value(a, a, 1)
        for a in roots:
            if cells.value(a, a) == 0:
                for b in roots:
                    if cells.value(a, b) == UNDECIDED:
                        cells.set_value(a, b, 0)

    def value(self, a: Node, b: Node) -> int:
        return self.cells.value(a, b)

    @property
    def complete(self) -> bool:
        return self.cells.complete

    @classmethod
    def from_reduced_matrix(cls, tfg: TokenFlowGraph,
                            reduced: ConcurrencyMatrix | MatrixDocument) -> "RootRelation":
        """Extend a residual-net place matrix to all roots.

        The matrix must cover exactly the non-constant roots; constant
        roots are filled in by convention, reading liveness of the place
        roots off the given matrix (undecided stays undecided).
        """
        if isinstance(reduced, MatrixDocument):
            reduced = reduced.matrix
        place_roots = [r for r in tfg.roots if isinstance(r, str)]
        if set(place_roots) != set(reduced.order):
            missing = sorted(set(place_roots) - set(reduced.order))
            extra = sorted(set(reduced.order) - set(place_roots))
            raise InvalidRootRelation(
                f"relation covers the wrong places"
                f" (missing {missing}, extra {extra})")

        cells = ConcurrencyMatrix(tfg.roots, fill=UNDECIDED)
        for i, a in enumerate(place_roots):
            for b in place_roots[:i + 1]:
                cells.set_value(a, b, reduced.value(a, b))

        def liveness(root: Node) -> int:
            if isinstance(root, ConstantNode):
                return 1 if root.value == 1 else 0
            return cells.value(root, root)

        for k in (r for r in tfg.roots if isinstance(r, ConstantNode)):
            if k.value == 0:
                for b in tfg.roots:
                    cells.set_value(k, b, 0)
            else:
                cells.set_value(k, k, 1)
                for b in tfg.roots:
                    if b == k:
                        continue
                    cells.set_value(k, b, liveness(b))
        return cls(tfg, cells)

    @classmethod
    def exact(cls, tfg: TokenFlowGraph, residual: NetDocument,
              cap: int = DEFAULT_STATE_CAP,
              budget: float | None = DEFAULT_TIME_BUDGET) -> "RootRelation":
        """Compute the root relation from the residual net by exploration."""
        matrix = oracle_matrix(residual.net, residual.initial,
                               cap=cap, budget=budget)
        return cls.from_reduced_matrix(tfg, matrix)


def propagate_node(tfg: TokenFlowGraph, matrix: ConcurrencyMatrix, v: Node,
                   memo: Optional[dict] = None,
                   stats: Optional[PropagationStats] = None) -> frozenset[Node]:
    """Flood from the not-dead node `v`, returning its successor set.

    Side effects on `matrix`: the diagonal of every successor becomes 1,
    and for every redundancy arc below `v` the nodes accumulated before the
    arc are related to the arc target's cone. With a shared `memo`, a node
    body runs at most once across any number of calls; repeated calls
    return the same set and change no cell.
    """
    if memo is None:
        memo = {}
    if v in memo:
        return memo[v]

    # collect the unmemoized cone and process it children-first, which is
    # exactly the recursive evaluation order without the recursion depth
    region: list[Node] = []
    seen: set[Node] = set()
    stack = [v]
    while stack:
        node = stack.pop()
        if node in seen or node in memo:
            continue
        seen.add(node)
        region.append(node)
        stack.extend(tfg.out_children(node))
    region.sort(key=tfg.topo_index.__getitem__, reverse=True)

    for node in region:
        if stats is not None:
            stats.body_runs += 1
        matrix.set_value(node, node, 1)
        succs = {node}
        for child in tfg.a_group_of.get(node, ()):
            succs |= memo[child]
        for target in tfg.r_targets_of.get(node, ()):
            _cross(matrix, succs, memo[target])
            succs |= memo[target]
        memo[node] = frozenset(succs)
    return memo[v]


def _cross(matrix: ConcurrencyMatrix, left: Iterable[Node],
           right: frozenset[Node]) -> None:
    for x in left:
        for y in right:
            matrix.set_value(x, y, 1)


def _propagate_roots(tfg: TokenFlowGraph, rel2: RootRelation,
                     matrix: ConcurrencyMatrix,
                     stats: Optional[PropagationStats] = None) -> None:
    """Flood every live root, then relate the cones of concurrent root pairs."""
    memo: dict[Node, frozenset[Node]] = {}
    live = [r for r in tfg.roots if rel2.value(r, r) == 1]
    cones = {r: propagate_node(tfg, matrix, r, memo, stats) for r in live}
    for i, v in enumerate(live):
        for w in live[:i]:
            if rel2.value(v, w) == 1:
                _cross(matrix, cones[v], cones[w])


def matrix_complete(tfg: TokenFlowGraph, rel2: RootRelation,
                    stats: Optional[PropagationStats] = None) -> ConcurrencyMatrix:
    """Exact concurrency matrix over all graph nodes from a complete root relation.

    Cells start at 0 and only 1s are ever written: first each live root is
    flooded (`propagate_node`), then every concurrent root pair relates its
    two successor cones. Restricted to the places of the initial net the
    result equals the true concurrency relation.
    """
    if not rel2.complete:
        raise IncompleteRootRelation(
            "complete mode needs a fully decided root relation")
    matrix = ConcurrencyMatrix(tfg.nodes, fill=0)
    _propagate_roots(tfg, rel2, matrix, stats)
    return matrix


def matrix_partial(tfg: TokenFlowGraph, rel2: RootRelation,
                   rng: Optional[random.Random] = None) -> ConcurrencyMatrix:
    """Sound partial concurrency matrix from a partial root relation.

    Cells start undecided; root knowledge is seeded, 1-propagation runs
    from the roots known to be live, then the six zero-axioms run to a
    fixpoint. Axioms only ever turn undecided cells into 0, so the result
    does not depend on the processing order; `rng`, when given, randomizes
    the worklist order (a testing hook for exactly that property).
    """
    matrix = ConcurrencyMatrix(tfg.nodes, fill=UNDECIDED)
    roots = tfg.roots
    for i, a in enumerate(roots):
        for b in roots[:i + 1]:
            value = rel2.value(a, b)
            if value != UNDECIDED:
                matrix.set_value(a, b, value)
    _propagate_roots(tfg, rel2, matrix)

    queue: deque[tuple[Node, Node]] = deque()

    def set_zero(a: Node, b: Node) -> None:
        if matrix.value(a, b) == UNDECIDED:
            matrix.set_value(a, b, 0)
            queue.append((a, b))

    # A4 holds unconditionally on safe nets: equation members exclude
    # each other because their sum is bounded by one
    for group in tfg.groups:
        for i, a in enumerate(group.members):
            for b in group.members[:i]:
                if a != b:
                    set_zero(a, b)

    # every already-decided zero is a closure seed
    for i, a in enumerate(tfg.nodes):
        for b in tfg.nodes[:i + 1]:
            if matrix.value(a, b) == 0:
                queue.append((a, b))

    def pop() -> tuple[Node, Node]:
        if rng is None:
            return queue.popleft()
        k = rng.randrange(len(queue))
        queue.rotate(-k)
        item = queue.popleft()
        queue.rotate(k)
        return item

    while queue:
        a, b = pop()
        if a == b:
            # A1: spread the dead diagonal across the whole row
            for w in tfg.nodes:
                set_zero(a, w)
            # A3: a dead head kills its members
            for group in tfg.head_groups_of.get(a, ()):
                for member in group.members:
                    set_zero(member, member)
            # A2: the last member of a group just died, maybe its head too
            for group in tfg.member_groups_of.get(a, ()):
                if all(matrix.value(m, m) == 0 for m in group.members):
                    set_zero(group.head, group.head)
        else:
            for u, w in ((a, b), (b, a)):
                # A6: head nonconcurrent with w, so are the members
                for group in tfg.head_groups_of.get(u, ()):
                    for member in group.members:
                        set_zero(member, w)
                # A5: all members nonconcurrent with w, so is the head
                for group in tfg.member_groups_of.get(u, ()):
                    if all(matrix.value(m, w) == 0 for m in group.members):
                        set_zero(group.head, w)
    return matrix
