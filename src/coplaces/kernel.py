"""Reconstructing the concurrency relation of the initial net.

Given a well-formed token flow graph and the concurrency relation between
its roots (the residual-net places plus the constant nodes), the complete
mode recovers the relation of the initial net without firing a single
transition: every live root floods its successor cone, each redundancy arc
under a live node relates the cone accumulated so far with the arc's cone,
and each node's row in the cone of a live root v takes the cones of the
roots concurrent with v. Restricted to the initial places, it is exact.
The cones are masks that the graph computes once, at their first read
(`TokenFlowGraph.cones`), so flooding is an OR of the live roots' cones.

The root relation comes from a matrix file or from exploring the residual
net (`RootRelation.exact`). Exploration goes part by part: the connected
parts of the residual net fire independently, so its reachable markings
are the product of the parts' markings, and each part is explored once on
its own. Across parts, live places are concurrent and dead ones are not.

The partial mode starts from an all-undecided matrix, seeds it with the
root 0s, runs the same 1-propagation from roots known to be live, and
then closes the matrix under six zero-propagation axioms (A1..A6 below).
The root 1s need no seed: `RootRelation` makes every related root live,
so propagation writes its diagonal and relates the cones of each related
pair. Every 0 or 1 it writes is sound; undecided cells stay undecided.

Axioms, where a "group" is one equation head v with members X:

* A1  a dead node is nonconcurrent with everything;
* A2  all members dead implies the head dead;
* A3  a dead head implies all members dead;
* A4  distinct members of one group are pairwise nonconcurrent;
* A5  if every member is nonconcurrent with w, so is the head;
* A6  if the head is nonconcurrent with w, so is every member.

The closure works on whole node rows: each node keeps the mask of the
nodes it is decided nonconcurrent with; A4 seeds it. A round repeats
passes until no row grows, each pass running A6 over the groups heads
first, A5 members first and A1 on the dead rows, then one transpose
mirrors the round's new 0s into the columns; rounds stop when a pass over
freshly mirrored rows adds nothing. Heads first is a sort on `tfg.topo`:
R groups by falling rank of their head, then A groups by rising rank. An
R group's members rank below its head and an A group's above, so a group
headed by a member comes later within each half, and no A group has a
member heading an R group, which T3 forbids. Axioms only turn undecided
cells into 0 and the rule set is closed under transposition, so the
result is the least symmetric fixpoint, whatever the order of groups and
passes.
A2 and A3 need no code: a node with a 1 in its row has a 1 on its diagonal
(propagation writes the diagonal of every node it relates, and
`RootRelation` rejects a dead root that is related), so A1 makes a dead
node's row all zeros, and then A5 with w the head gives A2 and A6 with w a
member gives A3.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import (IncompleteRootRelation, InvalidRootRelation, NotSafe,
                     shown, shown_nodes)
from .formats import NetDocument
from .matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument, Record,
                     bits, reorder, transpose)
from .ptnet import (DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET,
                    independent_parts, oracle_matrix)
from .tfg import ConstantNode, Group, TokenFlowGraph


class PropagationStats(Record):
    """Instrumentation for the complexity contract of the complete mode."""

    __slots__ = ("body_runs",)

    def __init__(self, body_runs: int = 0):
        self.body_runs = body_runs


class RootRelation:
    """The concurrency relation restricted to the graph roots.

    Cells take the values 0, 1 or `UNDECIDED`. Each relation is a product
    of independent parts (`_of_parts`), a constant root being a part that
    holds its value: a 1-constant is live, a 0-constant dead.
    """

    __slots__ = ("tfg", "cells")

    def __init__(self, tfg: TokenFlowGraph, cells: ConcurrencyMatrix):
        if cells.order != tfg.roots:
            raise InvalidRootRelation("relation order must equal the graph roots")
        self.tfg = tfg
        self.cells = cells
        self._normalize()

    def _normalize(self) -> None:
        # a 1 anywhere in a row implies the diagonal; a 0 diagonal zeroes
        # the row; a decided-dead root with a 1 in its row is contradictory
        ones, zeros = self.cells.full_rows()
        dead = live = 0
        for i, root in enumerate(self.tfg.roots):
            if zeros[i] >> i & 1:
                if ones[i]:
                    raise InvalidRootRelation(f"root {shown(root)} is dead yet related")
                dead |= 1 << i
            elif ones[i]:
                live |= 1 << i
        everything = (1 << len(ones)) - 1
        self.cells.add_ones([live & 1 << i for i in range(len(ones))])
        self.cells.add_zeros([everything if dead >> i & 1 else dead
                              for i in range(len(ones))])

    @property
    def complete(self) -> bool:
        return self.cells.complete

    @classmethod
    def _of_parts(cls, tfg: TokenFlowGraph,
                  parts: list[ConcurrencyMatrix]) -> "RootRelation":
        """The relation of the product of `parts`, which must cover exactly
        the place roots, and of one part per constant root holding its
        value: within a part the cells are the part's, across parts the
        live roots are concurrent and `_normalize` zeroes the dead rows.
        """
        places = {p for part in parts for p in part.order}
        place_roots = {r for r in tfg.roots if isinstance(r, str)}
        if place_roots != places:
            missing = sorted(place_roots - places)
            extra = sorted(places - place_roots)
            raise InvalidRootRelation(
                f"relation covers the wrong places (missing"
                f" {shown_nodes(missing)}, extra {shown_nodes(extra)})")
        parts = [*parts, *(ConcurrencyMatrix((k,), fill=k.value)
                           for k in tfg.roots if isinstance(k, ConstantNode))]
        index: dict = {}                # each root's row in the product
        ones: list[int] = []
        zeros: list[int] = []
        spans: list[int] = []           # the part of each root, as a mask
        for part in parts:
            # the part's rows move up to its own bit range of the product
            shift, width = len(ones), part.size
            part_ones, part_zeros = part.full_rows()
            index.update(zip(part.order, range(shift, shift + width)))
            ones.extend(row << shift for row in part_ones)
            zeros.extend(row << shift for row in part_zeros)
            spans.extend([((1 << width) - 1) << shift] * width)
        live = sum(1 << i for i, row in enumerate(ones) if row >> i & 1)
        for i, span in enumerate(spans):
            if live >> i & 1:
                ones[i] |= live & ~span
        source = [index[root] for root in tfg.roots]
        cells = ConcurrencyMatrix(tfg.roots, fill=UNDECIDED)
        cells.add_ones(reorder(ones, source))
        cells.add_zeros(reorder(zeros, source))
        return cls(tfg, cells)

    @classmethod
    def from_reduced_matrix(cls, tfg: TokenFlowGraph,
                            reduced: ConcurrencyMatrix | MatrixDocument) -> "RootRelation":
        """Extend a residual-net place matrix to all roots.

        The matrix must cover exactly the place roots; it is the one place
        part of `_of_parts` (undecided cells stay undecided).
        """
        if isinstance(reduced, MatrixDocument):
            reduced = reduced.matrix
        return cls._of_parts(tfg, [reduced])

    @classmethod
    def exact(cls, tfg: TokenFlowGraph, residual: NetDocument,
              cap: int = DEFAULT_STATE_CAP,
              budget: float | None = DEFAULT_TIME_BUDGET) -> "RootRelation":
        """Compute the root relation from the residual net by exploration.

        Each connected part of the residual net (`independent_parts`) is
        explored once by `oracle_matrix`, with `cap` markings per part and
        the time left of one `budget` shared by all parts, so the cost is
        the sum of the parts' state spaces, not their product. The
        reachable markings are the product of the parts' markings: across
        parts, two places are concurrent when both are live and not when
        either is dead, and undecided otherwise. A `NotSafe` from a part
        carries that part's witness with every other place at its initial
        marking.
        """
        deadline = None if budget is None else time.monotonic() + budget
        parts = []
        for part in independent_parts(residual.net):
            m0 = {p: residual.initial[p] for p in part.places}
            left = None if deadline is None else deadline - time.monotonic()
            try:
                parts.append(oracle_matrix(part, m0, cap=cap, budget=left))
            except NotSafe as unsafe:
                raise NotSafe({**residual.initial, **unsafe.witness}) from None
        return cls._of_parts(tfg, parts)


def _propagate_roots(tfg: TokenFlowGraph, rel2: RootRelation,
                     matrix: ConcurrencyMatrix,
                     stats: Optional[PropagationStats] = None) -> None:
    """Flood every live root, then give each node x in the cone of a live
    root v the union N_v of the cones of the roots concurrent with v.

    Flooding makes the diagonal of every node in a live root's cone 1 and,
    for each redundancy arc out of such a node, relates the nodes
    accumulated before the arc with the arc target's cone.
    """
    index, cones = tfg.index, tfg.cones
    related, _ = rel2.cells.full_rows()
    root_cones = [cones[index[root]] for root in tfg.roots]
    flooded = 0
    for v, cone in enumerate(root_cones):
        if related[v] >> v & 1:
            flooded |= cone
    if stats is not None:
        stats.body_runs += flooded.bit_count()
    rows = [0] * len(tfg.nodes)
    for x in bits(flooded):
        rows[x] |= 1 << x
        succs = 1 << x
        node = tfg.nodes[x]
        for child in tfg.a_group_of.get(node, ()):
            succs |= cones[index[child]]
        for target in tfg.r_targets_of.get(node, ()):
            # the block succs x cone, both halves
            cone = cones[index[target]]
            for i in bits(succs):
                rows[i] |= cone
            for i in bits(cone):
                rows[i] |= succs
            succs |= cone
    # a root related to v is live (`RootRelation` writes its diagonal)
    for v, cone in enumerate(root_cones):
        near = 0
        for w in bits(related[v] & ~(1 << v)):
            near |= root_cones[w]
        if near:
            for x in bits(cone):
                rows[x] |= near
    matrix.add_ones(rows)


def matrix_complete(tfg: TokenFlowGraph, rel2: RootRelation,
                    stats: Optional[PropagationStats] = None) -> ConcurrencyMatrix:
    """Exact concurrency matrix over all graph nodes from a complete root relation.

    Cells start at 0 and only 1s are ever written: each live root floods
    its cone (`TokenFlowGraph.cones`), and the cone of each live root is
    related to the cones of the roots concurrent with it. Restricted to the
    places of the initial net the result equals the true concurrency
    relation.
    """
    if not rel2.complete:
        raise IncompleteRootRelation(
            "complete mode needs a fully decided root relation")
    matrix = ConcurrencyMatrix(tfg.nodes, fill=0)
    _propagate_roots(tfg, rel2, matrix, stats)
    return matrix


def _heads_first(tfg: TokenFlowGraph) -> list[Group]:
    """The groups, each before every group headed by one of its members.

    The R groups come first, by falling rank of their head in `tfg.topo`,
    then the A groups by rising rank. An R group's members rank below its
    head (arcs run member to head) and an A group's above (arcs run head
    to member), so within each half a group headed by a member comes
    later. Across the halves, every A group comes after every R group, and
    no A group has a member heading an R group: that node would be
    removed twice (T3).
    """
    rank = dict(zip(tfg.topo, range(len(tfg.topo))))
    return sorted(tfg.groups, key=lambda group: (
        group.tag == "A", rank[group.head] if group.tag == "A"
        else -rank[group.head]))


def _close_zeros(tfg: TokenFlowGraph, groups: list[Group],
                 ones: list[int], zeros: list[int]) -> list[int]:
    """Symmetric 0-rows `zeros` closed under A1, A4, A5 and A6, never over a
    1 of the symmetric `ones`.

    Each round repeats passes over the rows until they stop changing: A6
    over `groups` in order, A5 in reverse order, then A1. One transpose then
    mirrors the round's 0s. Listing each group before the groups headed by
    its members (`_heads_first`) saves passes; any order gives the same
    rows, the least symmetric ones that the axioms close.
    """
    index, n = tfg.index, len(zeros)
    free = [~row & ((1 << n) - 1) for row in ones]
    zeros = list(zeros)
    # A4 holds unconditionally on safe nets: equation members exclude
    # each other because their sum is bounded by one
    for group in tfg.groups:
        members = [index[m] for m in group.members]
        siblings = sum({1 << m for m in members})
        for m in members:
            zeros[m] |= siblings & ~(1 << m) & free[m]
    rows = [(index[group.head], [index[m] for m in group.members])
            for group in groups]

    def closure_pass() -> bool:
        before = zeros[:]
        for head, members in rows:
            # A6: head nonconcurrent with w, so are the members
            for m in members:
                zeros[m] |= zeros[head] & free[m]
        for head, members in reversed(rows):
            # A5: all members nonconcurrent with w, so is the head
            common = free[head]
            for m in members:
                common &= zeros[m]
            zeros[head] |= common
        for v, row in enumerate(zeros):
            # A1: a dead node is nonconcurrent with everything
            if row >> v & 1:
                zeros[v] = free[v]
        return zeros != before

    # A2 and A3 follow from A1, A5 and A6 (see the module docstring); the
    # rows are symmetric on entry and after each transpose, so a pass that
    # changes nothing there ends the closure
    while closure_pass():
        while closure_pass():
            pass
        zeros = [row | column for row, column in zip(zeros, transpose(zeros, n))]
    return zeros


def matrix_partial(tfg: TokenFlowGraph, rel2: RootRelation) -> ConcurrencyMatrix:
    """Sound partial concurrency matrix from a partial root relation.

    Cells start undecided; the root 0s are seeded, 1-propagation runs
    from the roots known to be live, then the zero-axioms close the node
    rows to a fixpoint, which is unique because axioms only ever turn
    undecided cells into 0.
    """
    matrix = ConcurrencyMatrix(tfg.nodes, fill=UNDECIDED)
    source = [rel2.cells.index.get(node, -1) for node in tfg.nodes]
    matrix.add_zeros(reorder(rel2.cells.full_rows()[1], source))
    _propagate_roots(tfg, rel2, matrix)
    matrix.add_zeros(_close_zeros(tfg, _heads_first(tfg), *matrix.full_rows()))
    return matrix
