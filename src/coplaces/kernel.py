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

The partial mode is two runs of the complete mode. Its 1s come from the
run on the known 1s of the root relation, and its 0s are the cells that
the run on the upper relation, which reads every undecided root cell as 1,
leaves at 0. Restricted to the initial places, both are sound:

* the true root relation lies between the known 1s and the upper relation;
* a run only ORs, so it is monotone in the relation;
* on the true relation, a run is exact on the initial places.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import (IncompleteRootRelation, InvalidRootRelation, NotSafe,
                     shown, shown_nodes)
from .formats import NetDocument
from .matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument, Record,
                     bits, reorder)
from .ptnet import (DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET,
                    independent_parts, oracle_matrix)
from .tfg import ConstantNode, TokenFlowGraph


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


def _propagate_roots(tfg: TokenFlowGraph, related: list[int],
                     stats: Optional[PropagationStats] = None) -> list[int]:
    """The node rows of 1s that the root rows of 1s `related` imply: flood
    every live root, then give each node x in the cone of a live root v the
    union N_v of the cones of the roots concurrent with v.

    Flooding makes the diagonal of every node in a live root's cone 1 and,
    for each redundancy arc out of such a node, relates the nodes
    accumulated before the arc with the arc target's cone. A root related
    to another must have its diagonal set, as `RootRelation` makes it.
    """
    index, cones = tfg.index, tfg.cones
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
    for v, cone in enumerate(root_cones):
        near = 0
        for w in bits(related[v] & ~(1 << v)):
            near |= root_cones[w]
        if near:
            for x in bits(cone):
                rows[x] |= near
    return rows


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
    matrix.add_ones(_propagate_roots(tfg, rel2.cells.full_rows()[0], stats))
    return matrix


def matrix_partial(tfg: TokenFlowGraph, rel2: RootRelation) -> ConcurrencyMatrix:
    """Sound partial concurrency matrix from a partial root relation.

    Cells start undecided. The 1s are the complete mode's on the known root
    1s, the 0s the cells it leaves at 0 on the upper relation, which reads
    each undecided root cell as 1; a decided root 0 stays 0 there, since
    no root lies in the cone of another. On a complete relation this is
    `matrix_complete`, cell for cell.
    """
    ones, zeros = rel2.cells.full_rows()
    roots, nodes = (1 << len(ones)) - 1, (1 << len(tfg.nodes)) - 1
    matrix = ConcurrencyMatrix(tfg.nodes, fill=UNDECIDED)
    matrix.add_ones(_propagate_roots(tfg, ones))
    upper = _propagate_roots(tfg, [roots & ~row for row in zeros])
    matrix.add_zeros([nodes & ~row for row in upper])
    return matrix
