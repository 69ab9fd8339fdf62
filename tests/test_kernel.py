"""Complete and partial reconstruction of the concurrency relation."""

import hashlib
import random
import time
from collections import deque

import pytest

from coplaces import kernel
from coplaces.errors import IncompleteRootRelation, InvalidRootRelation
from coplaces.kernel import (PropagationStats, RootRelation, _close_zeros,
                             _heads_first, _propagate_roots, matrix_complete,
                             matrix_partial)
from coplaces.tfg import ConstantNode
from coplaces.formats import NetDocument, write_net_text
from coplaces.matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument,
                             bits, read_matrix, transpose,
                             write_matrix)
from coplaces.ptnet import (DEFAULT_STATE_CAP, PetriNet, independent_parts,
                            oracle_matrix)
from coplaces.reductions import reduce_net
from coplaces.tfg import (build_tfg, parse_equation_system, successors,
                          write_equation_system)


def _fig_rel2(fig_tfg, p6_undecided=False, p0_dead=True):
    cells = ConcurrencyMatrix(fig_tfg.roots, fill=UNDECIDED)
    cells.set_value("a2", "a2", 1)
    if p0_dead:
        cells.set_value("p0", "p0", 0)
    if not p6_undecided:
        cells.set_value("p6", "p6", 1)
        cells.set_value("a2", "p6", 1)
        cells.set_value("p0", "p6", 0)
        cells.set_value("p0", "a2", 0)
    return RootRelation(fig_tfg, cells)


def test_matrix_complete_worked_example(fig_tfg, m1_doc):
    C = matrix_complete(fig_tfg, _fig_rel2(fig_tfg))
    for a in ("p1", "p4", "p5", "p6"):
        for b in ("p1", "p4", "p5", "p6"):
            assert C.value(a, b) == 1
    assert C.value("p1", "p2") == 0
    assert C.value("p3", "p4") == 0
    assert C.restrict(m1_doc.net.places) == oracle_matrix(m1_doc.net,
                                                          m1_doc.initial)


def test_matrix_complete_fully_reduced(seq2):
    result = reduce_net(seq2)
    tfg = build_tfg(result.equations, seq2.net.places,
                    result.residual.net.places)
    # every root is a constant; nothing to feed in from the residual side
    rel2 = RootRelation.from_reduced_matrix(tfg, ConcurrencyMatrix(()))
    C = matrix_complete(tfg, rel2)
    assert C.value("a", "a") == 1
    assert C.value("b", "b") == 1
    assert C.value("a", "b") == 0
    assert C.restrict(seq2.net.places) == oracle_matrix(seq2.net, seq2.initial)


def test_matrix_complete_needs_complete_relation(fig_tfg):
    with pytest.raises(IncompleteRootRelation):
        matrix_complete(fig_tfg, _fig_rel2(fig_tfg, p6_undecided=True))


def test_root_relation_validation(fig_tfg):
    short = ConcurrencyMatrix(("a2",))
    with pytest.raises(InvalidRootRelation):
        RootRelation.from_reduced_matrix(fig_tfg, short)
    cells = ConcurrencyMatrix(fig_tfg.roots, fill=UNDECIDED)
    cells.set_value("p0", "p0", 0)
    cells.set_value("p0", "p6", 1)         # dead yet concurrent
    with pytest.raises(InvalidRootRelation):
        RootRelation(fig_tfg, cells)


def test_propagate_node_trace(fig_tfg):
    def names(mask):
        return {fig_tfg.nodes[i] for i in bits(mask)}

    cone = fig_tfg.cones[fig_tfg.index["a2"]]
    assert names(cone) == {"a2", "p3", "p4", "p5", "a1", "p1", "p2"}
    assert names(fig_tfg.cones[fig_tfg.index["p6"]]) == {"p6"}

    # only a2 live: its cone floods, once per node
    C = ConcurrencyMatrix(fig_tfg.nodes, fill=0)
    stats = PropagationStats()
    _propagate_roots(fig_tfg, _fig_rel2(fig_tfg, p6_undecided=True), C, stats)
    assert stats.body_runs == 7
    assert C.value("p4", "p5") == 1
    assert C.value("p5", "p1") == 1
    assert C.value("p1", "p2") == 0        # siblings never cross
    assert C.value("p6", "p6") == 0

    _propagate_roots(fig_tfg, _fig_rel2(fig_tfg), C)
    assert C.value("p6", "p6") == 1

    before = C.write_count
    _propagate_roots(fig_tfg, _fig_rel2(fig_tfg), C)
    assert C.write_count == before          # idempotent, zero writes


def test_matrix_partial_worked_example(fig_tfg):
    C = matrix_partial(fig_tfg, _fig_rel2(fig_tfg, p6_undecided=True))
    for w in fig_tfg.nodes:
        assert C.value("p0", w) == 0        # dead row spreads everywhere
    assert C.value("p4", "p5") == 1
    assert C.value("p1", "p2") == 0
    for w in ("p1", "p2", "p3", "p4", "p5", "p6"):
        if w != "p6":
            assert C.value(w, "p6") == UNDECIDED
    assert C.value("p6", "p6") == UNDECIDED


def test_matrix_partial_all_unknown(fig_tfg):
    cells = ConcurrencyMatrix(fig_tfg.roots, fill=UNDECIDED)
    C = matrix_partial(fig_tfg, RootRelation(fig_tfg, cells))
    # nothing to propagate: everything except sibling pairs stays open
    assert C.value("p1", "p1") == UNDECIDED
    assert C.value("p1", "p6") == UNDECIDED
    assert C.value("p1", "p2") == 0         # safe-net sibling exclusion


def test_matrix_partial_dead_agglomeration_head():
    system = parse_equation_system("# A |- x = a + b\n")
    tfg = build_tfg(system, ("a", "b"), ("x",))
    cells = ConcurrencyMatrix(tfg.roots, fill=UNDECIDED)
    cells.set_value("x", "x", 0)
    C = matrix_partial(tfg, RootRelation(tfg, cells))
    for a in tfg.nodes:
        for b in tfg.nodes:
            assert C.value(a, b) == 0


def test_matrix_partial_constant_pairing(seq2):
    result = reduce_net(seq2)
    tfg = build_tfg(result.equations, seq2.net.places,
                    result.residual.net.places)
    rel2 = RootRelation.from_reduced_matrix(tfg, ConcurrencyMatrix(()))
    C = matrix_partial(tfg, rel2)
    assert C.restrict(seq2.net.places).complete
    assert C.value("a", "b") == 0
    assert C.value("a", "a") == 1


def _reference_from_reduced_matrix(tfg, reduced):
    """The cell copy `RootRelation.from_reduced_matrix` used to be."""
    place_roots = [r for r in tfg.roots if isinstance(r, str)]
    cells = ConcurrencyMatrix(tfg.roots, fill=UNDECIDED)
    for i, a in enumerate(place_roots):
        for b in place_roots[:i + 1]:
            cells.set_value(a, b, reduced.value(a, b))

    def liveness(root):
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
                if b != k:
                    cells.set_value(k, b, liveness(b))
    return RootRelation(tfg, cells)


def _reference_propagate_node(tfg, matrix, v, memo, stats=None):
    """The memoized flood from `v` that `_propagate_roots` replaced.

    Returns the successor mask of `v`. The diagonal of every successor
    becomes 1, and for every redundancy arc below `v` the nodes
    accumulated before the arc are related to the arc target's cone. A
    node body runs at most once across calls sharing `memo`.
    """
    if v in memo:
        return memo[v]
    # collect the unmemoized cone and process it children-first
    region, seen, stack = [], set(), [v]
    while stack:
        node = stack.pop()
        if node in seen or node in memo:
            continue
        seen.add(node)
        region.append(node)
        stack.extend(tfg.out_children(node))
    rank = {node: k for k, node in enumerate(tfg.topo)}
    region.sort(key=rank.__getitem__, reverse=True)

    for node in region:
        if stats is not None:
            stats.body_runs += 1
        matrix.set_value(node, node, 1)
        succs = 1 << tfg.index[node]
        for child in tfg.a_group_of.get(node, ()):
            succs |= memo[child]
        for target in tfg.r_targets_of.get(node, ()):
            matrix.relate(succs, memo[target])
            succs |= memo[target]
        memo[node] = succs
    return memo[v]


def _reference_propagate_roots(tfg, rel2, matrix, stats=None):
    """The root-pair loop over memoized floods `_propagate_roots` used to be."""
    memo = {}
    live = [r for r in tfg.roots if rel2.cells.value(r, r) == 1]
    cones = {r: _reference_propagate_node(tfg, matrix, r, memo, stats)
             for r in live}
    for i, v in enumerate(live):
        for w in live[:i]:
            if rel2.cells.value(v, w) == 1:
                matrix.relate(cones[v], cones[w])


def _reference_seed(tfg, rel2):
    """The cell-by-cell root seeding `matrix_partial` used to start from."""
    matrix = ConcurrencyMatrix(tfg.nodes, fill=UNDECIDED)
    roots = tfg.roots
    for i, a in enumerate(roots):
        for b in roots[:i + 1]:
            value = rel2.cells.value(a, b)
            if value != UNDECIDED:
                matrix.set_value(a, b, value)
    return matrix


def _member_groups(tfg):
    """The groups each node is a member of, in equation order."""
    groups = {}
    for group in tfg.groups:
        for member in group.members:
            groups.setdefault(member, []).append(group)
    return groups


def _reference_partial(tfg, rel2, rng=None):
    """The cell-worklist zero closure that `matrix_partial` replaced.

    Each decided-zero cell is queued once and runs all six axioms; `rng`,
    when given, pops the queue in a random order.
    """
    matrix = _reference_seed(tfg, rel2)
    roots = tfg.roots
    member_groups = _member_groups(tfg)
    _reference_propagate_roots(tfg, rel2, matrix)

    queue = deque()

    def set_zero(a, b):
        if matrix.value(a, b) == UNDECIDED:
            matrix.set_value(a, b, 0)
            queue.append((a, b))

    for group in tfg.groups:                                    # A4
        for i, a in enumerate(group.members):
            for b in group.members[:i]:
                if a != b:
                    set_zero(a, b)
    for i, a in enumerate(roots):
        for b in roots[:i + 1]:
            if matrix.value(a, b) == 0:
                queue.append((a, b))

    def pop():
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
            for w in tfg.nodes:                                 # A1
                set_zero(a, w)
            for group in tfg.head_groups_of.get(a, ()):         # A3
                for member in group.members:
                    set_zero(member, member)
            for group in member_groups.get(a, ()):              # A2
                if all(matrix.value(m, m) == 0 for m in group.members):
                    set_zero(group.head, group.head)
        else:
            for u, w in ((a, b), (b, a)):
                for group in tfg.head_groups_of.get(u, ()):     # A6
                    for member in group.members:
                        set_zero(member, w)
                for group in member_groups.get(u, ()):          # A5
                    if all(matrix.value(m, w) == 0 for m in group.members):
                        set_zero(group.head, w)
    return matrix


def _random_root_cells(rng, order, related_dead=0.0,
                       values=(0, 1, UNDECIDED)):
    """Random cells over `order` taking `values`; a cell of a node decided
    dead is 1 only with chance `related_dead`."""
    cells = ConcurrencyMatrix(order, fill=UNDECIDED)
    n = len(order)
    for i in range(n):
        cells.set_at(i, i, rng.choice(values))
    for i in range(n):
        for j in range(i):
            dead = 0 in (cells.value_at(i, i), cells.value_at(j, j))
            cells.set_at(i, j, rng.choice(
                tuple(v for v in values if v != 1)
                if dead and rng.random() >= related_dead else values))
    return cells


def _reference_normalize(roots, cells):
    """The cell loops `RootRelation` normalised its cells with before."""
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


def test_root_relation_normalizes_like_cell_loops(tfg_corpus):
    rng = random.Random(5)
    raised = 0
    for tfg in tfg_corpus(72, 200):
        cells = _random_root_cells(rng, tfg.roots, related_dead=0.05)
        rows, reference = cells.copy(), cells.copy()
        try:
            _reference_normalize(tfg.roots, reference)
        except InvalidRootRelation as exc:
            raised += 1
            with pytest.raises(InvalidRootRelation) as err:
                RootRelation(tfg, rows)
            assert str(err.value) == str(exc)
            continue
        assert RootRelation(tfg, rows).cells == reference
        assert rows.write_count == reference.write_count
    assert 0 < raised < 100


def _blanked_relations(safe_net_corpus, tfg_corpus):
    rng = random.Random(13)
    for doc in safe_net_corpus(61, 25):
        result = reduce_net(doc)
        tfg = build_tfg(result.equations, doc.net.places,
                        result.residual.net.places)
        reduced = oracle_matrix(result.residual.net, result.residual.initial)
        masked = reduced.copy()
        for i, a in enumerate(reduced.order):
            for b in reduced.order[:i + 1]:
                if rng.random() < 0.5:
                    masked.set_value(a, b, UNDECIDED)
        yield tfg, RootRelation.from_reduced_matrix(tfg, masked)
    for tfg in tfg_corpus(71, 200):
        yield tfg, RootRelation(tfg, _random_root_cells(rng, tfg.roots))


def test_partial_axioms_confluent(safe_net_corpus, tfg_corpus):
    # the row closure reaches the fixpoint of the cell worklist, whatever
    # order the worklist pops its cells in, with the same effective writes
    for tfg, rel2 in _blanked_relations(safe_net_corpus, tfg_corpus):
        rows = matrix_partial(tfg, rel2)
        for shuffle in (None, *(random.Random(1000 + k) for k in range(4))):
            cells = _reference_partial(tfg, rel2, shuffle)
            assert rows == cells
            assert rows.write_count == cells.write_count


def _reference_row_closure(tfg, rel2):
    """The pending-node zero closure `matrix_partial` ran before the rounds.

    Each new 0 of row v is mirrored into row w one bit at a time, and every
    node whose row grew runs A1, A6 and A5 again. Also returns how many
    derived 0s met a 1 (and were dropped).
    """
    matrix = ConcurrencyMatrix(tfg.nodes, fill=UNDECIDED)
    matrix.add_zeros(_reference_seed(tfg, rel2).full_rows()[1])
    _propagate_roots(tfg, rel2, matrix)

    ones, zeros = matrix.full_rows()
    pending = {v for v, row in enumerate(zeros) if row}
    index, everything = tfg.index, (1 << len(tfg.nodes)) - 1
    member_groups = _member_groups(tfg)
    met = 0

    def add_zeros(v, mask):
        nonlocal met
        met += bool(mask & ones[v])
        new = mask & ~(ones[v] | zeros[v])
        if new:
            zeros[v] |= new
            pending.add(v)
            for w in bits(new):
                zeros[w] |= 1 << v
                pending.add(w)

    for group in tfg.groups:                                    # A4
        members = [index[m] for m in group.members]
        siblings = sum({1 << m for m in members})
        for m in members:
            add_zeros(m, siblings & ~(1 << m))
    while pending:
        v = pending.pop()
        node = tfg.nodes[v]
        if zeros[v] >> v & 1:                                   # A1
            add_zeros(v, everything)
        for group in tfg.head_groups_of.get(node, ()):          # A6
            for member in group.members:
                add_zeros(index[member], zeros[v])
        for group in member_groups.get(node, ()):               # A5
            common = everything
            for member in group.members:
                common &= zeros[index[member]]
            add_zeros(index[group.head], common)
    matrix.add_zeros(zeros)
    return matrix, met


def _closure_cases(safe_net_corpus, tfg_corpus):
    """The blanked relations, then 500 random ones over random graphs."""
    yield from _blanked_relations(safe_net_corpus, tfg_corpus)
    rng = random.Random(31)
    for tfg in tfg_corpus(75, 250):
        for values in ((0, 1, UNDECIDED), (1, UNDECIDED, UNDECIDED)):
            yield tfg, RootRelation(tfg, _random_root_cells(
                rng, tfg.roots, values=values))


def test_zero_closure_matches_pending_rows(safe_net_corpus, tfg_corpus):
    cases = met = 0
    for tfg, rel2 in _closure_cases(safe_net_corpus, tfg_corpus):
        rows = matrix_partial(tfg, rel2)
        reference, dropped = _reference_row_closure(tfg, rel2)
        assert rows == reference
        assert rows.write_count == reference.write_count
        cases += 1
        met += dropped > 0
    assert cases >= 700 and met >= 50


def test_zero_closure_ignores_group_order(safe_net_corpus, tfg_corpus):
    rng = random.Random(37)
    for tfg, rel2 in _closure_cases(safe_net_corpus, tfg_corpus):
        # the rows the closure starts from: root 0s and propagated 1s
        seeded = _reference_seed(tfg, rel2)
        _reference_propagate_roots(tfg, rel2, seeded)
        heads_first = _heads_first(tfg)
        shuffled = list(tfg.groups)
        rng.shuffle(shuffled)
        expected = matrix_partial(tfg, rel2)
        for order in (heads_first, heads_first[::-1], list(tfg.groups),
                      shuffled):
            matrix = seeded.copy()
            matrix.add_zeros(_close_zeros(tfg, order, *seeded.full_rows()))
            assert matrix == expected


def _reference_heads_first(tfg):
    """The Kahn walk over head-to-member arcs that `_heads_first` replaced."""
    member_groups = _member_groups(tfg)
    waiting = {group: len(member_groups.get(group.head, ()))
               for group in tfg.groups}
    ready = [group for group, count in waiting.items() if not count]
    order = []
    while ready:
        group = ready.pop()
        order.append(group)
        for member in group.members:
            for below in tfg.head_groups_of.get(member, ()):
                waiting[below] -= 1
                if not waiting[below]:
                    ready.append(below)
    return order


def test_heads_first_sort_needs_no_more_rounds_than_kahn(
        monkeypatch, safe_net_corpus, tfg_corpus):
    calls = [0]

    def counted(rows, width):
        calls[0] += 1
        return transpose(rows, width)

    monkeypatch.setattr(kernel, "transpose", counted)
    cases = 0
    for tfg, rel2 in _closure_cases(safe_net_corpus, tfg_corpus):
        seeded = _reference_seed(tfg, rel2)
        _reference_propagate_roots(tfg, rel2, seeded)
        results = []
        for order in (_heads_first(tfg), _reference_heads_first(tfg)):
            calls[0] = 0
            results.append((_close_zeros(tfg, order, *seeded.full_rows()),
                            calls[0]))
        (sorted_rows, sorted_rounds), (kahn_rows, kahn_rounds) = results
        assert sorted_rows == kahn_rows
        assert sorted_rounds <= kahn_rounds
        cases += 1
    assert cases >= 700


def test_heads_first_order(tfg_corpus):
    for tfg in tfg_corpus(76, 200):
        order = _heads_first(tfg)
        assert sorted(map(tfg.groups.index, order)) == list(range(len(tfg.groups)))
        rank = {group: k for k, group in enumerate(order)}
        for group in order:
            for member in group.members:
                for below in tfg.head_groups_of.get(member, ()):
                    assert rank[group] < rank[below]


def _shuffled(matrix, rng):
    """`matrix`'s cells over a shuffled node order."""
    order = list(matrix.order)
    rng.shuffle(order)
    moved = ConcurrencyMatrix(order, fill=UNDECIDED)
    for i, a in enumerate(order):
        for b in order[:i + 1]:
            moved.set_value(a, b, matrix.value(a, b))
    return moved


def _reduced_matrices(safe_net_corpus, tfg_corpus):
    """Graphs with a place matrix over their place roots, in shuffled order:
    the residual's exact and half-blanked relation, or random cells."""
    rng = random.Random(17)
    for doc in safe_net_corpus(64, 40):
        result = reduce_net(doc)
        tfg = build_tfg(result.equations, doc.net.places,
                        result.residual.net.places)
        reduced = oracle_matrix(result.residual.net, result.residual.initial)
        masked = reduced.copy()
        for i in range(masked.size):
            for j in range(i):
                if rng.random() < 0.5:
                    masked.set_at(i, j, UNDECIDED)
        yield tfg, _shuffled(reduced, rng)
        yield tfg, _shuffled(masked, rng)
    for tfg in tfg_corpus(73, 200):
        places = [r for r in tfg.roots if isinstance(r, str)]
        rng.shuffle(places)
        yield tfg, _random_root_cells(rng, places, related_dead=0.3)


def test_from_reduced_matrix_matches_cell_copy(safe_net_corpus, tfg_corpus):
    raised = moved = 0
    for tfg, reduced in _reduced_matrices(safe_net_corpus, tfg_corpus):
        places = tuple(r for r in tfg.roots if isinstance(r, str))
        moved += reduced.order != places
        try:
            reference = _reference_from_reduced_matrix(tfg, reduced)
        except InvalidRootRelation as exc:
            raised += 1
            with pytest.raises(InvalidRootRelation) as err:
                RootRelation.from_reduced_matrix(tfg, reduced)
            assert str(err.value) == str(exc)
            continue
        rel2 = RootRelation.from_reduced_matrix(tfg, reduced)
        assert rel2.cells == reference.cells
        assert rel2.cells.write_count == reference.cells.write_count
    assert 0 < raised < 100 and moved > 50


def test_propagate_roots_matches_pair_loop(safe_net_corpus, tfg_corpus):
    rng = random.Random(19)
    complete = [(tfg, RootRelation(tfg, _random_root_cells(
        rng, tfg.roots, values=(0, 1)))) for tfg in tfg_corpus(74, 100)]
    for tfg, rel2 in [*_blanked_relations(safe_net_corpus, tfg_corpus),
                      *complete]:
        for fill in (UNDECIDED, 0):
            rows = ConcurrencyMatrix(tfg.nodes, fill=fill)
            pairs = ConcurrencyMatrix(tfg.nodes, fill=fill)
            row_stats, pair_stats = PropagationStats(), PropagationStats()
            _propagate_roots(tfg, rel2, rows, row_stats)
            _reference_propagate_roots(tfg, rel2, pairs, pair_stats)
            assert rows == pairs
            assert rows.write_count == pairs.write_count
            assert row_stats == pair_stats
        if rel2.complete:
            complete = matrix_complete(tfg, rel2)
            assert complete == pairs
            assert complete.write_count == pairs.write_count


def test_partial_accuracy_contract(safe_net_corpus):
    # whenever every root ancestor of two places has a decided diagonal
    # and every cross pair of those ancestors is decided too, the cell of
    # the two places must come out decided (the completeness side of the
    # partial algorithm; the single-ancestor phrasing is too weak once a
    # redundancy node has several root ancestors)
    rng = random.Random(4242)
    for doc in safe_net_corpus(63, 120):
        result = reduce_net(doc)
        tfg = build_tfg(result.equations, doc.net.places,
                        result.residual.net.places)
        reduced = oracle_matrix(result.residual.net, result.residual.initial)
        masked = reduced.copy()
        for i, a in enumerate(reduced.order):
            for b in reduced.order[:i + 1]:
                if rng.random() < 0.5:
                    masked.set_value(a, b, UNDECIDED)
        rel2 = RootRelation.from_reduced_matrix(tfg, masked)
        C = matrix_partial(tfg, rel2)

        ancestors = {}
        for root in tfg.roots:
            for node in successors(tfg, root):
                ancestors.setdefault(node, []).append(root)
        for p in doc.net.places:
            for q in doc.net.places:
                roots_p, roots_q = ancestors.get(p, []), ancestors.get(q, [])
                decided = (
                    all(rel2.cells.value(a, a) != UNDECIDED
                        for a in roots_p + roots_q)
                    and all(rel2.cells.value(a, b) != UNDECIDED
                            for a in roots_p for b in roots_q))
                if decided:
                    assert C.value(p, q) != UNDECIDED, (p, q)


def test_live_nodes_propagate(safe_net_corpus):
    for doc in safe_net_corpus(62, 40):
        result = reduce_net(doc)
        tfg = build_tfg(result.equations, doc.net.places,
                        result.residual.net.places)
        rel2 = RootRelation.exact(tfg, result.residual)
        C = matrix_complete(tfg, rel2)
        for v in tfg.nodes:
            if C.value(v, v) == 1:
                for w in successors(tfg, v):
                    assert C.value(w, w) == 1


def test_stats_and_write_bounds(fig_tfg):
    stats = PropagationStats()
    C = matrix_complete(fig_tfg, _fig_rel2(fig_tfg), stats)
    not_dead = sum(1 for v in fig_tfg.nodes if C.value(v, v) == 1)
    n = len(fig_tfg.nodes)
    assert stats.body_runs <= not_dead
    assert C.write_count <= n * (n + 1) // 2


def _wide_inputs(n, rng):
    """A graph over n residual places, each with a duplicate, the residual
    order shuffled, and a place matrix relating 70% of the place pairs,
    complete and with half of its off-diagonal cells blank."""
    system = parse_equation_system(
        "".join(f"# R |- d{i} = p{i}\n" for i in range(n)))
    residual = [f"p{i}" for i in range(n)]
    rng.shuffle(residual)
    tfg = build_tfg(system, (*(f"p{i}" for i in range(n)),
                             *(f"d{i}" for i in range(n))), tuple(residual))
    rows = ["".join("1" if j == i or rng.random() < 0.7 else "0"
                    for j in range(i + 1)) for i in range(n)]
    blank = ["".join(c if j == i or rng.random() < 0.5 else "."
                     for j, c in enumerate(row)) for i, row in enumerate(rows)]
    return tfg, *(read_matrix("\n".join([str(n), *residual, *cells]) + "\n")
                  for cells in (rows, blank))


def test_root_rows_cost_at_a_thousand_roots():
    # the root relation and both kernels work on whole rows: one pair loop
    # over the roots, or a bit-by-bit transpose, takes several times this
    tfg, full, half = _wide_inputs(1000, random.Random(29))
    start = time.perf_counter()
    complete = matrix_complete(tfg, RootRelation.from_reduced_matrix(tfg, full))
    partial = matrix_partial(tfg, RootRelation.from_reduced_matrix(tfg, half))
    assert time.perf_counter() - start < 3.0
    assert complete.complete and complete.value("d7", "p7") == 1
    assert partial.value("d7", "d7") == 1


def test_partial_matrix_write_cost_at_two_thousand_roots():
    # each row is written as whole-row text: a loop over its undecided
    # cells takes several times this
    tfg, _, half = _wide_inputs(2000, random.Random(41))
    matrix = matrix_partial(tfg, RootRelation.from_reduced_matrix(tfg, half))
    places = tuple(v for v in tfg.nodes if isinstance(v, str))
    document = MatrixDocument(places, matrix.restrict(places))
    start = time.perf_counter()
    text = write_matrix(document)
    assert time.perf_counter() - start < 0.5
    assert text.count(".") > 1_000_000


def _disjoint_union(docs, rng):
    """One net made of renamed copies of `docs`, with the places and the
    transitions of the copies shuffled together."""
    places, transitions, pre, post, marking = [], [], {}, {}, {}
    for k, doc in enumerate(docs):
        name = f"u{k}_{{}}".format
        places += [name(p) for p in doc.net.places]
        transitions += [name(t) for t in doc.net.transitions]
        for flow, arcs in ((pre, doc.net.pre), (post, doc.net.post)):
            flow.update({name(t): {name(p): w for p, w in arcs[t].items()}
                         for t in doc.net.transitions})
        marking.update({name(p): n for p, n in doc.initial.items()})
    rng.shuffle(places)
    rng.shuffle(transitions)
    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


def _split_cases(safe_net_corpus):
    """Reduced corpus nets, then disjoint unions of two or three of them."""
    corpus = safe_net_corpus(2024, 500)
    rng = random.Random(8)
    unions = [_disjoint_union(rng.sample(corpus, rng.randint(2, 3)), rng)
              for _ in range(150)]
    for doc in corpus + unions:
        result = reduce_net(doc)
        yield (build_tfg(result.equations, doc.net.places,
                         result.residual.net.places), result.residual)


def _reference_exact(tfg, residual, cap=None):
    """`RootRelation.exact` as it was before the parts and the constants
    shared one product rule: the explored parts make one place matrix,
    which the cell copy then extends to the constants."""
    order, ones, zeros, spans = [], [], [], []
    for part in independent_parts(residual.net):
        m0 = {p: residual.initial[p] for p in part.places}
        matrix = oracle_matrix(part, m0, cap=cap or DEFAULT_STATE_CAP)
        shift, width = len(order), len(part.places)
        part_ones, part_zeros = matrix.full_rows()
        order.extend(part.places)
        ones.extend(row << shift for row in part_ones)
        zeros.extend(row << shift for row in part_zeros)
        spans.extend([((1 << width) - 1) << shift] * width)
    live = sum(1 << i for i, row in enumerate(ones) if row >> i & 1)
    for i, span in enumerate(spans):
        if live >> i & 1:
            ones[i] |= live & ~span
    matrix = ConcurrencyMatrix(order, fill=UNDECIDED)
    matrix.add_ones(ones)
    matrix.add_zeros(zeros)
    return _reference_from_reduced_matrix(tfg, matrix)


def test_exact_by_parts_matches_whole_net(safe_net_corpus):
    split = zero_constants = one_constants = 0
    for tfg, residual in _split_cases(safe_net_corpus):
        values = {root.value for root in tfg.roots
                  if isinstance(root, ConstantNode)}
        zero_constants += 0 in values
        one_constants += 1 in values
        whole = oracle_matrix(residual.net, residual.initial)
        reference = _reference_from_reduced_matrix(tfg, whole)
        parts = independent_parts(residual.net)
        split += sum(len(part.transitions) > 0 for part in parts) >= 2
        true_ones, true_zeros = reference.cells.full_rows()
        for cap in (None, 1, 2, 3, 5):
            limit = {} if cap is None else {"cap": cap}
            cells = RootRelation.exact(tfg, residual, **limit).cells
            assert cells == _reference_exact(tfg, residual, cap).cells, cap
            if cap is None:
                assert cells == reference.cells
                continue
            # sound at small caps, and here never less decided than one
            # exploration of the whole net under the same cap
            ones, zeros = cells.full_rows()
            assert not any(o & z for o, z in zip(ones, true_zeros)), cap
            assert not any(z & o for z, o in zip(zeros, true_ones)), cap
            capped = _reference_from_reduced_matrix(tfg, oracle_matrix(
                residual.net, residual.initial, cap=cap)).cells.full_rows()
            assert not any((o | z) & ~(a | b) for o, z, a, b
                           in zip(*capped, ones, zeros)), cap
    assert split >= 100
    assert zero_constants >= 300 and one_constants >= 300


# sha256 over the pipeline outputs of the seed-2024 corpus, computed with
# the reference implementation; any refactor must reproduce it exactly
GOLDEN_CORPUS_DIGEST = (
    "d4a1d1c2c6a89d7a05af415db96db23f7c98e1cb45ab0ddac4b1476b76ed733e")


def test_golden_corpus_digest(safe_net_corpus):
    digest = hashlib.sha256()

    def feed(text):
        digest.update(text.encode("utf-8") + b"\0")

    rng = random.Random(2024)
    for doc in safe_net_corpus(2024, 500):
        result = reduce_net(doc)
        places = doc.net.places
        feed(write_net_text(result.residual))
        feed(write_equation_system(result.equations))
        tfg = build_tfg(result.equations, places, result.residual.net.places)
        for sequence in (tfg.warnings, tfg.nodes, tfg.roots, tfg.topo):
            feed(repr(sequence))

        reduced = oracle_matrix(result.residual.net, result.residual.initial)
        complete = matrix_complete(tfg, RootRelation.from_reduced_matrix(
            tfg, reduced))
        feed("\n".join(complete.row_symbols(i) for i in range(complete.size)))

        masked = reduced.copy()
        for i, a in enumerate(reduced.order):
            for b in reduced.order[:i + 1]:
                if rng.random() < 0.5:
                    masked.set_value(a, b, UNDECIDED)
        partial = matrix_partial(tfg, RootRelation.from_reduced_matrix(
            tfg, masked))
        feed(write_matrix(MatrixDocument(places, partial.restrict(places),
                                         "rle")))
    assert digest.hexdigest() == GOLDEN_CORPUS_DIGEST
