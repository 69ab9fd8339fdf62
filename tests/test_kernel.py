"""Complete and partial reconstruction of the concurrency relation."""

import hashlib
import random

import pytest

from coplaces.errors import IncompleteRootRelation, InvalidRootRelation
from coplaces.kernel import (PropagationStats, RootRelation, matrix_complete,
                             matrix_partial, propagate_node)
from coplaces.formats import write_net_text
from coplaces.matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument,
                             write_matrix)
from coplaces.ptnet import oracle_matrix
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
    C = ConcurrencyMatrix(fig_tfg.nodes, fill=0)
    memo = {}
    cone = propagate_node(fig_tfg, C, "a2", memo)
    assert cone == {"a2", "p3", "p4", "p5", "a1", "p1", "p2"}
    assert C.value("p4", "p5") == 1
    assert C.value("p5", "p1") == 1
    assert C.value("p1", "p2") == 0        # siblings never cross

    assert propagate_node(fig_tfg, C, "p6", memo) == {"p6"}
    assert C.value("p6", "p6") == 1

    before = C.write_count
    assert propagate_node(fig_tfg, C, "a2", memo) == cone
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


def test_partial_axioms_confluent(safe_net_corpus):
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
        rel2 = RootRelation.from_reduced_matrix(tfg, masked)
        reference = matrix_partial(tfg, rel2)
        for attempt in range(4):
            shuffled = matrix_partial(tfg, rel2,
                                      rng=random.Random(1000 + attempt))
            assert shuffled == reference


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
                    all(rel2.value(a, a) != UNDECIDED
                        for a in roots_p + roots_q)
                    and all(rel2.value(a, b) != UNDECIDED
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
