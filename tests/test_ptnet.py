"""Firing semantics, reachability exploration, and the oracle matrix."""

import pytest

from coplaces.errors import NotEnabled, NotSafe, UnknownTransition
from coplaces.matrix import UNDECIDED
from coplaces.ptnet import (Marking, PetriNet, explore_reachable,
                            fire_transition, oracle_matrix)


def test_fire_moves_single_token(seq2):
    m = fire_transition(seq2.net, seq2.initial, "t")
    assert m.tokens == {"a": 0, "b": 1}
    # the input marking is untouched
    assert seq2.initial.tokens == {"a": 1, "b": 0}


def test_fire_fork_produces_both_outputs(fork):
    m = fire_transition(fork.net, fork.initial, "t")
    assert m.tokens == {"p0": 0, "p1": 1, "p2": 1}


def test_fire_not_enabled(seq2):
    m = seq2.net.make_marking({"b": 1})
    with pytest.raises(NotEnabled):
        fire_transition(seq2.net, m, "t")


def test_fire_unknown_transition(seq2):
    with pytest.raises(UnknownTransition):
        fire_transition(seq2.net, seq2.initial, "nope")


def test_fire_with_weights_and_counts():
    net = PetriNet(["a", "b"], ["t"], {"t": {"a": 2}}, {"t": {"b": 3}})
    m = fire_transition(net, net.make_marking({"a": 5}), "t")
    assert m.tokens == {"a": 3, "b": 3}


def test_explore_seq2(seq2):
    result = explore_reachable(seq2.net, seq2.initial)
    assert set(result.markings) == {seq2.net.make_marking({"a": 1}),
                                    seq2.net.make_marking({"b": 1})}
    assert result.safe and not result.truncated


def test_explore_fork(fork):
    result = explore_reachable(fork.net, fork.initial)
    assert set(result.markings) == {
        fork.net.make_marking({"p0": 1}),
        fork.net.make_marking({"p1": 1, "p2": 1}),
    }
    assert result.safe and not result.truncated


def test_explore_detects_unsafe_source():
    net = PetriNet(["a"], ["t"], {"t": {}}, {"t": {"a": 1}})
    with pytest.raises(NotSafe) as err:
        explore_reachable(net, net.make_marking())
    assert err.value.witness.tokens == {"a": 2}


def test_explore_rejects_unsafe_initial_marking():
    net = PetriNet(["a"], [], {}, {})
    with pytest.raises(NotSafe):
        explore_reachable(net, Marking({"a": 2}))


def test_explore_cap_truncates(seq2):
    result = explore_reachable(seq2.net, seq2.initial, cap=1)
    assert result.truncated
    assert len(result) == 1


def test_explore_closed_under_firing(safe_net_corpus):
    for doc in safe_net_corpus(31, 40):
        result = explore_reachable(doc.net, doc.initial)
        assert not result.truncated
        for marking in result.markings:
            for t in doc.net.transitions:
                try:
                    successor = fire_transition(doc.net, marking, t)
                except NotEnabled:
                    continue
                assert successor in result
                assert all(n >= 0 for n in successor.tokens.values())


def test_oracle_seq2(seq2):
    C = oracle_matrix(seq2.net, seq2.initial)
    assert C.value("a", "a") == 1
    assert C.value("b", "b") == 1
    assert C.value("a", "b") == 0


def test_oracle_fork(fork):
    C = oracle_matrix(fork.net, fork.initial)
    assert C.value("p1", "p2") == 1
    assert C.value("p0", "p1") == 0
    assert C.value("p0", "p2") == 0
    assert all(C.value(p, p) == 1 for p in fork.net.places)


def test_oracle_worked_example(m1_doc):
    C = oracle_matrix(m1_doc.net, m1_doc.initial)
    # the four places that can all be marked together
    for a in ("p1", "p4", "p5", "p6"):
        for b in ("p1", "p4", "p5", "p6"):
            assert C.value(a, b) == 1, (a, b)
    assert C.value("p1", "p2") == 0
    assert C.value("p3", "p4") == 0
    assert all(C.value("p0", p) == 0 for p in m1_doc.net.places)


def test_oracle_symmetry_and_dead_rows(safe_net_corpus):
    for doc in safe_net_corpus(32, 40):
        C = oracle_matrix(doc.net, doc.initial)
        for p in doc.net.places:
            for q in doc.net.places:
                assert C.value(p, q) == C.value(q, p)
                if C.value(p, p) == 0:
                    assert C.value(p, q) == 0


def test_oracle_truncated_is_partial(seq2):
    C = oracle_matrix(seq2.net, seq2.initial, cap=1)
    assert C.value("a", "a") == 1              # witnessed
    assert C.value("b", "b") == UNDECIDED      # never seen
    assert C.value("a", "b") == UNDECIDED
