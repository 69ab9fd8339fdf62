"""Firing semantics, reachability exploration, and the oracle matrix."""

import random

import pytest

from coplaces.errors import NotEnabled, NotSafe, UnknownTransition
from coplaces.formats import parse_net_text
from coplaces.matrix import UNDECIDED, ConcurrencyMatrix
from coplaces.ptnet import (DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET, PetriNet,
                            explore_reachable, fire_transition,
                            independent_parts, oracle_matrix)
from test_kernel import _relate


def test_fire_moves_single_token(seq2):
    m = fire_transition(seq2.net, seq2.initial, "t")
    assert m == {"a": 0, "b": 1}
    # the input marking is untouched
    assert seq2.initial == {"a": 1, "b": 0}


def test_fire_fork_produces_both_outputs(fork):
    m = fire_transition(fork.net, fork.initial, "t")
    assert m == {"p0": 0, "p1": 1, "p2": 1}


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
    assert m == {"a": 3, "b": 3}


def test_explore_seq2(seq2):
    result = explore_reachable(seq2.net, seq2.initial)
    assert result.markings == (seq2.net.make_marking({"a": 1}),
                               seq2.net.make_marking({"b": 1}))
    assert not result.truncated


def test_explore_fork(fork):
    result = explore_reachable(fork.net, fork.initial)
    assert result.markings == (
        fork.net.make_marking({"p0": 1}),
        fork.net.make_marking({"p1": 1, "p2": 1}),
    )
    assert not result.truncated


def test_explore_detects_unsafe_source():
    net = PetriNet(["a"], ["t"], {"t": {}}, {"t": {"a": 1}})
    with pytest.raises(NotSafe) as err:
        explore_reachable(net, net.make_marking())
    assert err.value.witness == {"a": 2}


def test_explore_rejects_unsafe_initial_marking():
    net = PetriNet(["a"], [], {}, {})
    with pytest.raises(NotSafe):
        explore_reachable(net, {"a": 2})


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
                assert all(n >= 0 for n in successor.values())


def test_membership_tests_masks(fork, safe_net_corpus):
    result = explore_reachable(fork.net, fork.initial)
    assert {"p0": 1, "p1": 0, "p2": 0} in result
    assert {"p0": 0, "p1": 1, "p2": 0} not in result      # never reached
    assert {"p0": 1} not in result                        # not total
    assert {"p0": 1, "p1": 0, "p2": 0, "q": 0} not in result
    assert {"p0": 2, "p1": 0, "p2": 0} not in result
    # the same answers as a scan of the explored markings
    for doc in safe_net_corpus(31, 40):
        result = explore_reachable(doc.net, doc.initial)
        places = doc.net.places
        for mask in range(1 << len(places)):
            marking = {p: mask >> i & 1 for i, p in enumerate(places)}
            assert (marking in result) == (marking in result.markings)


def test_independent_parts():
    doc = parse_net_text("pl a 1\npl b\npl c\npl d 1\npl e\npl f\n"
                         "tr t : a -> c\ntr u : d -> e\ntr v : c -> a\n"
                         "tr w : ->\ntr x : e -> d f\n")
    parts = independent_parts(doc.net)
    assert [(part.places, part.transitions) for part in parts] == [
        (("a", "c"), ("t", "v")), (("b",), ()),
        (("d", "e", "f"), ("u", "x"))]
    assert parts[2].post["x"] == {"d": 1, "f": 1}


def _reference_masks(net, m0):
    """Breadth-first closure by `fire_transition`, transitions in net order.

    Returns the markings as masks (bit i: token in place i), in discovery
    order.
    """
    def mask(marking):
        return sum(marking[p] << i for i, p in enumerate(net.places))

    order = [m0]
    seen = {mask(m0)}
    for marking in order:
        for t in net.transitions:
            try:
                successor = fire_transition(net, marking, t)
            except NotEnabled:
                continue
            key = mask(successor)
            if key not in seen:
                seen.add(key)
                order.append(successor)
    return [mask(m) for m in order]


# three independent two-way choices: 27 states whose discovery order tells
# breadth-first from any other walk
_CHOICES = "".join(f"pl a{k} 1\npl b{k}\npl c{k}\n"
                   f"tr x{k} : a{k} -> b{k}\ntr y{k} : a{k} -> c{k}\n"
                   f"tr w{k} : b{k} -> a{k}\ntr v{k} : c{k} -> a{k}\n"
                   for k in range(3))


def test_explore_matches_reference_order_and_cap(safe_net_corpus, m1_doc):
    docs = safe_net_corpus(31, 40) + [m1_doc, parse_net_text(_CHOICES)]
    for doc in docs:
        reference = _reference_masks(doc.net, doc.initial)
        result = explore_reachable(doc.net, doc.initial)
        assert result.masks == reference and not result.truncated
        for cap in range(1, len(reference)):
            result = explore_reachable(doc.net, doc.initial, cap=cap)
            assert result.masks == reference[:cap] and result.truncated
    assert len(reference) == 27             # the last net, _CHOICES


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


def _reference_oracle_matrix(net, m0, cap=DEFAULT_STATE_CAP,
                             budget=DEFAULT_TIME_BUDGET):
    """The oracle that wrote each marking's block through `relate`."""
    result = explore_reachable(net, m0, cap=cap, budget=budget)
    fill = UNDECIDED if result.truncated else 0
    matrix = ConcurrencyMatrix(net.places, fill=fill)
    for mask in result.masks:
        _relate(matrix, mask, mask)
    return matrix


def test_oracle_fill_matches_the_relate_fill(safe_net_corpus, m1_doc):
    docs = (safe_net_corpus(31, 300) + safe_net_corpus(32, 300)
            + [m1_doc, parse_net_text(_CHOICES)])
    for doc in docs:
        full = len(explore_reachable(doc.net, doc.initial))
        for cap in range(1, full + 1):
            matrix = oracle_matrix(doc.net, doc.initial, cap=cap)
            reference = _reference_oracle_matrix(doc.net, doc.initial, cap=cap)
            assert matrix == reference
            assert matrix.write_count == reference.write_count
        assert matrix.complete


def test_double_weight_transition_never_fires():
    doc = parse_net_text("pl p 1\npl q\ntr t : p*2 -> q\n")
    assert explore_reachable(doc.net, doc.initial).masks == [0b01]
    C = oracle_matrix(doc.net, doc.initial)
    assert (C.value("q", "p"), C.value("q", "q")) == (0, 0)


def test_spent_budget_keeps_the_initial_marking(seq2):
    result = explore_reachable(seq2.net, seq2.initial, budget=-1)
    assert result.truncated
    assert result.markings == (seq2.initial,)


def _reference_witness(net, m0):
    """The first unsafe successor of the breadth-first walk over masks,
    each place's count rebuilt by hand from the pre- and post-sets, or
    None when the net is safe."""
    masks = [sum(m0[p] << i for i, p in enumerate(net.places))]
    seen = set(masks)
    for mask in masks:
        for t in net.transitions:
            pre, post = net.pre[t], net.post[t]
            if any(w >= 2 for w in pre.values()) or not all(
                    mask >> net.place_index(p) & 1 for p in pre):
                continue
            successor = {p: (mask >> i & 1) - pre.get(p, 0) + post.get(p, 0)
                         for i, p in enumerate(net.places)}
            if any(n >= 2 for n in successor.values()):
                return successor
            new = sum(n << i for i, n in enumerate(successor.values()))
            if new not in seen:
                seen.add(new)
                masks.append(new)
    return None


def _random_weighted_net(rng):
    places = rng.sample("uvwxyz", rng.randint(1, 6))    # not sorted
    transitions = [f"t{k}" for k in range(rng.randint(1, 6))]
    pre = {t: {p: rng.choice((1, 1, 1, 2))
               for p in rng.sample(places, rng.randint(0, min(2, len(places))))}
           for t in transitions}
    post = {t: {p: rng.choice((1, 1, 1, 2))
                for p in rng.sample(places, rng.randint(0, min(2, len(places))))}
            for t in transitions}
    net = PetriNet(places, transitions, pre, post)
    return net, {p: rng.randint(0, 1) for p in places}


def test_unsafety_witness_matches_the_hand_built_successor():
    rng = random.Random(24)
    unsafe = 0
    for _ in range(3000):
        net, m0 = _random_weighted_net(rng)
        reference = _reference_witness(net, m0)
        if reference is None:
            assert not explore_reachable(net, m0).truncated
            continue
        unsafe += 1
        with pytest.raises(NotSafe) as err:
            explore_reachable(net, m0)
        assert list(err.value.witness.items()) == list(reference.items())
        assert str(err.value) == str(NotSafe(reference))
    assert unsafe >= 1000
