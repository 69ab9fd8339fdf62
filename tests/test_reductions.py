"""The three reduction rules, their equation trail, and the ratio."""

import random
import time
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Optional

from coplaces.formats import NetDocument, parse_net_text, write_net_text
from coplaces.kernel import RootRelation, matrix_complete
from coplaces.ptnet import PetriNet, oracle_matrix
from coplaces.reductions import ReductionResult, _ratio, reduce_net
from coplaces.tfg import (Equation, EquationSystem, build_tfg,
                          write_equation_system)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# resists all three rules: the fork shape blocks chains, the self-loop on
# p1 breaks the p1/p2 symmetry, and no place has a constant column
IRREDUCIBLE = "pl p0 1\npl p1\npl p2\npl p3\n" \
              "tr t : p0 -> p1 p2\ntr u : p1 p2 -> p3\ntr x : p1 -> p1\n"


def test_seq2_fully_reduced(seq2):
    result = reduce_net(seq2)
    assert write_equation_system(result.equations) == \
        "# A |- a1 = a + b\n# R |- a1 = 1\n"
    assert result.residual.net.places == ()
    assert result.ratio == Fraction(1)


def test_worked_example_reduction(m1_doc):
    result = reduce_net(m1_doc)
    assert write_equation_system(result.equations) == (
        "# R |- p5 = p4\n"
        "# A |- a1 = p1 + p2\n"
        "# R |- a1 = 1\n"
        "# A |- a2 = p3 + p4\n"
        "# R |- a2 = 1\n")
    assert result.residual.net.places == ("p0", "p6")
    assert result.ratio == Fraction(5, 7)


def test_duplicate_pair_rule():
    doc = parse_net_text("pl p\npl q\ntr t : p q -> p q\n")
    result = reduce_net(doc)
    assert write_equation_system(result.equations) == "# R |- q = p\n"
    assert result.ratio == Fraction(1, 2)
    assert result.residual.net.places == ("p",)


def test_constant_rule_keeps_blocked_self_loops():
    # the self-loop weight exceeds the marking, so dropping the place
    # would wrongly enable t; the rule must not fire
    doc = parse_net_text("pl p\ntr t : p -> p\n")
    result = reduce_net(doc)
    assert len(result.equations) == 0
    # with a token the loop is neutral and the place is constant
    doc = parse_net_text("pl p 1\ntr t : p -> p\n")
    result = reduce_net(doc)
    assert write_equation_system(result.equations) == "# R |- p = 1\n"


def test_identity_reduction():
    doc = parse_net_text(IRREDUCIBLE)
    result = reduce_net(doc)
    assert len(result.equations) == 0
    assert result.residual == doc
    assert result.ratio == Fraction(0)


def test_identity_result_of_fork_has_ratio_zero(fork):
    result = ReductionResult(fork, fork, EquationSystem([]), Fraction(0))
    assert result.ratio == Fraction(0)


def test_reduction_is_deterministic(m1_doc):
    first = reduce_net(m1_doc)
    second = reduce_net(m1_doc)
    assert write_equation_system(first.equations) == \
        write_equation_system(second.equations)
    assert first.residual == second.residual


def test_residual_nets_stay_safe(safe_net_corpus):
    for doc in safe_net_corpus(41, 60):
        result = reduce_net(doc)
        # the oracle raises NotSafe if a rule broke 1-boundedness
        oracle_matrix(result.residual.net, result.residual.initial)
        removed = set(doc.net.places) - set(result.residual.net.places)
        recorded = {n for eq in result.equations for n in eq.removed()
                    if isinstance(n, str) and n in doc.net.places}
        assert removed <= recorded


# -- differential reference: the reducer that scanned the whole net ----------

class _WholeNetReducer:
    """The reducer before per-pass columns, kept as the reference.

    Every rule scans every transition, and the duplicate rule compares the
    dense columns of all place pairs; the output defines the residual net,
    the equation trail and the ratio that `reduce_net` must reproduce.
    """

    def __init__(self, doc: NetDocument):
        self.places = list(doc.net.places)
        self.transitions = list(doc.net.transitions)
        self.marking = dict(doc.initial)
        self.pre = {t: dict(doc.net.pre[t]) for t in self.transitions}
        self.post = {t: dict(doc.net.post[t]) for t in self.transitions}
        self.equations: list[Equation] = []
        self.used_names = set(doc.net.places) | set(doc.net.transitions)
        self._fresh_counter = 0

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


def _reference_texts(doc: NetDocument) -> tuple[str, str, Fraction]:
    reducer = _WholeNetReducer(doc)
    reducer.run()
    net = PetriNet(reducer.places, reducer.transitions, reducer.pre,
                   reducer.post)
    residual = NetDocument(net, net.make_marking(reducer.marking))
    return (write_net_text(residual),
            write_equation_system(EquationSystem(reducer.equations)),
            _ratio(doc.net.places, net.places))


def _texts(doc: NetDocument) -> tuple[str, str, Fraction]:
    result = reduce_net(doc)
    return (write_net_text(result.residual),
            write_equation_system(result.equations), result.ratio)


def _targeted_doc(rng: random.Random) -> NetDocument:
    """A net where all three rules fire, in interleaved place order.

    Base places get random arcs of weight 1 or 2 and markings up to 2;
    clones of some base places are inserted at random positions, so twin
    classes interleave (a, b, c, d with a = d and b = c); constant places
    sit on neutral self-loops or stand alone; chains hang off random
    places. A base place may be called `a1` to make fresh names skip it.
    """
    base = [f"b{i}" for i in range(rng.randint(2, 5))]
    if rng.random() < 0.3:
        base[0] = "a1"
    transitions = [f"t{k}" for k in range(rng.randint(1, 5))]
    pre = {t: {} for t in transitions}
    post = {t: {} for t in transitions}
    for t in transitions:
        for flow in (pre[t], post[t]):
            for p in rng.sample(base, rng.randint(0, 2)):
                flow[p] = rng.choice((1, 1, 2))
    marking = {p: rng.choice((0, 0, 1, 2)) for p in base}
    places = list(base)
    for i in range(rng.randint(0, 2 * len(base))):
        source, clone = rng.choice(base), f"d{i}"
        for t in transitions:
            for flow in (pre[t], post[t]):
                if source in flow:
                    flow[clone] = flow[source]
        marking[clone] = marking[source]
        places.insert(rng.randint(0, len(places)), clone)
    for i in range(rng.randint(0, 2)):
        constant = f"k{i}"
        marking[constant] = rng.choice((0, 1, 1, 2))
        if marking[constant] and rng.random() < 0.5:
            t = rng.choice(transitions)
            pre[t][constant] = post[t][constant] = marking[constant]
        places.insert(rng.randint(0, len(places)), constant)
    for i in range(rng.randint(0, 3)):
        head, tail, u = rng.choice(places), f"q{i}", f"u{i}"
        transitions.append(u)
        pre[u], post[u] = {head: 1}, {tail: 1}
        marking[tail] = 0
        places.insert(rng.randint(0, len(places)), tail)
    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


def test_interleaved_twin_classes_drop_the_earliest_class_first():
    # a = d and b = c: the pair of the earliest class goes first, not the
    # first place that has an earlier twin (c)
    doc = parse_net_text("pl a\npl b\npl c\npl d\n"
                         "tr t : a d -> b c\ntr u : b c -> a d\n")
    residual, equations, ratio = _texts(doc)
    assert equations == "# R |- d = a\n# R |- c = b\n# A |- a1 = a + b\n"
    assert (residual, equations, ratio) == _reference_texts(doc)


def test_reducer_matches_whole_net_reference(safe_net_corpus):
    rng = random.Random(907)
    docs = safe_net_corpus(53, 200) + [_targeted_doc(rng) for _ in range(600)]
    fired = {"R": 0, "A": 0}
    for doc in docs:
        got = _texts(doc)
        assert got == _reference_texts(doc), write_net_text(doc)
        for tag in fired:
            fired[tag] += got[1].count(f"# {tag} ")
    assert fired["R"] > 500 and fired["A"] > 100


class _PassReducer:
    """The per-pass reducer that `reduce_net` replaced, kept as a reference.

    Each pass derives every place's sparse column from scratch, groups
    the places on (marking, column) and applies the first matching rule
    once; the output defines the residual net, the equation trail and the
    ratio that the incremental reducer must reproduce.
    """

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

    def run(self) -> None:
        while True:
            cols = self.columns()
            if not (self.apply_duplicate(cols) or self.apply_constant(cols)
                    or self.apply_chain(cols)):
                return


def _pass_texts(doc: NetDocument) -> tuple[str, str, Fraction]:
    reducer = _PassReducer(doc)
    reducer.run()
    net = PetriNet(reducer.places, reducer.transitions, reducer.pre,
                   reducer.post)
    residual = NetDocument(net, net.make_marking(reducer.marking))
    return (write_net_text(residual),
            write_equation_system(EquationSystem(reducer.equations)),
            _ratio(doc.net.places, net.places))


def _shuffled_rings(rng: random.Random) -> NetDocument:
    """Closed chains and cycles in shuffled order, some places doubled.

    Each ring carries one token. A doubled place copies the arcs and the
    marking of its original, so the twin, constant and chain rules
    interleave along the rings.
    """
    places, marking, arcs = [], {}, []
    for r in range(rng.randint(1, 4)):
        ring = [f"r{r}_{i}" for i in range(rng.randint(1, 12))]
        places += ring
        marking.update((p, 0) for p in ring)
        marking[rng.choice(ring)] = 1
        arcs += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    transitions = [f"t{k}" for k in range(len(arcs))]
    pre = {t: {a: 1} for t, (a, _) in zip(transitions, arcs)}
    post = {t: {b: 1} for t, (_, b) in zip(transitions, arcs)}
    doubled = rng.sample(places, rng.randint(0, min(3, len(places))))
    for i, source in enumerate(doubled):
        clone = f"d{i}"
        for flow in (*pre.values(), *post.values()):
            if source in flow:
                flow[clone] = flow[source]
        marking[clone] = marking[source]
        places.append(clone)
    rng.shuffle(places)
    rng.shuffle(transitions)
    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


def _family_docs(monkeypatch) -> list[NetDocument]:
    """The text nets of every workload of the benchmark, at two seeds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return [parse_net_text(text)
            for name in workloads.WORKLOADS for seed in (401, 7)
            for case in workloads.build(name, seed, 10.0)
            for file, text in case.files.items() if file.endswith(".net")]


def test_reducer_matches_per_pass_reference(safe_net_corpus, monkeypatch):
    rng = random.Random(2018)
    docs = (safe_net_corpus(2024, 500) + safe_net_corpus(53, 200)
            + [_targeted_doc(rng) for _ in range(600)]
            + [_shuffled_rings(rng) for _ in range(200)]
            + [_cycles_with_duplicates(n) for n in (1, 2, 7)]
            + _family_docs(monkeypatch))
    fired = {"R": 0, "A": 0}
    for doc in docs:
        got = _texts(doc)
        assert got == _pass_texts(doc), write_net_text(doc)
        for tag in fired:
            fired[tag] += got[1].count(f"# {tag} ")
    assert fired["R"] > 1000 and fired["A"] > 1000, fired


def _cycles_with_duplicates(n: int) -> NetDocument:
    lines = [f"pl {p}{i}{' 1' if p == 'x' else ''}"
             for i in range(n) for p in "xyzw"]
    lines += [line for i in range(n) for line in (
        f"tr a{i} : x{i} -> y{i} w{i}", f"tr b{i} : y{i} w{i} -> z{i}",
        f"tr c{i} : z{i} -> x{i}")]
    return parse_net_text("\n".join(lines) + "\n")


def test_reduction_cost_of_two_hundred_places():
    doc = _cycles_with_duplicates(50)
    started = time.perf_counter()
    result = reduce_net(doc)
    elapsed = time.perf_counter() - started
    assert result.ratio == 1 and len(result.equations) == 200
    assert elapsed < 2.0


def test_reduction_cost_of_a_closed_chain_of_ten_thousand_places():
    n = 10_000
    doc = parse_net_text("".join(f"pl p{i}{' 1' * (i == 0)}\n" for i in range(n))
                         + "".join(f"tr t{i} : p{i} -> p{(i + 1) % n}\n"
                                   for i in range(n)))
    started = time.perf_counter()
    result = reduce_net(doc)
    elapsed = time.perf_counter() - started
    assert result.ratio == 1 and len(result.equations) == n
    assert elapsed < 2.0


def test_reduction_cost_of_two_thousand_places():
    doc = _cycles_with_duplicates(500)
    started = time.perf_counter()
    result = reduce_net(doc)
    elapsed = time.perf_counter() - started
    assert result.ratio == 1 and len(result.equations) == 2000
    assert elapsed < 1.0


# -- the reduced pipeline against the oracle under net edits -----------------

def _reduced_relation(doc: NetDocument):
    """reduce_net, build_tfg, exact root relation, complete kernel."""
    result = reduce_net(doc)
    tfg = build_tfg(result.equations, doc.net.places,
                    result.residual.net.places)
    return matrix_complete(tfg, RootRelation.exact(tfg, result.residual))


def _with_place(doc: NetDocument, name: str, tokens: int,
                source: Optional[str] = None) -> NetDocument:
    """`doc` plus a last place `name`: a copy of `source`, or isolated."""
    net = doc.net
    pre = {t: dict(net.pre[t]) for t in net.transitions}
    post = {t: dict(net.post[t]) for t in net.transitions}
    for arcs in (*pre.values(), *post.values()):
        if source in arcs:
            arcs[name] = arcs[source]
    extended = PetriNet(net.places + (name,), net.transitions, pre, post)
    return NetDocument(extended, extended.make_marking(
        {**doc.initial, name: tokens}))


def test_added_duplicate_or_isolated_place_keeps_the_relation(safe_net_corpus):
    rng = random.Random(83)
    for doc in safe_net_corpus(83, 80):
        places = doc.net.places
        truth = oracle_matrix(doc.net, doc.initial)
        assert _reduced_relation(doc).restrict(places) == truth
        source = rng.choice(places)
        for extended in (_with_place(doc, "x_dup", doc.initial[source], source),
                         _with_place(doc, "x_iso", 0),
                         _with_place(doc, "x_iso", 1)):
            assert _reduced_relation(extended).restrict(places) == truth


def test_transition_order_does_not_change_the_relation(safe_net_corpus):
    rng = random.Random(89)
    for doc in safe_net_corpus(89, 80):
        order = list(doc.net.transitions)
        rng.shuffle(order)
        net = PetriNet(doc.net.places, order, doc.net.pre, doc.net.post)
        permuted = NetDocument(net, dict(doc.initial))
        places = doc.net.places
        assert _reduced_relation(permuted).restrict(places) == \
            _reduced_relation(doc).restrict(places)
