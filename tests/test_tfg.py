"""Equation parsing, graph well-formedness, and the token game."""

import heapq
import random
import re
import time

import pytest

from coplaces.errors import (BadConstant, DuplicateRemoval,
                             EquationSyntaxError, IllDefinedInput, NoTokenAt,
                             NotAgglomeration, NotAncestor, BadShareSum,
                             UndefinedAt, UnknownNode, WellFormednessError)
from coplaces.matrix import bits
from coplaces.ptnet import explore_reachable
from coplaces.reductions import reduce_net
from coplaces.tfg import (_EQ_LINE, Configuration, ConstantNode, Equation,
                          EquationSystem, Group, build_tfg, check_configuration,
                          find_marked_root, parse_equation_system,
                          propagate_token, split_token, successors,
                          write_equation_system)

FIG_CONFIG = Configuration({"p0": 0, "p6": 1, "a2": 1, "a1": 1,
                            "p3": 0, "p4": 1, "p5": 1, "p1": 1, "p2": 0})


# -- parsing -----------------------------------------------------------------

def test_parse_worked_example(fig_equations):
    assert len(fig_equations) == 4
    assert fig_equations.variables == {"p1", "p2", "p3", "p4", "p5", "a1", "a2"}
    tags = [eq.tag for eq in fig_equations]
    assert tags == ["R", "A", "A", "R"]


def test_parse_constant_equation():
    system = parse_equation_system("# R |- x = 1\n")
    (eq,) = system.equations
    assert eq == Equation("R", "x", (1,))


def test_parse_duplicate_removal():
    with pytest.raises(DuplicateRemoval) as err:
        parse_equation_system("# A |- a = p + q\n# R |- p = r\n")
    assert err.value.node == "p"


def test_parse_rejects_bad_constants_and_syntax():
    with pytest.raises(BadConstant):
        parse_equation_system("# R |- x = 2\n")
    with pytest.raises(EquationSyntaxError):
        parse_equation_system("R |- x = y\n")
    with pytest.raises(EquationSyntaxError):
        parse_equation_system("# Z |- x = y\n")
    with pytest.raises(EquationSyntaxError):
        parse_equation_system("# R |- x = y + 1\n")


def test_equation_line_matches_the_lazy_pattern():
    # the replaced pattern: a lazy term, then `\s*$`; a stripped line ends
    # in no space, so its term reached the end of the line as well
    lazy = re.compile(r"^#\s*(\S+)\s*\|-\s*(\S+)\s*=\s*(.+?)\s*$")
    rng = random.Random(23)
    alphabet = ["#", "R", "A", "|-", "|", "-", "=", "+", "x", "1", " ", "  ",
                "\t", "\u3000", "\x85", "\xa0"]
    for _ in range(20_000):
        line = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 14))).strip()
        if rng.random() < 0.5:
            line = "#" + line
        old, new = lazy.match(line), _EQ_LINE.fullmatch(line)
        assert (old and old.groups()) == (new and new.groups())


def test_equation_line_with_long_inner_space_parses_in_linear_time():
    # the lazy pattern retried the trailing space at each step of the
    # term: seconds at this length; a term with inner space is refused
    term = "b" + " " * 20_000 + "c"
    start = time.perf_counter()
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation_system(f"// x\n# R |- a = {term}\n")
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == ("equation syntax error at line 2:"
                              " bad term of 20002 characters")


@pytest.mark.parametrize("rhs", ["a c", "a + b c", "a\tc + b", "a\xa0c",
                                 "a\u3000c", "1 0", " + a"])
def test_term_that_split_would_cut_is_refused(rhs):
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation_system(f"# R |- b = {rhs}\n")
    assert err.value.line == 1
    # the words themselves parse
    for word in rhs.replace("+", " ").split():
        parse_equation_system(f"# R |- b = {word}\n")


def test_parse_skips_comments_and_round_trips(fig_equations, fixture_path):
    text = write_equation_system(fig_equations)
    # the golden equation file serializes back byte-identically
    with open(fixture_path("m1.eq")) as handle:
        assert text == handle.read()
    again = parse_equation_system("// preamble\n\n" + text)
    assert again == fig_equations
    assert write_equation_system(again) == text


# -- graph construction ------------------------------------------------------

def _arcs(tfg):
    """The (source, target) pairs of the R-arcs and of the A-arcs."""
    r_arcs = {(v, w) for v, ws in tfg.r_targets_of.items() for w in ws}
    a_arcs = {(v, w) for v, ws in tfg.a_group_of.items() for w in ws}
    return r_arcs, a_arcs


def test_build_worked_example(fig_tfg):
    assert _arcs(fig_tfg) == ({("a2", "a1"), ("p4", "p5")},
                              {("a1", "p1"), ("a1", "p2"),
                               ("a2", "p3"), ("a2", "p4")})
    assert fig_tfg.roots == ("p0", "p6", "a2")
    # canonical order: initial places, then residual-only, then inserted
    assert fig_tfg.nodes == ("p0", "p1", "p2", "p3", "p4", "p5", "p6",
                             "a2", "a1")


def test_build_empty_system_gives_isolated_roots():
    tfg = build_tfg(EquationSystem([]), ("a", "b"), ("a", "b"))
    assert tfg.nodes == ("a", "b")
    assert tfg.roots == ("a", "b")
    assert _arcs(tfg) == (set(), set())


def test_build_t1_unused_name():
    system = parse_equation_system("# R |- z = 1\n")
    with pytest.raises(WellFormednessError) as err:
        build_tfg(system, ("a",), ("a",))
    assert err.value.condition == "T1"
    assert err.value.nodes == ("z",)


def test_build_t2_constant_target():
    system = parse_equation_system("# A |- a = 1\n")
    with pytest.raises(WellFormednessError) as err:
        build_tfg(system, ("a",), ("a",))
    assert err.value.condition == "T2"


def test_build_t4_double_agglomeration_head():
    system = parse_equation_system("# A |- a = x + y\n# A |- a = z + w\n")
    with pytest.raises(WellFormednessError) as err:
        build_tfg(system, ("a", "x", "y", "z", "w"), ("a",))
    assert err.value.condition == "T4"


def test_build_cycle():
    system = parse_equation_system("# R |- x = y\n# R |- y = x\n")
    with pytest.raises(WellFormednessError) as err:
        build_tfg(system, ("x", "y"), ())
    assert err.value.condition == "Cycle"


def test_build_w5_warning_for_foreign_leaf():
    tfg = build_tfg(EquationSystem([]), ("a",), ("a", "extra"))
    assert any("extra" in w for w in tfg.warnings)


def test_successors_worked_example(fig_tfg):
    assert successors(fig_tfg, "a2") == {"a2", "p3", "p4", "p5",
                                         "a1", "p1", "p2"}
    assert successors(fig_tfg, "p6") == {"p6"}
    assert successors(fig_tfg, "p4") == {"p4", "p5"}
    with pytest.raises(UnknownNode):
        successors(fig_tfg, "zz")


def test_successors_monotone_along_arcs(fig_tfg):
    r_arcs, a_arcs = _arcs(fig_tfg)
    for src, dst in r_arcs | a_arcs:
        assert successors(fig_tfg, dst) <= successors(fig_tfg, src)


def _reference_successors(tfg):
    """The stack-resolved closure `successors` memoized before the cones."""
    cache = {}
    for v in tfg.nodes:
        stack = [v]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            pending = [w for w in tfg.out_children(node) if w not in cache]
            if pending:
                stack.extend(pending)
                continue
            closure = {node}
            for w in tfg.out_children(node):
                closure |= cache[w]
            cache[node] = frozenset(closure)
            stack.pop()
    return cache


def test_cones_match_stack_closure(tfg_corpus, safe_net_corpus):
    graphs = tfg_corpus(78, 300)
    for doc in safe_net_corpus(2024, 500):
        result = reduce_net(doc)
        graphs.append(build_tfg(result.equations, doc.net.places,
                                result.residual.net.places))
    for tfg in graphs:
        reference = _reference_successors(tfg)
        assert len(tfg.cones) == len(tfg.nodes)
        for v, cone in zip(tfg.nodes, tfg.cones):
            assert {tfg.nodes[i] for i in bits(cone)} == reference[v]
            assert successors(tfg, v) == reference[v]


def _reference_build_tfg(system, p1, p2):
    """`build_tfg` while it walked arcs by node through an `out_children`
    closure: Kahn's algorithm over an in-degree dict, the cones and W5 each
    concatenating a node's children again, T1 as a sorted scan."""
    p1, p2 = tuple(p1), tuple(p2)
    p1_set, p2_set = set(p1), set(p2)
    if len(p1_set) != len(p1) or len(p2_set) != len(p2):
        raise ValueError("duplicate place in p1 or p2")
    groups, a_heads, removed = [], set(), set()
    for i, eq in enumerate(system):
        head = (ConstantNode(eq.defined, i) if isinstance(eq.defined, int)
                else eq.defined)
        members = tuple(ConstantNode(t, i) if isinstance(t, int) else t
                        for t in eq.parts)
        if isinstance(head, str) and head in eq.parts:
            raise WellFormednessError("T4", [head],
                                      "node defined in terms of itself")
        if eq.tag == "A":
            if isinstance(head, str):
                if head in a_heads:
                    raise WellFormednessError(
                        "T4", [head],
                        "two agglomeration equations share a defined node")
                a_heads.add(head)
            targets = members
        else:
            targets = (head,)
        for target in targets:
            if isinstance(target, ConstantNode):
                raise WellFormednessError("T2", [target],
                                          "a constant node is an arc target")
            removed.add(target)
        groups.append(Group(eq.tag, head, members))
    for name in sorted(system.variables):
        if name not in p1_set and name not in p2_set and name not in a_heads:
            raise WellFormednessError("T1", [name],
                                      "name is not a place and never inserted")
    nodes = list(p1) + [p for p in p2 if p not in p1_set]
    seen = set(nodes)
    for group in groups:
        for node in (group.head, *group.members):
            if node not in seen:
                seen.add(node)
                nodes.append(node)
    index = {node: i for i, node in enumerate(nodes)}
    a_group_of, r_targets_of, head_groups_of = {}, {}, {}
    for group in groups:
        head_groups_of.setdefault(group.head, []).append(group)
        if group.tag == "A":
            a_group_of[group.head] = group.members
        else:
            for member in group.members:
                r_targets_of.setdefault(member, []).append(group.head)
    r_targets_of = {v: tuple(ts) for v, ts in r_targets_of.items()}

    def out_children(v):
        return a_group_of.get(v, ()) + r_targets_of.get(v, ())

    indeg = {v: 0 for v in nodes}
    for v in nodes:
        for w in out_children(v):
            indeg[w] += 1
    ready = [index[v] for v in nodes if indeg[v] == 0]
    heapq.heapify(ready)
    topo = []
    while ready:
        v = nodes[heapq.heappop(ready)]
        topo.append(v)
        for w in out_children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, index[w])
    if len(topo) != len(nodes):
        raise WellFormednessError("Cycle", [v for v in nodes if indeg[v] > 0])
    cones = [0] * len(nodes)
    for v in reversed(topo):
        cone = 1 << index[v]
        for w in out_children(v):
            cone |= cones[index[w]]
        cones[index[v]] = cone
    warnings = [f"leaf node '{v}' is not a place of the initial net (W5)"
                for v in nodes
                if not out_children(v) and isinstance(v, str) and v not in p1_set]
    return dict(nodes=tuple(nodes), index=index, groups=tuple(groups),
                roots=tuple(v for v in nodes if v not in removed),
                topo=tuple(topo), cones=tuple(cones), warnings=tuple(warnings),
                a_group_of=a_group_of, r_targets_of=r_targets_of,
                head_groups_of={v: tuple(gs) for v, gs in head_groups_of.items()})


def _broken(rng, system, p1, p2):
    """`system` and its places, perhaps with a stray name (T1), a constant
    arc target (T2), a self-defined node or a second agglomeration of one
    head (T4), or a cycle."""
    equations = list(system)
    names = sorted(system.variables) or ["n0"]
    kind = rng.randrange(6)
    if kind == 0:
        drop = set(rng.sample(names, min(len(names), rng.randint(1, 3))))
        p1 = [p for p in p1 if p not in drop]
        p2 = [p for p in p2 if p not in drop]
    elif kind == 1:
        equations.insert(rng.randrange(len(equations) + 1), rng.choice(
            [Equation("R", rng.randint(0, 1), (rng.choice(names),)),
             Equation("A", rng.choice(names), (rng.randint(0, 1),))]))
    elif kind == 2:
        name = rng.choice(names)
        equations.append(Equation(rng.choice("RA"), name,
                                  (name, rng.choice(names))))
    elif kind == 3:
        a_heads = [eq.defined for eq in equations if eq.tag == "A"]
        head = rng.choice(a_heads or names)
        equations.append(Equation("A", head, ("x1", "x2")))
        p1 = [*p1, "x1", "x2"]
    elif kind == 4:
        # a back arc from a node to one of its ancestors
        a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], "y")
        equations.append(Equation("R", a, (b,)))
        equations.append(Equation("R", b, (a,)))
    try:
        return EquationSystem(equations), p1, p2
    except DuplicateRemoval:
        return system, p1, p2


def _fields(tfg):
    # the private slots hold the cones, built at their first read, and the
    # child indices they are built from
    names = [name for name in tfg.__slots__ if not name.startswith("_")]
    return {name: getattr(tfg, name) for name in (*names, "cones")}


def test_build_tfg_matches_the_closure_walk(system_corpus, safe_net_corpus):
    rng = random.Random(31)
    cases = [_broken(rng, *case) for case in system_corpus(41, 1500)]
    cases += system_corpus(43, 300)
    for doc in safe_net_corpus(2024, 200):
        result = reduce_net(doc)
        cases.append((result.equations, doc.net.places,
                      result.residual.net.places))
    outcomes = set()
    for system, p1, p2 in cases:
        try:
            expected = _reference_build_tfg(system, p1, p2)
        except WellFormednessError as err:
            with pytest.raises(WellFormednessError) as got:
                build_tfg(system, p1, p2)
            assert (str(got.value), got.value.condition, got.value.nodes) \
                == (str(err), err.condition, err.nodes)
            outcomes.add(err.condition)
            continue
        fields = _fields(build_tfg(system, p1, p2))
        assert fields == expected
        assert [list(fields[name]) for name in expected] \
            == [list(value) for value in expected.values()]
        outcomes.add("ok")
    assert outcomes == {"ok", "T1", "T2", "T4", "Cycle"}


# -- configurations ----------------------------------------------------------

def test_check_configuration_worked_example(fig_tfg):
    assert check_configuration(fig_tfg, FIG_CONFIG).ok


def test_check_configuration_ceq_violation(fig_tfg):
    broken = Configuration(dict(FIG_CONFIG.values, p5=0))
    verdict = check_configuration(fig_tfg, broken)
    assert (verdict.ok, verdict.rule, verdict.node) == (False, "CEq", "p5")


def test_check_configuration_cbot_violation(fig_tfg):
    values = dict(FIG_CONFIG.values)
    del values["p3"]
    verdict = check_configuration(fig_tfg, Configuration(values))
    assert (verdict.ok, verdict.rule, verdict.node) == (False, "CBot", "p3")


def test_check_configuration_cbot_at_an_undefined_head(fig_tfg):
    # p5 = p4: the head undefined while its member p4 keeps a value
    values = dict(FIG_CONFIG.values)
    del values["p5"]
    verdict = check_configuration(fig_tfg, Configuration(values))
    assert (verdict.ok, verdict.rule, verdict.node) == (False, "CBot", "p5")


def test_partial_configuration_is_well_defined(fig_tfg):
    # the whole a2 component undefined, p0 and p6 defined
    verdict = check_configuration(fig_tfg, Configuration({"p0": 0, "p6": 1}))
    assert verdict.ok


def test_propagate_reroutes_through_agglomeration(fig_tfg):
    moved = propagate_token(fig_tfg, FIG_CONFIG, "a2", "p3")
    assert check_configuration(fig_tfg, moved).ok
    assert moved.value("p3") == 1
    assert moved.value("p4") == 0
    assert moved.value("p5") == 0
    for untouched in ("p0", "p6", "a2", "a1", "p1", "p2"):
        assert moved.value(untouched) == FIG_CONFIG.value(untouched)


def test_propagate_identity_and_errors(fig_tfg):
    assert propagate_token(fig_tfg, FIG_CONFIG, "a2", "a2") is FIG_CONFIG
    with pytest.raises(NotAncestor):
        propagate_token(fig_tfg, FIG_CONFIG, "p6", "p3")
    undefined = Configuration({"p0": 0, "p6": 1})
    with pytest.raises(UndefinedAt):
        propagate_token(fig_tfg, undefined, "a2", "p3")
    broken = Configuration(dict(FIG_CONFIG.values, p5=0))
    with pytest.raises(IllDefinedInput):
        propagate_token(fig_tfg, broken, "a2", "p3")


def test_split_keeps_or_moves_shares(fig_tfg):
    # children of a2 in equation order: (p4, p3)
    same = split_token(fig_tfg, FIG_CONFIG, "a2", [1, 0])
    assert same.value("p4") == 1 and same.value("p5") == 1
    assert same.value("p3") == 0

    flipped = split_token(fig_tfg, FIG_CONFIG, "a2", [0, 1])
    assert check_configuration(fig_tfg, flipped).ok
    assert flipped.value("p3") == 1
    assert flipped.value("p4") == 0
    assert flipped.value("p5") == 0


def test_split_errors(fig_tfg):
    with pytest.raises(BadShareSum):
        split_token(fig_tfg, FIG_CONFIG, "a2", [1, 1])
    with pytest.raises(NotAgglomeration):
        split_token(fig_tfg, FIG_CONFIG, "p6", [1])


def test_find_marked_root(fig_tfg):
    assert find_marked_root(fig_tfg, FIG_CONFIG, "p5") == "a2"
    assert find_marked_root(fig_tfg, FIG_CONFIG, "p1") == "a2"
    assert find_marked_root(fig_tfg, FIG_CONFIG, "p6") == "p6"
    with pytest.raises(NoTokenAt):
        find_marked_root(fig_tfg, FIG_CONFIG, "p0")


def test_token_game_messages_are_bounded(fig_tfg):
    long_a, long_b = "a" * 5000, "b" * 5000
    unknown = "a name of 5000 characters is not a node of the graph"
    for call in (lambda: successors(fig_tfg, long_a),
                 lambda: propagate_token(fig_tfg, FIG_CONFIG, long_a, "p1"),
                 lambda: propagate_token(fig_tfg, FIG_CONFIG, "a2", long_a),
                 lambda: split_token(fig_tfg, FIG_CONFIG, long_a, [1]),
                 lambda: find_marked_root(fig_tfg, FIG_CONFIG, long_a)):
        with pytest.raises(UnknownNode) as err:
            call()
        assert str(err.value) == unknown

    # b is an R copy of a, and the arc runs from a to b only
    tfg = build_tfg(parse_equation_system(f"# R |- {long_b} = {long_a}\n"),
                    (long_a, long_b), (long_a,))
    config = Configuration({long_a: 1, long_b: 1})
    with pytest.raises(NotAncestor) as err:
        propagate_token(tfg, config, long_b, long_a)
    assert str(err.value) == ("a node of 5000 characters does not reach"
                              " a node of 5000 characters")
    assert propagate_token(tfg, config, long_a, long_b).value(long_b) == 1
    assert find_marked_root(tfg, config, long_b) == long_a

    agglomerated = build_tfg(parse_equation_system(
        f"# A |- {long_a} = p + q\n"), ("p", "q"), (long_a,))
    with pytest.raises(BadShareSum) as err:
        split_token(agglomerated, Configuration({long_a: 1, "p": 1, "q": 0}),
                    long_a, [1, 1])
    assert str(err.value) == ("shares sum to 2, but a node of 5000 characters"
                              " holds 1")


# -- reachability round trip through the equations ---------------------------

def _extend_marking(tfg, marking):
    """Total configuration over the graph from a full initial-net marking."""
    values = dict(marking)
    for node in reversed(tfg.topo):
        if isinstance(node, ConstantNode) or node in values:
            continue
        members = tfg.a_group_of.get(node)
        assert members is not None, f"node {node} is not computable"
        values[node] = sum(
            m.value if isinstance(m, ConstantNode) else values[m]
            for m in members)
    return Configuration(values)


def test_reachable_markings_extend_to_configurations(safe_net_corpus,
                                                     config_factory):
    rng = random.Random(77)
    checked = 0
    for doc in safe_net_corpus(51, 60):
        result = reduce_net(doc)
        tfg = build_tfg(result.equations, doc.net.places,
                        result.residual.net.places)
        if tfg.warnings:
            continue
        reach1 = explore_reachable(doc.net, doc.initial)
        reach2 = explore_reachable(result.residual.net, result.residual.initial)

        for marking in reach1.markings[:10]:
            c = _extend_marking(tfg, marking)
            assert check_configuration(tfg, c).ok
            restricted = result.residual.net.make_marking(
                {p: c.value(p) for p in result.residual.net.places})
            assert restricted in reach2
            checked += 1

        for mask in reach2.masks[:10]:
            m2 = reach2.marking_from_mask(mask)
            roots = {r: m2[r] for r in tfg.roots if isinstance(r, str)}
            c = config_factory(rng, tfg, root_values=roots)
            assert check_configuration(tfg, c).ok
            back = doc.net.make_marking({p: c.value(p) for p in doc.net.places})
            assert back in reach1
            checked += 1
    assert checked > 100
