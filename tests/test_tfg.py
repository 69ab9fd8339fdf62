"""Equation parsing, graph well-formedness, and the token game."""

import random

import pytest

from coplaces.errors import (BadConstant, DuplicateRemoval,
                             EquationSyntaxError, IllDefinedInput, NoTokenAt,
                             NotAgglomeration, NotAncestor, BadShareSum,
                             UndefinedAt, UnknownNode, WellFormednessError)
from coplaces.ptnet import explore_reachable
from coplaces.reductions import reduce_net
from coplaces.tfg import (Configuration, ConstantNode, Equation,
                          EquationSystem, build_tfg, check_configuration,
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


# -- reachability round trip through the equations ---------------------------

def _extend_marking(tfg, marking):
    """Total configuration over the graph from a full initial-net marking."""
    values = dict(marking.tokens)
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
