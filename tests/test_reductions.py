"""The three reduction rules, their equation trail, and the ratio."""

from fractions import Fraction

from coplaces.formats import parse_net_text
from coplaces.ptnet import oracle_matrix
from coplaces.reductions import ReductionResult, reduce_net
from coplaces.tfg import EquationSystem, write_equation_system

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
