"""Net parsing and serialization for both formats."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from coplaces.errors import (CoplacesError, DuplicateId, MalformedNet,
                             NetSyntaxError, UnknownPlace, UnsupportedNet,
                             UnwritableName)
from coplaces.formats import (NetDocument, parse_net_text, parse_pnml,
                              write_net_text)
from coplaces.matrix import writable_name
from coplaces.ptnet import PetriNet
from coplaces.tfg import (Equation, EquationSystem, parse_equation_system,
                          write_equation_system)

SEQ2_PNML = """<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="seq2" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page0">
      <place id="a"><initialMarking><text>1</text></initialMarking></place>
      <place id="b"/>
      <transition id="t"/>
      <arc id="arc1" source="a" target="t"/>
      <arc id="arc2" source="t" target="b"/>
    </page>
  </net>
</pnml>
"""


def test_parse_pnml_seq2(seq2):
    doc = parse_pnml(SEQ2_PNML)
    assert doc == seq2
    assert doc.net.places == ("a", "b")


def test_parse_pnml_inscription_weight():
    doc = parse_pnml(SEQ2_PNML.replace(
        '<arc id="arc1" source="a" target="t"/>',
        '<arc id="arc1" source="a" target="t">'
        "<inscription><text>2</text></inscription></arc>"))
    assert doc.net.pre["t"] == {"a": 2}
    doc = parse_pnml(SEQ2_PNML.replace("<text>1</text>", "<text> 3 </text>"))
    assert doc.initial == {"a": 3, "b": 0}


def test_parse_pnml_checks_ids_in_linear_time():
    body = "".join(f'<transition id="t{i}"/>' for i in range(20_000))
    start = time.perf_counter()
    doc = parse_pnml(f'<pnml><net id="n"><place id="p"/>{body}</net></pnml>')
    assert time.perf_counter() - start < 2.0
    assert len(doc.net.transitions) == 20_000
    for first, second in (("place", "place"), ("place", "transition"),
                          ("transition", "transition")):
        with pytest.raises(MalformedNet, match="duplicate id 'x'"):
            parse_pnml(f'<pnml><net id="n"><{first} id="x"/>'
                       f'<{second} id="x"/></net></pnml>')


def test_parse_pnml_rejects_inhibitor_arc():
    bad = SEQ2_PNML.replace(
        '<arc id="arc1" source="a" target="t"/>',
        '<arc id="arc1" source="a" target="t">'
        "<type><text>inhibitor</text></type></arc>")
    with pytest.raises(UnsupportedNet) as err:
        parse_pnml(bad)
    assert "arc1" in str(err.value)


def test_parse_pnml_rejects_second_page():
    bad = SEQ2_PNML.replace("</page>", '</page><page id="page1"></page>')
    with pytest.raises(UnsupportedNet) as err:
        parse_pnml(bad)
    assert "page" in str(err.value)


def test_parse_pnml_arcs_accumulate_and_ignore_decorations():
    doc = parse_pnml(SEQ2_PNML.replace(
        '<arc id="arc2" source="t" target="b"/>',
        '<arc id="arc2" source="t" target="b"/>'
        '<arc id="arc3" source="t" target="b"/>'
        '<toolspecific tool="x" version="1"><data/></toolspecific>'))
    assert doc.net.post["t"] == {"b": 2}


def test_parse_pnml_rejects_colored_annotations():
    with pytest.raises(UnsupportedNet):
        parse_pnml("<pnml><net id='n'><place id='a'>"
                   "<hlinitialmarking/></place></net></pnml>")
    with pytest.raises(UnsupportedNet):
        parse_pnml("<pnml><net id='n'><transition id='t'>"
                   "<condition/></transition></net></pnml>")


def test_parse_pnml_malformed_cases():
    with pytest.raises(MalformedNet):
        parse_pnml("<pnml><net><place id='a'/>")  # broken XML
    with pytest.raises(MalformedNet):
        parse_pnml("<pnml><net id='n'><place/></net></pnml>")  # no id
    with pytest.raises(MalformedNet):
        # place-to-place arc
        parse_pnml("<pnml><net id='n'><place id='a'/><place id='b'/>"
                   "<arc id='x' source='a' target='b'/></net></pnml>")


def test_parse_net_text_seq2(seq2):
    assert parse_net_text("pl a 1\npl b\ntr t : a -> b\n") == seq2


def test_parse_net_text_fork(fork):
    assert parse_net_text("pl p0 1\npl p1\npl p2\ntr t : p0 -> p1 p2") == fork


def test_parse_net_text_unknown_place():
    with pytest.raises(UnknownPlace) as err:
        parse_net_text("tr t : x -> y\n")
    assert err.value.name == "x"


def test_parse_net_text_weights_comments_empty_sides():
    doc = parse_net_text(
        "# header comment\n"
        "pl a 1   # trailing marking comment\n"
        "pl b\n"
        "\n"
        "tr emit : -> b\n"
        "tr heavy : a*2 b -> a\n")
    assert doc.net.pre["emit"] == {}
    assert doc.net.post["emit"] == {"b": 1}
    assert doc.net.pre["heavy"] == {"a": 2, "b": 1}


def test_parse_net_text_duplicate_id():
    with pytest.raises(DuplicateId):
        parse_net_text("pl a\npl a\n")
    with pytest.raises(DuplicateId):
        parse_net_text("pl a\ntr a : ->\n")


def test_parse_net_text_syntax_error_positions():
    with pytest.raises(NetSyntaxError) as err:
        parse_net_text("pl a one\n")
    assert (err.value.line, err.value.column) == (1, 6)
    with pytest.raises(NetSyntaxError) as err:
        parse_net_text("pl a\ntr t a -> b\n")
    assert err.value.line == 2 and "':'" in err.value.expected
    with pytest.raises(NetSyntaxError) as err:
        parse_net_text("pl a\ntr t : a a\n")
    assert "->" in err.value.expected


def test_pnml_and_text_agree(seq2):
    assert parse_pnml(SEQ2_PNML) == parse_net_text(write_net_text(seq2))


def _doc_strategy():
    names = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
                     min_size=1, max_size=6, unique=True)

    @st.composite
    def doc(draw):
        places = draw(names)
        n_transitions = draw(st.integers(0, 4))
        lines = []
        for i, p in enumerate(places):
            marking = draw(st.integers(0, 2))
            lines.append(f"pl {p} {marking}" if marking else f"pl {p}")
        for k in range(n_transitions):
            ins = draw(st.lists(st.sampled_from(places), max_size=3))
            outs = draw(st.lists(st.sampled_from(places), max_size=3))
            weights = [f"{p}*{draw(st.integers(2, 4))}"
                       if draw(st.booleans()) else p for p in ins]
            lines.append(f"tr T{k} : {' '.join(weights)} -> {' '.join(outs)}")
        return parse_net_text("\n".join(lines) + "\n")
    return doc()


@settings(max_examples=200, deadline=None)
@given(_doc_strategy())
def test_net_text_round_trip(doc):
    again = parse_net_text(write_net_text(doc))
    assert again == doc
    assert again.net.places == doc.net.places


def test_write_is_stable(m1_doc):
    text = write_net_text(m1_doc)
    assert parse_net_text(text) == m1_doc
    assert write_net_text(parse_net_text(text)) == text


# names from characters that neither text format gives a meaning to, save
# for `->` and digit-only names; then the same mixed with the characters
# both formats do read (`#`, `*`, `+`, `=`, whitespace that `splitlines`
# breaks on, a non-ASCII digit)
_PLAIN_NAME = st.one_of(
    st.text(alphabet="ab0:|->/\u00e9", min_size=1, max_size=4),
    st.sampled_from(["->", "07", "pl", "tr", ":", "|-", "//", "0a", "-", ">"]))
_ANY_NAME = st.one_of(
    _PLAIN_NAME,
    st.text(alphabet="a0#*+= \t\x1c\x85\u00b2", min_size=0, max_size=3),
    st.sampled_from(["5", "p*2", "*", "p#", "+", "p=q", "p q", "\u00b2"]))


@st.composite
def _named_doc(draw):
    alphabet = _PLAIN_NAME if draw(st.booleans()) else _ANY_NAME
    names = draw(st.lists(alphabet, min_size=2, max_size=7, unique=True))
    cut = draw(st.integers(1, len(names) - 1))
    places, transitions = names[:cut], names[cut:]
    pre = {t: {p: draw(st.integers(1, 2))
               for p in draw(st.lists(st.sampled_from(places), max_size=2))}
           for t in transitions}
    post = {t: {p: 1 for p in draw(st.lists(st.sampled_from(places),
                                            max_size=2))}
            for t in transitions}
    net = PetriNet(places, transitions, pre, post)
    marking = {p: draw(st.integers(0, 2)) for p in places}
    return NetDocument(net, net.make_marking(marking))


@settings(max_examples=300, deadline=None)
@given(_named_doc())
def test_writable_names_read_back_as_themselves(doc):
    names = (*doc.net.places, *doc.net.transitions)
    places, transitions = doc.net.places, doc.net.transitions
    system = EquationSystem(
        [Equation("R", places[0], (1,))]
        + [Equation("R", v, places[max(0, i - 2):i])
           for i, v in enumerate(places) if i]
        + [Equation("A", transitions[0], transitions[1:])
           for _ in transitions[1:2]])
    if all(writable_name(name) for name in names):
        assert parse_net_text(write_net_text(doc)) == doc
        assert parse_equation_system(write_equation_system(system)) == system
    else:
        with pytest.raises(UnwritableName):
            write_net_text(doc)
        if not all(writable_name(name) for name in system.variables):
            with pytest.raises(UnwritableName):
                write_equation_system(system)


@pytest.mark.parametrize("name", [
    "p#", "p q", "p\t", "p\x1c", "p\x85", "p*2", "*", "p+q", "p=q", "->",
    "5", "\u00b2", ""])
def test_names_that_do_not_read_back_are_rejected(name):
    net = PetriNet([name, "b"], ["t"], {"t": {name: 1}}, {"t": {"b": 1}})
    doc = NetDocument(net, net.make_marking())
    system = EquationSystem([Equation("R", name, ("b",))])
    # written without the check, one of the two texts misreads the name
    try:
        reads_back = (
            parse_net_text(f"pl {name}\npl b\ntr t : {name} -> b\n") == doc
            and parse_equation_system(f"# R |- {name} = b\n") == system)
    except CoplacesError:
        reads_back = False
    assert not reads_back
    assert not writable_name(name)
    with pytest.raises(UnwritableName):
        write_net_text(doc)
    with pytest.raises(UnwritableName):
        write_equation_system(system)
