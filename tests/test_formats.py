"""Net parsing and serialization for both formats."""

import pytest
from hypothesis import given, settings, strategies as st

from coplaces.errors import (DuplicateId, MalformedNet, NetSyntaxError,
                             UnknownPlace, UnsupportedNet)
from coplaces.formats import (parse_net_text, parse_pnml, write_net_text)

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
    assert doc.source_format == "pnml"
    assert doc.name == "seq2"


def test_parse_pnml_inscription_weight():
    doc = parse_pnml(SEQ2_PNML.replace(
        '<arc id="arc1" source="a" target="t"/>',
        '<arc id="arc1" source="a" target="t">'
        "<inscription><text>2</text></inscription></arc>"))
    assert doc.net.pre["t"] == {"a": 2}


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
