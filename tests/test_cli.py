"""End-to-end command line behaviour and exit codes."""

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coplaces
from coplaces.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_writes_files_and_ratio(tmp_path, capsys, fixture_path):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "reduce", fixture_path("m1.net"),
                          "-o", str(out))
    assert code == 0
    assert stdout == "reduction ratio: 5/7\n"
    assert (out / "m1.reduced.net").read_text().startswith("pl p0\n")
    equations = (out / "m1.eq").read_text()
    assert equations.splitlines()[0] == "# R |- p5 = p4"


def test_matrix_pipeline_equals_oracle(tmp_path, capsys, fixture_path):
    rebuilt = tmp_path / "rebuilt.mat"
    truth = tmp_path / "truth.mat"
    code, _, _ = run(capsys, "matrix", fixture_path("m1.net"),
                     "--equations", fixture_path("m1.eq"),
                     "--reduced", fixture_path("m2.net"),
                     "--oracle", "-o", str(rebuilt))
    assert code == 0
    code, _, _ = run(capsys, "oracle", fixture_path("m1.net"),
                     "-o", str(truth))
    assert code == 0
    assert rebuilt.read_bytes() == truth.read_bytes()

    code, stdout, _ = run(capsys, "compare", str(rebuilt), str(truth))
    assert code == 0
    assert stdout == "equal\n"


def test_matrix_without_equations_is_oracle(capsys, fixture_path):
    code, direct, _ = run(capsys, "matrix", fixture_path("m1.net"))
    assert code == 0
    code, truth, _ = run(capsys, "oracle", fixture_path("m1.net"))
    assert code == 0
    assert direct == truth


def test_matrix_rel2_file_and_partial(tmp_path, capsys, fixture_path):
    rel2 = tmp_path / "rel2.mat"
    code, _, _ = run(capsys, "oracle", fixture_path("m2.net"), "-o", str(rel2))
    assert code == 0
    code, from_file, _ = run(capsys, "matrix", fixture_path("m1.net"),
                             "--equations", fixture_path("m1.eq"),
                             "--reduced", fixture_path("m2.net"),
                             "--rel2", str(rel2))
    assert code == 0
    code, partial, _ = run(capsys, "matrix", fixture_path("m1.net"),
                           "--equations", fixture_path("m1.eq"),
                           "--reduced", fixture_path("m2.net"),
                           "--rel2", str(rel2), "--partial")
    assert code == 0
    # a complete root relation makes partial mode complete as well
    assert partial == from_file


def test_partial_flag_with_masked_relation(tmp_path, capsys, fixture_path):
    rel2 = tmp_path / "rel2.mat"
    # p6 unknown: mask its diagonal and pair cells
    rel2.write_text("3\np0\na2\np6\n0\n01\n...\n")
    args = ("matrix", fixture_path("m1.net"),
            "--equations", fixture_path("m1.eq"),
            "--reduced", fixture_path("m2.net"), "--rel2", str(rel2))
    code, _, err = run(capsys, *args)
    assert code == 3
    assert "partial" in err
    partial_out = tmp_path / "partial.mat"
    code, _, _ = run(capsys, *args, "--partial", "-o", str(partial_out))
    assert code == 0
    assert "." in partial_out.read_text()

    # a partial run never contradicts the complete one
    complete_out = tmp_path / "complete.mat"
    code, _, _ = run(capsys, "matrix", fixture_path("m1.net"),
                     "--equations", fixture_path("m1.eq"),
                     "--reduced", fixture_path("m2.net"),
                     "--oracle", "-o", str(complete_out))
    assert code == 0
    code, stdout, _ = run(capsys, "compare", str(partial_out),
                          str(complete_out))
    assert code == 0
    assert stdout.startswith("compatible")


def test_check_tfg_verdicts(tmp_path, capsys, fixture_path):
    code, stdout, _ = run(capsys, "check-tfg", fixture_path("m1.net"),
                          fixture_path("m2.net"), fixture_path("m1.eq"))
    assert code == 0
    assert stdout.startswith("well-formed")

    double = tmp_path / "double.eq"
    double.write_text("# A |- a2 = p3 + p4\n# R |- p3 = p1\n")
    code, _, err = run(capsys, "check-tfg", fixture_path("m1.net"),
                       fixture_path("m2.net"), str(double))
    assert code == 3
    assert "T3" in err


def test_compare_contradiction_exit_code(tmp_path, capsys):
    (tmp_path / "a.mat").write_text("1\np\n1\n")
    (tmp_path / "b.mat").write_text("1\np\n0\n")
    code, stdout, _ = run(capsys, "compare", str(tmp_path / "a.mat"),
                          str(tmp_path / "b.mat"))
    assert code == 4
    assert "contradiction" in stdout


def test_exit_codes_for_bad_input(tmp_path, capsys):
    code, _, _ = run(capsys, "matrix")                       # usage
    assert code == 1
    code, _, _ = run(capsys, "matrix", "nope", "--equations")
    assert code == 1
    bad = tmp_path / "bad.net"
    bad.write_text("pl a one\n")
    code, _, err = run(capsys, "oracle", str(bad))           # parse error
    assert code == 2 and "expected" in err
    unsafe = tmp_path / "unsafe.net"
    unsafe.write_text("pl a\ntr t : -> a\n")
    code, _, err = run(capsys, "oracle", str(unsafe))        # safety error
    assert code == 3 and "1-bounded, witness marking {a:2}\n" in err
    for budget in (("--timeout", "0"), ("--timeout", "-1"),
                   ("--timeout", "nan"), ("--cap", "0")):
        code, _, err = run(capsys, "oracle", str(unsafe), *budget)
        assert code == 1 and "not positive" in err


@pytest.mark.parametrize("command", [
    ("oracle", "{bad}"),
    ("check-tfg", "{m1}.net", "{m2}.net", "{bad}"),
    ("compare", "{bad}", "{bad}"),
    ("matrix", "{m1}.net", "--equations", "{m1}.eq", "--reduced", "{m2}.net",
     "--rel2", "{bad}"),
])
def test_non_utf8_input_exits_2(tmp_path, capsys, fixture_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"pl caf\xe9\n")
    argv = [arg.format(bad=bad, m1=fixture_path("m1"), m2=fixture_path("m2"))
            for arg in command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert str(bad) in err


_DIGITS = "9" * 5000        # more digits than int() converts


@pytest.mark.parametrize("kind, text, line", [
    ("net", "pl a \u00b2\n", 1),
    ("net", f"pl a {_DIGITS}\n", 1),
    ("net", f"pl a 1\ntr t : a*{_DIGITS} ->\n", 2),
    ("eq", "# R |- b = \u00b2\n", 1),
    ("eq", f"# R |- b = {_DIGITS}\n", 1),
], ids=["superscript-marking", "long-marking", "long-weight",
        "superscript-constant", "long-constant"])
def test_bad_counts_exit_2(tmp_path, capsys, fixture_path, kind, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    argv = (("oracle", str(bad)) if kind == "net" else
            ("check-tfg", fixture_path("m1.net"), fixture_path("m2.net"),
             str(bad)))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"line {line}" in err


_PNML = ('<pnml><net id="n"><place id="a">{marking}</place>'
         '<transition id="t"/><arc id="x" source="a" target="t">{weight}</arc>'
         '</net></pnml>')


@pytest.mark.parametrize("marking, weight", [
    ("1_0", None), ("\u0663", None), (" +2", None),
    (None, "1_0"), (None, "+2"),
], ids=["marking-underscore", "marking-arabic-indic", "marking-plus",
        "weight-underscore", "weight-plus"])
def test_pnml_counts_are_ascii_digits(tmp_path, capsys, marking, weight):
    def annotation(tag, text):
        return "" if text is None else f"<{tag}><text>{text}</text></{tag}>"

    net = tmp_path / "bad.pnml"
    net.write_text(_PNML.format(marking=annotation("initialMarking", marking),
                                weight=annotation("inscription", weight)),
                   encoding="utf-8")
    code, _, err = run(capsys, "oracle", str(net))
    assert code == 2
    assert "non-integer" in err


def test_long_constant_message_is_bounded(tmp_path, capsys, fixture_path):
    bad = tmp_path / "bad.eq"
    for constant, message in (("7", "constant 7 not allowed, only 0 and 1 are"),
                              ("9" * 4000, "constant of 4000 digits")):
        bad.write_text(f"# R |- p1 = {constant}\n", encoding="utf-8")
        code, _, err = run(capsys, "check-tfg", fixture_path("m1.net"),
                           fixture_path("m2.net"), str(bad))
        assert code == 2
        assert message in err
        assert len(err.encode("utf-8")) < 200
    net = tmp_path / "bad.pnml"
    marking = f"<initialMarking><text>{'5' * 5000}</text></initialMarking>"
    net.write_text(_PNML.format(marking=marking, weight=""), encoding="utf-8")
    code, _, err = run(capsys, "oracle", str(net))
    assert code == 2
    assert "initialMarking of 5000 characters" in err
    assert len(err.encode("utf-8")) < 200


def test_timeout_without_output(tmp_path, capsys, fixture_path):
    code, _, err = run(capsys, "matrix", fixture_path("m1.net"),
                       "--cap", "2")
    assert code == 5
    assert "--partial" in err
    code, stdout, _ = run(capsys, "matrix", fixture_path("m1.net"),
                          "--cap", "2", "--partial")
    assert code == 0
    assert "." in stdout


def test_rle_flag(capsys, fixture_path):
    code, plain, _ = run(capsys, "oracle", fixture_path("m1.net"))
    code2, rle, _ = run(capsys, "oracle", fixture_path("m1.net"), "--rle")
    assert code == code2 == 0
    assert "(" in rle
    from coplaces.matrix import read_matrix
    assert read_matrix(rle).matrix == read_matrix(plain).matrix


def test_byte_identical_reruns(capsys, fixture_path):
    args = ("matrix", fixture_path("m1.net"),
            "--equations", fixture_path("m1.eq"),
            "--reduced", fixture_path("m2.net"), "--oracle")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_module_entry_point(fixture_path):
    # the child must import the same package as this process does
    package_root = str(Path(coplaces.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "coplaces", "oracle", fixture_path("m1.net")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("7\np0\n")


_FIXTURES = Path(__file__).parent / "fixtures"
_FUZZED = ("m1.net", "m1.eq", "m2.net", "m2.mat")


# each edit cuts up to 3 bytes at a position and inserts up to 3 bytes there
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FUZZED), st.integers(0, 400),
                          st.integers(0, 3), st.binary(max_size=3)),
                min_size=1, max_size=4))
def test_mutated_inputs_exit_with_documented_codes(edits):
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        files = {name: str(Path(tmp, name)) for name in _FUZZED}
        for name in _FUZZED[:3]:
            Path(files[name]).write_bytes((_FIXTURES / name).read_bytes())
        truth = str(Path(tmp, "truth.mat"))
        assert dispatch(["oracle", files["m2.net"], "-o", truth]) == 0
        Path(files["m2.mat"]).write_bytes(Path(truth).read_bytes())
        for name, pos, cut, insert in edits:
            data = Path(files[name]).read_bytes()
            pos %= len(data) + 1
            Path(files[name]).write_bytes(data[:pos] + insert + data[pos + cut:])

        m1, eq, m2, mat = (files[name] for name in _FUZZED)
        pipeline = ["matrix", m1, "--equations", eq, "--reduced", m2]
        for argv in (["reduce", m1, "-o", str(Path(tmp, "out"))],
                     ["check-tfg", m1, m2, eq],
                     ["compare", mat, truth],
                     pipeline + ["--oracle"],
                     pipeline + ["--rel2", mat, "--partial"]):
            assert dispatch(argv) in range(6), argv
