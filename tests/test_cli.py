"""End-to-end command line behaviour and exit codes."""

import functools
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coplaces
from coplaces import cli, errors
from coplaces.cli import dispatch
from coplaces.errors import NotSafe
from coplaces.formats import NetDocument, load_net, write_net_text
from coplaces.kernel import RootRelation
from coplaces.matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument,
                             read_matrix, write_matrix)
from coplaces.ptnet import PetriNet
from coplaces.reductions import reduce_net
from coplaces.tfg import build_tfg


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


def test_check_tfg_refuses_a_term_with_inner_space(tmp_path, capsys,
                                                  fixture_path):
    spaced = tmp_path / "spaced.eq"
    spaced.write_text("# A |- a2 = p3 + p4\n# R |- p5 = p4 p3\n")
    code, stdout, err = run(capsys, "check-tfg", fixture_path("m1.net"),
                            fixture_path("m2.net"), str(spaced))
    assert (code, stdout) == (2, "")
    assert err == ("error: equation syntax error at line 2:"
                   " bad term 'p4 p3'\n")


def _check_tfg_peak(tmp_path, n):
    """The tracemalloc peak of `check-tfg` on a chain of `n` R equations,
    whose cones would take space quadratic in `n`."""
    names = [f"p{i}" for i in range(n + 1)]
    files = [tmp_path / name for name in ("chain.net", "root.net", "chain.eq")]
    files[0].write_text("".join(f"pl {v}\n" for v in names))
    files[1].write_text("pl p0\n")
    files[2].write_text("".join(f"# R |- {v} = {u}\n"
                                for u, v in zip(names, names[1:])))
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert dispatch(["check-tfg", *map(str, files)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_check_tfg_memory_grows_linearly_with_a_chain(tmp_path):
    # with every cone built, doubling this chain triples the peak (2.9x)
    small, large = (_check_tfg_peak(tmp_path, n) for n in (8_000, 16_000))
    assert large < 2.4 * small


@functools.cache
def _other_pythons():
    """Interpreters of Python 3.10 or later other than this one's version,
    one per version, found on the path or among pyenv's versions."""
    candidates = [shutil.which("python3.10")]
    root = os.environ.get("PYENV_ROOT")
    if root is None and shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True,
                              text=True).stdout.strip()
    if root:
        candidates += sorted(map(str, Path(root).glob("versions/3.1[0-9]*/bin/python3")))
    found = {}
    for candidate in filter(None, candidates):
        probe = subprocess.run([candidate, "-c", "import sys;"
                                " print(*sys.version_info[:2])"],
                               capture_output=True, text=True)
        version = tuple(map(int, probe.stdout.split()))
        if version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, candidate)
    return found


def _python_310():
    """An interpreter that reports Python 3.10, or None."""
    return _other_pythons().get((3, 10))


# what `import coplaces.cli` must not load: `dataclasses` (with `inspect`)
# nowhere, XML until a PNML is read, `fractions` (with `decimal`) until a
# reduction ratio is taken, `tempfile` until an output file is written
_STARTUP = """
import sys
from pathlib import Path
def loaded():
    heavy = ("dataclasses", "inspect", "fractions", "decimal",
             "xml.etree.ElementTree", "tempfile")
    print(*[name for name in heavy if name in sys.modules], sep=",")
import coplaces.cli
loaded()
from coplaces.formats import parse_pnml
doc = parse_pnml(Path(sys.argv[1]).read_bytes())
loaded()
from coplaces.reductions import reduce_net
reduce_net(doc)
loaded()
"""


def _startup_modules(python, tmp_path):
    """The heavy modules `python` holds after importing the command line,
    after reading a PNML, and after reducing it."""
    net = tmp_path / "fork.pnml"
    net.write_text(_irreducible_fork("p0", "p3"), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(coplaces.__file__).parents[1])}
    ran = subprocess.run([python, "-S", "-c", _STARTUP, str(net)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
    return [set(filter(None, line.split(","))) for line in ran.stdout.splitlines()]


def _expect_light_startup(stages):
    at_import, after_pnml, after_reduce = stages
    assert at_import == set()
    assert after_pnml == {"xml.etree.ElementTree"}
    assert "fractions" in after_reduce
    assert not after_reduce & {"dataclasses", "inspect"}


def test_import_loads_no_dataclasses_xml_or_fractions(tmp_path):
    _expect_light_startup(_startup_modules(sys.executable, tmp_path))


def test_other_pythons_start_light_and_write_the_same_matrix(tmp_path,
                                                             capsys,
                                                             fixture_path):
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10+ interpreter")
    m1, m2 = fixture_path("m1"), fixture_path("m2")
    (tmp_path / "bad.net").write_text("pl a one\n")
    (tmp_path / "unsafe.net").write_text("pl a\ntr t : -> a\n")
    # one command per exit code: 0, 2, 3, 5, 1
    commands = [["matrix", f"{m1}.net", "--equations", f"{m1}.eq",
                 "--reduced", f"{m2}.net", "--oracle"],
                ["oracle", str(tmp_path / "bad.net")],
                ["oracle", str(tmp_path / "unsafe.net")],
                ["matrix", f"{m1}.net", "--cap", "2"],
                ["oracle", str(tmp_path / "missing.net")]]
    expected = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 2, 3, 5, 1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(coplaces.__file__).parents[1])}
    for version, python in sorted(pythons.items()):
        _expect_light_startup(_startup_modules(python, tmp_path))
        for argv, (code, stdout, stderr) in zip(commands, expected):
            ran = subprocess.run([python, "-m", "coplaces", *argv], env=env,
                                 capture_output=True, timeout=120)
            assert ran.returncode == code, (version, argv, ran.stderr)
            assert ran.stdout == stdout.encode(), (version, argv)
            assert ran.stderr == stderr.encode(), (version, argv)


def test_matrix_is_the_same_under_python_310(tmp_path, monkeypatch,
                                             fixture_path):
    python = _python_310()
    if python is None:
        pytest.skip("no Python 3.10 interpreter")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import workloads

    (case,) = workloads.build("kernel-wide", 401, 10.0)
    case.write(tmp_path)
    m1, m2 = fixture_path("m1"), fixture_path("m2")
    commands = [["matrix", f"{m1}.net", "--equations", f"{m1}.eq",
                 "--reduced", f"{m2}.net", "--oracle"],
                [*case.commands[0][:-2]]]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(coplaces.__file__).parents[1])}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert dispatch(argv) == 0
        ran = subprocess.run([python, "-m", "coplaces", *argv], env=env,
                             capture_output=True, timeout=120)
        assert ran.returncode == 0, ran.stderr
        assert ran.stdout == out.getvalue().encode()


def test_compare_contradiction_exit_code(tmp_path, capsys):
    (tmp_path / "a.mat").write_text("1\np\n1\n")
    (tmp_path / "b.mat").write_text("1\np\n0\n")
    code, stdout, _ = run(capsys, "compare", str(tmp_path / "a.mat"),
                          str(tmp_path / "b.mat"))
    assert code == 4
    assert "contradiction" in stdout


def test_exit_codes_for_bad_input(tmp_path, capsys, fixture_path):
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
    code, _, err = run(capsys, "oracle", str(tmp_path / "missing.net"))
    assert code == 1 and err.startswith("error: [Errno 2] ")
    m1 = fixture_path("m1")
    for extra, message in [
            (("--rel2", "F"), "--reduced/--rel2/--oracle require --equations"),
            (("--equations", f"{m1}.eq", "--reduced", fixture_path("m2.net")),
             "give the reduced relation via --rel2 or --oracle")]:
        code, stdout, err = run(capsys, "matrix", f"{m1}.net", *extra)
        assert (code, stdout) == (1, "")
        assert err.startswith("usage: coplaces")
        assert err.endswith(f"coplaces: error: {message}\n")


def test_every_error_class_exits_with_its_family_code():
    families = [(errors.BudgetExhausted, 5), (errors.AnalysisError, 3),
                (errors.InputFormatError, 2), (errors.CoplacesError, 1)]
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)]
    assert len(classes) > len(families)
    for cls in classes:
        family = next(code for base, code in families if issubclass(cls, base))
        assert cls.exit_code == family, cls


def test_one_parser_serves_every_dispatch(capsys, fixture_path):
    # the parser is built once per process; what each call prints and
    # returns must not depend on the calls before it
    calls = [("oracle", fixture_path("m1.net"), "--cap", "0"),
             ("matrix", fixture_path("m1.net"), "--equations", "m1.eq"),
             ("matrix", fixture_path("m1.net"), "--rle"),
             ("--version",)]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [1, 1, 0, 0]
    cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("weight", ["x", "0"])
def test_pnml_arc_without_id_is_named_by_its_ends(tmp_path, capsys, weight):
    net = tmp_path / "bad.pnml"
    net.write_text(_PNML.replace(' id="x"', "").format(
        marking="", weight=f"<inscription><text>{weight}</text></inscription>"),
        encoding="utf-8")
    code, _, err = run(capsys, "oracle", str(net))
    assert code == 2
    assert "'a->t'" in err and "None" not in err


@pytest.mark.parametrize("weight", ["x", "0"])
def test_pnml_arc_with_an_empty_id_is_named_by_its_ends(tmp_path, capsys,
                                                        weight):
    net = tmp_path / "bad.pnml"
    net.write_text(_PNML.replace(' id="x"', ' id=""').format(
        marking="", weight=f"<inscription><text>{weight}</text></inscription>"),
        encoding="utf-8")
    code, _, err = run(capsys, "oracle", str(net))
    assert code == 2
    assert "'a->t'" in err and "''" not in err


@pytest.mark.parametrize("arc_id", ["a", "t", "y"])
def test_pnml_arc_id_repeating_another_id_is_refused(tmp_path, capsys, arc_id):
    # the place a, the transition t, or the id of the arc t -> a that follows
    net = tmp_path / "bad.pnml"
    net.write_text(_PNML.replace(' id="x"', f' id="{arc_id}"').format(
        marking="", weight="").replace(
        "</net>", '<arc id="y" source="t" target="a"/></net>'),
        encoding="utf-8")
    code, stdout, err = run(capsys, "oracle", str(net))
    assert code == 2 and stdout == ""
    assert f"duplicate id '{arc_id}'" in err


def test_pnml_after_a_byte_order_mark_is_read_as_pnml(tmp_path, capsys,
                                                     fixture_path):
    plain, marked = tmp_path / "plain.pnml", tmp_path / "marked.pnml"
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            + _irreducible_fork("p0", "p3"))
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, expected, _ = run(capsys, "oracle", str(plain))
    assert code == 0
    assert run(capsys, "oracle", str(marked)) == (0, expected, "")
    # the text formats keep refusing the mark
    net = tmp_path / "marked.net"
    net.write_bytes(b"\xef\xbb\xbf" + Path(fixture_path("m1.net")).read_bytes())
    code, _, err = run(capsys, "oracle", str(net))
    assert code == 2 and "line 1, column 1" in err


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


def _pnml(places, transitions):
    """A PNML net: `places` maps id to marking, `transitions` id to (pre, post)."""
    out = ['<pnml><net id="n">']
    for place, tokens in places.items():
        marking = (f"<initialMarking><text>{tokens}</text></initialMarking>"
                   if tokens else "")
        out.append(f'<place id="{place}">{marking}</place>')
    for t, (pre, post) in transitions.items():
        out.append(f'<transition id="{t}"/>')
        out += [f'<arc id="{p}.{t}" source="{p}" target="{t}"/>' for p in pre]
        out += [f'<arc id="{t}.{p}" source="{t}" target="{p}"/>' for p in post]
    return "".join(out) + "</net></pnml>"


def _irreducible_fork(p0, p3):
    # the irreducible fork net of test_reductions.py, two places renamed
    return _pnml({p0: 1, "p1": 0, "p2": 0, p3: 0},
                 {"t": ([p0], ["p1", "p2"]), "u": (["p1", "p2"], [p3]),
                  "x": (["p1"], ["p1"])})


@pytest.mark.parametrize("name, text, shown", [
    ("fork.pnml", _irreducible_fork("p#0", "p3"), "'p#0'"),
    ("fork.pnml", _irreducible_fork("p0", "p 3"), "'p 3'"),
    ("five.net", "pl 5 1\npl q\ntr t : 5 -> q\n", "'5'"),
], ids=["hash", "space", "number"])
def test_reduce_rejects_names_its_outputs_cannot_hold(tmp_path, capsys, name,
                                                      text, shown):
    net = tmp_path / name
    net.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "reduce", str(net), "-o", str(out))
    assert code == 2 and stdout == ""
    assert f"identifier {shown} cannot be written as text" in err
    assert not out.exists()
    # the net itself is fine for every command that writes no net text
    code, _, _ = run(capsys, "oracle", str(net))
    assert code == 0
    code, _, _ = run(capsys, "matrix", str(net))
    assert code == 0


@pytest.mark.parametrize("place, shown", [("a&#10;b", r"'a\nb'"),
                                         (" a", "' a'")],
                         ids=["line-break", "leading-space"])
def test_matrix_files_refuse_names_they_cannot_read_back(tmp_path, capsys,
                                                         place, shown):
    net = tmp_path / "n.pnml"
    net.write_text(_pnml({place: 1, "q": 0}, {}), encoding="utf-8")
    target = tmp_path / "F"
    for command in ("oracle", "matrix"):
        code, stdout, err = run(capsys, command, str(net), "-o", str(target))
        assert (code, stdout) == (2, "")
        assert err == (f"error: node name {shown} cannot be written to a"
                       " matrix file: it must be one line of text, not empty,"
                       " and without leading or trailing whitespace\n")
        assert not target.exists()


def test_a_name_with_inner_space_round_trips(tmp_path, capsys):
    net = tmp_path / "n.pnml"
    net.write_text(_pnml({"a b": 1, "q": 0}, {}), encoding="utf-8")
    for command in ("oracle", "matrix"):
        target = tmp_path / f"{command}.mat"
        assert run(capsys, command, str(net), "-o", str(target))[0] == 0
        assert read_matrix(target.read_text(encoding="utf-8")).order == (
            "a b", "q")
        assert run(capsys, "compare", str(target), str(target)) == (
            0, "equal\n", "")


def test_w5_warning_reaches_stderr_once(tmp_path, capsys, fixture_path):
    m1 = fixture_path("m1")
    isolated = tmp_path / "m2z.net"
    isolated.write_text(Path(fixture_path("m2.net")).read_text() + "pl z\n")
    warning = "warning: leaf node 'z' is not a place of the initial net (W5)\n"
    assert run(capsys, "check-tfg", f"{m1}.net", str(isolated), f"{m1}.eq") == (
        0, "well-formed: 10 nodes, 4 roots\n", warning)
    pipeline = ("matrix", f"{m1}.net", "--equations", f"{m1}.eq", "--oracle",
                "--reduced")
    code, stdout, err = run(capsys, *pipeline, str(isolated))
    assert (code, err) == (0, warning)
    # z is a root that no place of the initial net descends from
    assert run(capsys, *pipeline, fixture_path("m2.net")) == (0, stdout, "")


_LONG = "n" * 5000


def _order_mismatch_files(tmp_path):
    nodes = [f"n{i}" for i in range(2000)]
    for name, order in (("a.mat", nodes), ("b.mat", nodes[::-1])):
        rows = [f"{i + 1}(1)" for i in range(len(order))]
        (tmp_path / name).write_text("\n".join([str(len(order)), *order, *rows])
                                     + "\n")
    return "compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat")


def _wrong_places_files(tmp_path):
    _order_mismatch_files(tmp_path)
    return ("matrix", str(_FIXTURES / "m1.net"),
            "--equations", str(_FIXTURES / "m1.eq"),
            "--reduced", str(_FIXTURES / "m2.net"),
            "--rel2", str(tmp_path / "a.mat"))


def _duplicate_name_files(tmp_path):
    (tmp_path / "dup.mat").write_text(f"2\n{_LONG}\n{_LONG}\n1\n11\n")
    return "compare", str(tmp_path / "dup.mat"), str(tmp_path / "dup.mat")


def _duplicate_rel2_files(tmp_path):
    _duplicate_name_files(tmp_path)
    return ("matrix", str(_FIXTURES / "m1.net"),
            "--equations", str(_FIXTURES / "m1.eq"),
            "--reduced", str(_FIXTURES / "m2.net"),
            "--rel2", str(tmp_path / "dup.mat"))


def _cycle_files(tmp_path):
    nodes = [f"n{i}" for i in range(2000)]
    (tmp_path / "cycle.net").write_text("".join(f"pl {v}\n" for v in nodes))
    (tmp_path / "empty.net").write_text("")
    (tmp_path / "cycle.eq").write_text(
        "".join(f"# R |- {v} = {nodes[i - 1]}\n" for i, v in enumerate(nodes)))
    return ("check-tfg", str(tmp_path / "cycle.net"),
            str(tmp_path / "empty.net"), str(tmp_path / "cycle.eq"))


@pytest.mark.parametrize("name, text, code, message", [
    ("twice.net", f"pl {_LONG}\npl {_LONG}\n", 2,
     "duplicate identifier of 5000 characters (line 2)"),
    ("unknown.net", f"pl a\ntr t : {_LONG} -> a\n", 2,
     "unknown place of 5000 characters (line 2)"),
    ("marking.pnml", _pnml({_LONG: "x"}, {}), 2,
     "non-integer initialMarking 'x' on an id of 5000 characters"),
    ("twice.pnml", _pnml({_LONG: 0, "t": 0}, {_LONG: ([], [])}), 2,
     "duplicate id of 5000 characters"),
    ("arc.pnml", _pnml({"a": 0}, {"t": (["a"], [_LONG])}), 2,
     "arc of 5002 characters does not connect"),
    (None, _cycle_files, 3,
     "well-formedness condition Cycle violated by"
     " {n0, n1, n2, n3, n4, and 1995 more}"),
    (None, _order_mismatch_files, 2, "orders differ at position 0:"
     " 'n0' vs 'n1999'"),
    (None, _wrong_places_files, 3, "relation covers the wrong places"
     " (missing {a2, p0, p6}, extra {n0, n1, n10, n100, n1000,"
     " and 1995 more})"),
    (None, _duplicate_name_files, 2,
     "duplicate node name of 5000 characters at line 3"),
    (None, _duplicate_rel2_files, 2,
     "duplicate node name of 5000 characters at line 3"),
], ids=["text-duplicate", "text-unknown", "pnml-marking", "pnml-duplicate",
        "pnml-arc", "equation-cycle", "order-mismatch", "rel2-places",
        "matrix-duplicate", "rel2-duplicate"])
def test_echoed_identifiers_are_bounded(tmp_path, capsys, name, text, code,
                                        message):
    if callable(text):
        argv = text(tmp_path)
    else:
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ("oracle", str(tmp_path / name))
    got, _, err = run(capsys, *argv)
    assert got == code
    assert message in err
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
    code, oracle, err = run(capsys, "oracle", fixture_path("m1.net"),
                            "--cap", "2")
    assert (code, oracle) == (0, stdout)
    assert err == "warning: exploration truncated, matrix is partial\n"


_CHOICE = ("pl a 1\npl b\npl c\ntr t : a -> b\ntr u : a -> c\n"
           "tr v : b -> a\ntr w : c -> a\n")


def test_residual_timeout_exits_5_and_writes_nothing(tmp_path, capsys):
    net = tmp_path / "choice.net"
    net.write_text(_CHOICE)
    out = tmp_path / "out"
    assert run(capsys, "reduce", str(net), "-o", str(out))[:2] == (
        0, "reduction ratio: 0/1\n")
    assert (out / "choice.reduced.net").read_text() == _CHOICE
    pipeline = ("matrix", str(net), "--equations", str(out / "choice.eq"),
                "--reduced", str(out / "choice.reduced.net"), "--oracle",
                "--cap", "2")
    target = tmp_path / "choice.mat"
    code, stdout, err = run(capsys, *pipeline, "-o", str(target))
    assert (code, stdout) == (5, "")
    assert "--partial" in err
    assert not target.exists()
    code, stdout, _ = run(capsys, *pipeline, "--partial")
    assert code == 0 and "." in stdout


def test_failed_write_names_only_the_target(tmp_path, capsys, fixture_path):
    target = tmp_path / "taken"
    target.mkdir()
    runs = [run(capsys, "oracle", fixture_path("m1.net"), "-o", str(target))
            for _ in range(2)]
    assert [code for code, _, _ in runs] == [1, 1]
    assert not list(tmp_path.glob(".taken.*"))
    err = runs[0][2]
    assert err == runs[1][2]
    assert err.startswith("error: [Errno ")
    assert err.endswith(f" {str(target)!r}\n")


def test_reduce_timeout_exits_5_and_writes_nothing(tmp_path, capsys):
    # a closed chain of 30,000 places needs 29,999 chain firings, about a
    # second of reducer work; the deadline is checked before each firing
    n = 30000
    net = tmp_path / "ring.net"
    net.write_text("".join(f"pl p{i}{' 1' * (i == 0)}\n" for i in range(n))
                   + "".join(f"tr t{i} : p{i} -> p{(i + 1) % n}\n"
                             for i in range(n)))
    out = tmp_path / "out"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "reduce", str(net), "-o", str(out),
                            "--timeout", "0.2")
    assert time.perf_counter() - start < 3.0
    assert code == 5 and "time budget" in err and stdout == ""
    assert not out.exists() or not any(out.iterdir())


def test_reduce_writes_a_wide_irreducible_net_quickly(tmp_path, capsys):
    # 2,000 choice components a -> b | c: no rule applies, so writing the
    # 6,000-place residual back is most of the work
    lines = []
    for k in range(2000):
        lines += [f"pl a{k} 1", f"pl b{k}", f"pl c{k}"]
    for k in range(2000):
        lines += [f"tr ab{k} : a{k} -> b{k}", f"tr ac{k} : a{k} -> c{k}",
                  f"tr ba{k} : b{k} -> a{k}", f"tr ca{k} : c{k} -> a{k}"]
    net = tmp_path / "wide.net"
    net.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "reduce", str(net), "-o", str(out),
                          "--timeout", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (0, "reduction ratio: 0/1\n")
    assert (out / "wide.reduced.net").read_text() == net.read_text()


def _choice_components(count):
    """`count` irreducible choice components a -> b | c, each b with a
    duplicate d: every component has three residual markings."""
    lines = []
    for k in range(count):
        lines += [f"pl a{k} 1", f"pl b{k}", f"pl c{k}", f"pl d{k}",
                  f"tr ab{k} : a{k} -> b{k} d{k}", f"tr ac{k} : a{k} -> c{k}",
                  f"tr ba{k} : b{k} d{k} -> a{k}", f"tr ca{k} : c{k} -> a{k}"]
    return "\n".join(lines) + "\n"


def test_matrix_oracle_explores_each_part_once(tmp_path, capsys):
    # 12 components: 3^12 = 531,441 product markings, 36 part markings
    net = tmp_path / "choice.net"
    net.write_text(_choice_components(12))
    out = tmp_path / "out"
    assert run(capsys, "reduce", str(net), "-o", str(out))[0] == 0
    pipeline = ("matrix", str(net), "--equations", str(out / "choice.eq"),
                "--reduced", str(out / "choice.reduced.net"), "--oracle")
    start = time.perf_counter()
    code, text, _ = run(capsys, *pipeline)
    assert time.perf_counter() - start < 3.0
    assert code == 0
    doc = read_matrix(text)
    for a in doc.order:
        for b in doc.order:
            same = a[1:] == b[1:]
            expected = a == b or {a[0], b[0]} == {"b", "d"} or not same
            assert doc.matrix.value(a, b) == expected, (a, b)
    # the cap bounds the markings of each part, not of the product
    assert run(capsys, *pipeline, "--cap", "3")[:2] == (0, text)


def test_unsafe_part_exits_3_with_a_total_witness(tmp_path, capsys):
    net = tmp_path / "mixed.net"
    # the part {u, v, w} puts a second token in v on its third firing
    net.write_text(_choice_components(1) + "pl u 1\npl v\npl w\n"
                   "tr t : u -> w v\ntr s : w -> u\n")
    out = tmp_path / "out"
    assert run(capsys, "reduce", str(net), "-o", str(out))[0] == 0
    code, _, err = run(capsys, "matrix", str(net),
                       "--equations", str(out / "mixed.eq"),
                       "--reduced", str(out / "mixed.reduced.net"), "--oracle")
    assert code == 3
    assert err == ("error: net is not 1-bounded,"
                   " witness marking {a0:1, v:2, w:1}\n")

    doc = load_net(str(net))
    result = reduce_net(doc)
    residual = result.residual
    tfg = build_tfg(result.equations, doc.net.places, residual.net.places)
    with pytest.raises(NotSafe) as unsafe:
        RootRelation.exact(tfg, residual)
    assert list(unsafe.value.witness) == list(residual.net.places)
    assert unsafe.value.witness == {**residual.initial, "u": 0, "v": 2,
                                    "w": 1}


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


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from coplaces import *", namespace)
    assert len(set(coplaces.__all__)) == len(coplaces.__all__)
    assert all(name in namespace for name in coplaces.__all__)


_FIXTURES = Path(__file__).parent / "fixtures"
_FUZZED = ("m1.net", "m1.eq", "m2.net", "m2.mat")


# some files are first replaced by arbitrary bytes; each edit then cuts up
# to 3 bytes at a position and inserts up to 3 bytes there
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FUZZED), st.integers(0, 400),
                          st.integers(0, 3), st.binary(max_size=3)),
                min_size=1, max_size=4),
       st.dictionaries(st.sampled_from(_FUZZED), st.binary(max_size=300),
                       max_size=2))
def test_mutated_inputs_exit_with_documented_codes(edits, replaced):
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        files = {name: str(Path(tmp, name)) for name in _FUZZED}
        for name in _FUZZED[:3]:
            Path(files[name]).write_bytes((_FIXTURES / name).read_bytes())
        truth = str(Path(tmp, "truth.mat"))
        assert dispatch(["oracle", files["m2.net"], "-o", truth]) == 0
        Path(files["m2.mat"]).write_bytes(Path(truth).read_bytes())
        for name, data in replaced.items():
            Path(files[name]).write_bytes(data)
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


def _reordered(matrix, order):
    """`matrix`'s cells over `order`, a permutation of its nodes."""
    moved = ConcurrencyMatrix(order, fill=UNDECIDED)
    for i, a in enumerate(order):
        for b in order[:i + 1]:
            moved.set_value(a, b, matrix.value(a, b))
    return moved


def test_rel2_place_order_does_not_change_the_matrix(tmp_path, capsys,
                                                     safe_net_corpus):
    rng = random.Random(31)
    shuffled = 0
    for k, doc in enumerate(safe_net_corpus(31, 40)):
        net, out = tmp_path / f"n{k}.net", tmp_path / f"out{k}"
        net.write_text(write_net_text(doc), encoding="utf-8")
        assert run(capsys, "reduce", str(net), "-o", str(out))[0] == 0
        reduced, eq = out / f"n{k}.reduced.net", out / f"n{k}.eq"
        code, text, _ = run(capsys, "oracle", str(reduced))
        assert code == 0
        truth = read_matrix(text).matrix
        blanked = truth.copy()
        for i in range(truth.size):
            for j in range(i):
                if rng.random() < 0.5:
                    blanked.set_at(i, j, UNDECIDED)
        order = list(truth.order)
        rng.shuffle(order)
        shuffled += order != list(truth.order)
        for flags, cells in (((), truth), (("--partial",), blanked)):
            outputs = []
            for moved in (cells, _reordered(cells, order)):
                rel2 = tmp_path / "rel2.mat"
                rel2.write_text(write_matrix(MatrixDocument(moved.order, moved)),
                                encoding="utf-8")
                outputs.append(run(capsys, "matrix", str(net),
                                   "--equations", str(eq), "--reduced",
                                   str(reduced), "--rel2", str(rel2), *flags))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0
    assert shuffled >= 10


def _renamed(doc, names):
    net = doc.net
    pre, post = ({t: {names[p]: w for p, w in arcs[t].items()}
                  for t in net.transitions} for arcs in (net.pre, net.post))
    renamed = PetriNet([names[p] for p in net.places], net.transitions,
                       pre, post)
    return NetDocument(renamed, renamed.make_marking(
        {names[p]: tokens for p, tokens in doc.initial.items()}))


def _with_names(output, names):
    """A matrix file text with its node names replaced through `names`."""
    lines = output.split("\n")
    n = int(lines[0])
    lines[1:1 + n] = [names[name] for name in lines[1:1 + n]]
    return "\n".join(lines)


def test_renamed_places_change_only_the_names(tmp_path, capsys,
                                              safe_net_corpus):
    # fresh names in a random order, so that no name order survives
    rng = random.Random(37)
    for k, doc in enumerate(safe_net_corpus(37, 40)):
        fresh = [f"x{j}" for j in range(len(doc.net.places))]
        rng.shuffle(fresh)
        names = dict(zip(doc.net.places, fresh))
        runs = []
        for stem, version in ((f"n{k}", doc), (f"r{k}", _renamed(doc, names))):
            net, out = tmp_path / f"{stem}.net", tmp_path / f"out{stem}"
            net.write_text(write_net_text(version), encoding="utf-8")
            assert run(capsys, "reduce", str(net), "-o", str(out))[0] == 0
            runs.append((run(capsys, "oracle", str(net)),
                         run(capsys, "matrix", str(net), "--equations",
                             str(out / f"{stem}.eq"), "--reduced",
                             str(out / f"{stem}.reduced.net"), "--oracle")))
        for original, renamed in zip(*runs):
            assert original[0] == renamed[0] == 0
            assert original[2] == renamed[2] == ""
            assert _with_names(original[1], names) == renamed[1]


def _golden_cli_commands(tmp_path, corpus):
    """Each command of the CLI digest with the files it writes: m1/m2 and
    the nets of `corpus`, all copied into `tmp_path`."""
    rng = random.Random(47)
    nets = []
    for name in ("m1.net", "m1.eq", "m2.net"):
        shutil.copy(_FIXTURES / name, tmp_path / name)
    nets.append(("m1", tmp_path / "m1.eq", tmp_path / "m2.net"))
    for k, doc in enumerate(corpus):
        (tmp_path / f"n{k}.net").write_text(write_net_text(doc), encoding="utf-8")
        out = tmp_path / f"out-n{k}"
        nets.append((f"n{k}", out / f"n{k}.eq", out / f"n{k}.reduced.net"))
    for stem, eq, reduced in nets:
        net, out = str(tmp_path / f"{stem}.net"), tmp_path / f"out-{stem}"
        yield (["reduce", net, "-o", str(out)],
               [out / f"{stem}.reduced.net", out / f"{stem}.eq"])
        yield ["check-tfg", net, str(reduced), str(eq)], []
        yield ["oracle", net], []
        relation = tmp_path / f"{stem}.rel.mat"
        yield ["oracle", str(reduced), "-o", str(relation)], [relation]
        pipeline = ["matrix", net, "--equations", str(eq), "--reduced",
                    str(reduced)]
        rle = tmp_path / f"{stem}.rle.mat"
        for flags, written in (((), []), (("--rle", "-o", str(rle)), [rle]),
                               (("--cap", "2"), []),
                               (("--cap", "2", "--partial"), [])):
            yield [*pipeline, "--oracle", *flags], written
        cells = read_matrix(relation.read_text(encoding="utf-8")).matrix
        for i in range(cells.size):
            for j in range(i + 1):
                if rng.random() < 0.5:
                    cells.set_at(i, j, UNDECIDED)
        blanked = tmp_path / f"{stem}.blank.mat"
        blanked.write_text(write_matrix(MatrixDocument(cells.order, cells)),
                           encoding="utf-8")
        for flags in ((), ("--partial",)):
            yield [*pipeline, "--rel2", str(blanked), *flags], []


# sha256 over the argv, exit code, stdout, stderr and written files of the
# commands above, pinned before `_cmd_matrix` lost its three tails; the
# inputs are the tests' own, so re-sizing the benchmark's nets leaves it
GOLDEN_CLI_DIGEST = (
    "2d88e60668572980f851445fe89ee8be4773eafa9e8f3ab83ec0eb849985dda5")


def test_golden_cli_digest(tmp_path, capsys, safe_net_corpus):
    digest = hashlib.sha256()

    def feed(text):
        digest.update(text.replace(str(tmp_path), "TMP").encode("utf-8") + b"\0")

    codes = set()
    for argv, written in _golden_cli_commands(tmp_path,
                                              safe_net_corpus(43, 40)):
        code, stdout, stderr = run(capsys, *argv)
        codes.add(code)
        for text in (*argv, str(code), stdout, stderr):
            feed(text)
        for path in written:
            feed(hashlib.sha256(path.read_bytes()).hexdigest()
                 if path.exists() else "absent")
    assert codes == {0, 3, 5}
    assert digest.hexdigest() == GOLDEN_CLI_DIGEST
