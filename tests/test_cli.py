"""End-to-end command line behaviour and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert code == 3 and "1-bounded" in err
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
