"""The benchmark's tracer still finds every name it wraps, and its nets pass.

`perfbench/worker.py` builds its `Tracer` for every run, traced or not, by
looking up public functions where their callers bind them; a renamed or
removed name there fails every benchmark net. Tracing one pipeline run
also checks that the spans the benchmark reads still carry their counts.
One untimed pass over every workload's nets checks their outputs against
the benchmark's own references, so a change that would fail the benchmark
fails here first.
"""

import subprocess
import sys
from pathlib import Path

from coplaces import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_and_counts(monkeypatch, tmp_path, fixture_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    m1, m2 = fixture_path("m1"), fixture_path("m2")
    rel2 = tmp_path / "m2.mat"
    assert cli.dispatch(["oracle", f"{m2}.net", "-o", str(rel2)]) == 0
    # one blanked cell, (p6, a2), makes the root relation partial
    rows = rel2.read_text().splitlines()
    rows[-1] = rows[-1][0] + "." + rows[-1][2:]
    rel2.write_text("\n".join(rows) + "\n")

    tracer = worker.Tracer()
    tracer.install()
    try:
        codes = [cli.dispatch(["matrix", f"{m1}.net", "--equations", f"{m1}.eq",
                               "--reduced", f"{m2}.net", *source,
                               "-o", str(tmp_path / "m1.mat")])
                 for source in (["--oracle"], ["--rel2", str(rel2), "--partial"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    spans = {}
    for name, _, _, _, _, counts in tracer.take():
        spans.setdefault(name, counts)
    assert spans["kernel.complete"]["body_runs"] > 0
    assert spans["kernel.complete"]["cell_writes"] > 0
    assert spans["kernel.partial"]["cell_writes"] > 0
    assert "matrix.restrict" in spans
    assert "ptnet.explore" in spans


def test_benchmark_nets_match_their_references(monkeypatch, tmp_path):
    checked = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")],
                             capture_output=True, text=True, timeout=120)
    assert checked.returncode == 0, checked.stdout + checked.stderr
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS:
        for case in workloads.build(workload, 401, run.LIMIT_S):
            case.write(tmp_path)
            for argv in case.commands:
                assert cli.dispatch(argv) == 0, (workload, argv)
            output = (tmp_path / case.output).read_text(encoding="utf-8")
            problem, _, _ = run.check_output(output, case.reference(),
                                             case.partial)
            assert problem is None, (workload, case.stem, problem)
