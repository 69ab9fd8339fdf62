"""The benchmark's tracer still finds every name it wraps.

`perfbench/worker.py` builds its `Tracer` for every run, traced or not, by
looking up public functions where their callers bind them; a renamed or
removed name there fails every benchmark net. Tracing one pipeline run
also checks that the spans the benchmark reads still carry their counts.
"""

from pathlib import Path

from coplaces import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_and_counts(monkeypatch, tmp_path, fixture_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    tracer = worker.Tracer()
    tracer.install()
    try:
        code = cli.dispatch(["matrix", fixture_path("m1.net"),
                             "--equations", fixture_path("m1.eq"),
                             "--reduced", fixture_path("m2.net"), "--oracle",
                             "-o", str(tmp_path / "m1.mat")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = {span[0]: span[5] for span in tracer.take()}
    assert spans["kernel.complete"]["body_runs"] > 0
    assert "ptnet.explore" in spans
