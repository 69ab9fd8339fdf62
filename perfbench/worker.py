"""The child process that runs `coplaces` commands for the benchmark.

    python3 worker.py setup WORKLOAD SEED LIMIT DIR
        import coplaces, generate the workload's inputs and write them
        to DIR, then exit: one set-up sample.
    python3 worker.py serve DIR
        answer one JSON request per line on standard input with one JSON
        reply per line on standard output, until standard input closes.

A request is ``{"net": stem, "commands": [argv, ...], "trace": bool}``.
The commands run in order through `coplaces.cli.dispatch`, in-process, and
stop at the first nonzero exit code. The reply carries the exit codes, the
wall time from the first command's start to the last one's return, the
captured standard error, and the spans recorded while tracing.

Tracing wraps public functions at the names their callers bind (see
`Tracer`), so nothing under `src/` changes. The wrappers are installed
only for traced requests; an untraced request runs the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter


def setup(workload: str, seed: int, limit: float, directory: Path) -> None:
    import coplaces  # noqa: F401  (import time is part of set-up)
    from workloads import build
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    for case in build(workload, seed, limit):
        case.write(directory)


class Tracer:
    """Spans around the calls into each layer, kept in memory.

    A span is ``[name, start, end, parent, net, counts]``; `parent` is the
    index of the enclosing span in the same batch, or None. Counts are the
    work a call did, read off its arguments or result.
    """

    def __init__(self):
        from coplaces import cli, kernel, ptnet
        from coplaces.kernel import PropagationStats, RootRelation
        from coplaces.matrix import ConcurrencyMatrix

        self.spans: list[list] = []
        self.net: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

        def reduce_counts(result):
            tags = [eq.tag for eq in result.equations]
            return {"equations_R": tags.count("R"),
                    "equations_A": tags.count("A"),
                    "residual_places": len(result.residual.net.places)}

        def matrix_complete(tfg, rel2, stats=None):
            stats = PropagationStats() if stats is None else stats
            matrix = original_complete(tfg, rel2, stats)
            self.count(body_runs=stats.body_runs, cell_writes=matrix.write_count)
            return matrix

        original_complete = cli.matrix_complete
        oracle_span = self._span("ptnet.oracle_matrix", ptnet.oracle_matrix)
        relation = RootRelation.__dict__
        self._patch(cli, "dispatch", self._span("cli.dispatch", cli.dispatch))
        self._patch(cli, "load_net", self._span(
            "formats.load", cli.load_net,
            lambda doc: {"places": len(doc.net.places),
                         "transitions": len(doc.net.transitions)}))
        self._patch(cli, "write_net_text",
                    self._span("formats.write", cli.write_net_text))
        self._patch(cli, "reduce_net", self._span(
            "reductions.reduce", cli.reduce_net, reduce_counts))
        self._patch(cli, "write_equation_system",
                    self._span("tfg.write", cli.write_equation_system))
        self._patch(cli, "parse_equation_system",
                    self._span("tfg.parse", cli.parse_equation_system))
        self._patch(cli, "build_tfg", self._span(
            "tfg.build", cli.build_tfg,
            lambda tfg: {"nodes": len(tfg.nodes), "roots": len(tfg.roots)}))
        for name in ("from_reduced_matrix", "exact"):
            self._patch(RootRelation, name, classmethod(self._span(
                "kernel.relation", relation[name].__func__)))
        self._patch(cli, "oracle_matrix", oracle_span)
        self._patch(kernel, "oracle_matrix", oracle_span)
        self._patch(ptnet, "explore_reachable", self._span(
            "ptnet.explore", ptnet.explore_reachable,
            lambda result: {"states": len(result),
                            "truncated": int(result.truncated)}))
        self._patch(cli, "matrix_complete",
                    self._span("kernel.complete", matrix_complete))
        self._patch(cli, "matrix_partial", self._span(
            "kernel.partial", cli.matrix_partial,
            lambda matrix: {"cell_writes": matrix.write_count}))
        self._patch(ConcurrencyMatrix, "restrict",
                    self._span("matrix.restrict", ConcurrencyMatrix.restrict))
        self._patch(cli, "write_matrix", self._span(
            "matrix.write", cli.write_matrix,
            lambda text: {"output_bytes": len(text.encode("utf-8"))}))
        self._patch(cli, "read_matrix",
                    self._span("matrix.read", cli.read_matrix))

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        self._patches.append((owner, attribute, original, replacement))

    def _span(self, name: str, function, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.net, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts is not None:
                record[5] = {**(record[5] or {}), **counts(result)}
            return result
        return traced

    def count(self, **counts) -> None:
        """Add counts to the innermost open span."""
        record = self.spans[self._stack[-1]]
        record[5] = {**(record[5] or {}), **counts}

    def install(self) -> None:
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def take(self) -> list[list]:
        spans, self.spans[:] = list(self.spans), []
        return spans


def serve(directory: Path) -> None:
    from coplaces import cli
    os.chdir(directory)
    # replies go to the real standard output; the commands' own output
    # is captured so that it cannot mix with them
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        tracer.net = request["net"]
        codes: list = []
        errors = io.StringIO()
        if request["trace"]:
            tracer.install()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(errors):
                for argv in request["commands"]:
                    codes.append(cli.dispatch(argv))
                    if codes[-1] != 0:
                        break
        except Exception:
            # a crash of the code under test is a result to report, not
            # a reason to stop serving
            codes.append("crash")
            errors.write(traceback.format_exc())
        seconds = perf_counter() - start
        tracer.uninstall()
        channel.write(json.dumps({"codes": codes, "seconds": seconds,
                                  "stderr": errors.getvalue()[-2000:],
                                  "spans": tracer.take()}) + "\n")
        channel.flush()


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 5:
        setup(argv[1], int(argv[2]), float(argv[3]), Path(argv[4]))
    elif argv[:1] == ["serve"] and len(argv) == 2:
        serve(Path(argv[1]))
    else:
        sys.exit(f"usage: {sys.argv[0]} setup WORKLOAD SEED LIMIT DIR"
                 f" | serve DIR")


if __name__ == "__main__":
    main(sys.argv[1:])
