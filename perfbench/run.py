"""The coplaces benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The run sets the workload up in a fresh process, then one closed-loop
client sends each net's commands to a fresh worker process and waits for
the reply before sending the next, pass after pass over the workload,
until S seconds are used up. Between passes the workload is set up again,
evenly spread over the run; `setup_s` is the median of all set-ups.
Every output matrix is checked against the reference the benchmark renders
itself. A net that does not answer within the per-net limit is stopped by
killing the worker, which is then replaced.

With --trace 0 the final line holds the end-to-end metrics. With --trace 1
passes alternate between untraced and traced; the final line holds the
per-layer metrics from the traced passes, the tracing overhead, and the
baseline oracle time. Every metric is also printed as a table row with
its unit and sample count before that line. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Case, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 10.0            # per net: longer than this and the worker is killed
SETUP_REPEATS = 7         # spread evenly over the run, see Run.execute
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
MiB = 1024 * 1024

# per-layer time metrics: span name -> metric; values are self times
SELF_TIMES = {
    "cli.dispatch": "cli.self_s",
    "formats.load": "formats.load_s",
    "formats.write": "formats.write_s",
    "reductions.reduce": "reductions.reduce_s",
    "tfg.parse": "tfg.parse_s",
    "tfg.build": "tfg.build_s",
    "tfg.write": "tfg.write_s",
    "kernel.relation": "kernel.relation_s",
    "ptnet.explore": "ptnet.explore_s",
    "ptnet.oracle_matrix": "ptnet.fill_s",
    "kernel.complete": "kernel.complete_s",
    "kernel.partial": "kernel.partial_s",
    "matrix.restrict": "matrix.restrict_s",
    "matrix.write": "matrix.write_s",
    "matrix.read": "matrix.read_s",
}
# per-layer counts: (span name, count key) -> metric
COUNTS = {
    ("formats.load", "places"): "formats.places",
    ("formats.load", "transitions"): "formats.transitions",
    ("reductions.reduce", "equations_R"): "reductions.equations_R",
    ("reductions.reduce", "equations_A"): "reductions.equations_A",
    ("reductions.reduce", "residual_places"): "reductions.residual_places",
    ("tfg.build", "nodes"): "tfg.nodes",
    ("tfg.build", "roots"): "tfg.roots",
    ("ptnet.explore", "states"): "ptnet.states",
    ("ptnet.explore", "truncated"): "ptnet.truncated",
    ("kernel.complete", "body_runs"): "kernel.body_runs",
    ("kernel.complete", "cell_writes"): "kernel.cell_writes",
    ("kernel.partial", "cell_writes"): "kernel.cell_writes",
    ("matrix.write", "output_bytes"): "matrix.output_bytes",
}
LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIMES.values()},
    "cli.dispatch_s": "s",          # inclusive time of dispatch
    "ptnet.oracle_s": "s",          # baseline: `coplaces oracle` on the net
    **{metric: "count" for metric in COUNTS.values()},
    "matrix.output_bytes": "B",
    "trace.overhead_s": "s",        # traced minus untraced pass time
}


class Worker:
    """A `worker.py serve` child process, stoppable at any time."""

    def __init__(self, directory: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", str(directory)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def ask(self, request: dict, limit: float) -> dict | None:
        """The reply to `request`, or None when none came within `limit`.

        A worker that exits instead of replying yields the exit code
        "worker exited".
        """
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        if not self.selector.select(limit):
            return None
        line = self.proc.stdout.readline()
        if not line:
            return {"codes": ["worker exited"], "stderr": "", "spans": [],
                    "seconds": time.perf_counter() - start}
        return json.loads(line)

    def close(self, kill: bool = False) -> float:
        """Stop the process, wait for it, and return its peak RSS in MiB."""
        self.selector.close()
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss * 1024 / MiB


# -- output checks ---------------------------------------------------------------

_OUT_CODES = bytes.maketrans(b".01", b"\x00\x01\x02")
_REF_CODES = bytes.maketrans(b"01", b"\x01\x02")


def check_output(text: str, reference: str, partial: bool) -> tuple[str | None, int, int]:
    """Check an output matrix; returns (problem or None, decided, cells).

    Complete outputs must equal the reference byte for byte. Partial
    outputs must have the reference's header and shape, and every decided
    cell must equal the reference cell.
    """
    lines, ref = text.split("\n"), reference.split("\n")
    n = int(ref[0])
    cells = n * (n + 1) // 2
    if not partial:
        return (None if text == reference else "differs from the reference",
                cells, cells)
    if len(lines) != len(ref) or lines[:1 + n] != ref[:1 + n]:
        return "header or shape differs from the reference", 0, cells
    rows = lines[1 + n:1 + 2 * n]
    if any(len(row) != i + 1 for i, row in enumerate(rows)):
        return "row lengths differ from the reference", 0, cells
    body = "".join(rows).encode("ascii", "replace")
    if body.translate(None, b".01"):
        return "unknown cell symbols", 0, cells
    # per byte: out in {0 undecided, 1 zero, 2 one}, ref in {1, 2};
    # agreement is out == 0 or out == ref, i.e. no bit of out outside ref
    out = int.from_bytes(body.translate(_OUT_CODES), "big")
    want = int.from_bytes("".join(ref[1 + n:1 + 2 * n]).encode().translate(_REF_CODES), "big")
    if out & ~want:
        return "a decided cell contradicts the reference", 0, cells
    return None, len(body) - body.count(b"."), cells


def residual_kept(case: Case, directory: Path) -> int:
    """Places of the initial net that survive in the reduced net written."""
    names = set(case.net.places)
    text = (directory / case.residual).read_text(encoding="utf-8")
    return sum(1 for line in text.splitlines()
               if line.startswith("pl ") and line.split()[1] in names)


# -- statistics --------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], f"p{100 * rank // len(ordered)}"


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return totals


# -- the run -----------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.directory = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spare = self.directory.with_name(self.directory.name + ".setup")
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
        self.env.pop("COPLACES_THREADS", None)
        self.worker: Worker | None = None
        self.peak_mib = 0.0
        self.problems: dict[str, int] = defaultdict(int)
        self.undecided: dict[str, int] = defaultdict(int)
        self.attempted = self.failed = 0
        self.spans: list[dict] = []

    def setup(self, directory: Path) -> float:
        """Set the workload up in `directory` in a fresh process; its wall time."""
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "worker.py"), "setup",
                        self.workload, str(self.seed), str(LIMIT_S),
                        str(directory)], env=self.env, check=True)
        return time.perf_counter() - start

    def _worker(self) -> Worker:
        if self.worker is None:
            self.worker = Worker(self.directory, self.env)
        return self.worker

    def _stop_worker(self, kill: bool) -> None:
        if self.worker is not None:
            self.peak_mib = max(self.peak_mib, self.worker.close(kill))
            self.worker = None

    def verdict(self, case: Case, commands: list[list[str]], output: str,
                reference: str, partial: bool, trace: bool) -> dict:
        """Run one net's commands; classify and check the result."""
        target = self.directory / output
        target.unlink(missing_ok=True)
        reply = self._worker().ask({"net": case.stem, "commands": commands,
                                    "trace": trace}, LIMIT_S)
        if reply is None:
            self._stop_worker(kill=True)
            self.undecided[f"{case.stem}: stopped at the {LIMIT_S:g} s limit"] += 1
            return {"status": "undecided", "seconds": LIMIT_S, "spans": []}
        codes = reply["codes"]
        result = {"seconds": reply["seconds"], "spans": reply["spans"],
                  "status": "failed", "decided_cells": 0, "cells": 0}
        if codes[-1] == "worker exited":
            self._stop_worker(kill=False)
        if codes[-1] == 5:
            self.undecided[f"{case.stem}: exit 5 (timeout)"] += 1
            result["status"] = "undecided"
        elif codes[-1] != 0 or len(codes) != len(commands):
            self.problems[f"{case.stem}: exit codes {codes}:"
                          f" {reply['stderr'].strip()}"] += 1
        elif not target.is_file():
            self.problems[f"{case.stem}: exit 0 but no {output}"] += 1
        else:
            problem, decided, cells = check_output(
                target.read_text(encoding="utf-8"), reference, partial)
            if problem:
                self.problems[f"{case.stem}: {output} {problem}"] += 1
            else:
                result.update(status="decided", decided_cells=decided,
                              cells=cells)
        return result

    def execute(self) -> dict:
        setup_samples = [self.setup(self.directory)]
        cases = build(self.workload, self.seed, LIMIT_S)
        references = {case.stem: case.reference() for case in cases}
        kept: dict[str, int] = {}

        def one_pass(trace: bool) -> dict:
            results = []
            for case in cases:
                result = self.verdict(case, case.commands, case.output,
                                      references[case.stem], case.partial, trace)
                if result["status"] == "decided" and case.residual \
                        and case.stem not in kept:
                    kept[case.stem] = residual_kept(case, self.directory)
                results.append(result)
            oracle_s = 0.0
            for case in cases if trace else ():
                if case.oracle is not None:
                    oracle_s += self.verdict(case, [case.oracle], case.oracle[-1],
                                             references[case.stem], False,
                                             False)["seconds"]
            return {"results": results, "oracle_s": oracle_s}

        one_pass(trace=False)                     # warm-up, not measured
        untraced: list[dict] = []
        traced: list[dict] = []
        # the other set-ups are spread over the run, so that setup_s samples
        # the same machine conditions as the verdicts, not one moment
        start = time.perf_counter()
        deadline = start + self.seconds
        while (time.perf_counter() < deadline or not untraced
               or self.trace and len(traced) < len(untraced)):
            due = start + len(setup_samples) * self.seconds / SETUP_REPEATS
            if len(setup_samples) < SETUP_REPEATS and time.perf_counter() >= due:
                setup_samples.append(self.setup(self.spare))
            if self.trace and len(traced) < len(untraced):
                traced.append(one_pass(trace=True))
            else:
                untraced.append(one_pass(trace=False))
        self._stop_worker(kill=False)

        results = [r for p in untraced + traced for r in p["results"]]
        self.attempted = len(results)
        self.failed = sum(r["status"] == "failed" for r in results)
        metrics = self.end_to_end(setup_samples, untraced, cases, kept)
        if self.trace:
            metrics.update(self.per_layer(traced, untraced))
        self.spans = [{"pass": k, "net": net, "name": name, "start": start,
                       "end": end, "parent": parent, "counts": counts}
                      for k, p in enumerate(traced) for r in p["results"]
                      for name, start, end, parent, net, counts in r["spans"]]
        return metrics

    def end_to_end(self, setup_samples, passes, cases, kept) -> dict:
        """Metric -> (value, unit, samples), over the untraced passes."""
        results = [r for p in passes for r in p["results"]]
        decided = [r for r in results if r["status"] == "decided"]
        failed = sum(r["status"] == "failed" for r in results)
        times = [r["seconds"] for r in decided]
        per_pass = [sum(r["status"] == "decided" for r in p["results"])
                    / sum(r["seconds"] for r in p["results"]) for p in passes]
        # a reduced net is only known once `reduce` has run to the end
        known = [c for c in cases if not c.residual or c.stem in kept]
        places = sum(len(c.net.places) for c in known)
        left = sum(kept[c.stem] if c.residual else c.kept for c in known)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s",
                        f"median of {len(setup_samples)} set-ups"),
            "decided_ratio": (len(decided) / len(results), "ratio",
                              f"{len(decided)}/{len(results)} nets"),
            "failed_ratio": (failed / len(results), "ratio",
                             f"{failed}/{len(results)} nets"),
            "peak_rss_mb": (self.peak_mib, "MiB",
                            "max ru_maxrss of the worker processes"),
        }
        if known:
            metrics["reduction_ratio"] = ((places - left) / places, "ratio",
                                          f"{places - left}/{places} places")
        if decided:
            value, label = tail(times)
            cells = sum(r["cells"] for r in decided)
            metrics.update({
                "verdict_s_p50": (statistics.median(times), "s",
                                  f"p50 of {len(times)} verdicts"),
                "verdict_s_tail": (value, "s", f"{label} of {len(times)} verdicts"),
                "nets_per_s": (statistics.median(per_pass), "1/s",
                               f"median of {len(per_pass)} passes"),
                "filling_ratio": (sum(r["decided_cells"] for r in decided) / cells,
                                  "ratio", f"{len(decided)} matrices"),
            })
        return metrics

    def per_layer(self, traced, untraced) -> dict:
        """Metric -> (value, unit, samples): medians over the traced passes
        of each pass's summed self times and counts."""
        rows: dict[str, list[float]] = defaultdict(list)
        for p in traced:
            values = dict.fromkeys(LAYER_UNITS, 0)
            for r in p["results"]:
                for name, seconds in self_times(r["spans"]).items():
                    values[SELF_TIMES[name]] += seconds
                for name, start, end, _, _, counts in r["spans"]:
                    if name == "cli.dispatch":
                        values["cli.dispatch_s"] += end - start
                    for key, number in (counts or {}).items():
                        values[COUNTS[name, key]] += number
            values["ptnet.oracle_s"] = p["oracle_s"]
            for metric, value in values.items():
                rows[metric].append(value)

        def pass_s(p):
            return sum(r["seconds"] for r in p["results"])

        rows["trace.overhead_s"] = [statistics.median(map(pass_s, traced))
                                    - statistics.median(map(pass_s, untraced))]
        return {metric: (statistics.median(values), LAYER_UNITS[metric],
                         f"median of {len(traced)} traced passes")
                for metric, values in rows.items()}

    def close(self) -> None:
        self._stop_worker(kill=True)
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.rmtree(self.spare, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coplaces" / "__init__.py").is_file():
        print(f"error: no coplaces sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.execute()
    finally:
        run.close()
    if args.trace:
        spans = HERE / "_work" / f"{args.workload}-{args.seed}.spans.json"
        spans.write_text(json.dumps(run.spans), encoding="utf-8")
        print(f"spans of the traced passes: {spans.relative_to(ROOT)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:15} {name:28} {value:14.6g} {unit:6} {samples}")
    for reason, count in run.undecided.items():
        print(f"undecided x{count}: {reason}")
    for problem, count in run.problems.items():
        print(f"FAILED x{count}: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    print(json.dumps({
        "correct": not run.problems and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 1 if run.problems or missing else 0


if __name__ == "__main__":
    sys.exit(main())
