"""The four benchmark workloads: seeded inputs, commands and references.

Each workload stresses one layer of the pipeline and bypasses the others;
the sizes below are chosen so that layer holds most of a verdict's time
while one verdict stays well under a second, so a run of a few seconds
collects enough verdicts for a median and a tail.

Stdlib only, like `families`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from families import (Net, blank_cells, chain, choice_with_duplicate,
                      cycle_with_duplicate, expanded_choice,
                      expansion_equations, expansion_residual, net_pnml,
                      net_text, reference_matrix, render)

CHAIN_PLACES = 50         # reduce-chains: one closed chain
CYCLES = 16               # reduce-chains: 3-place cycles with a duplicate
CHOICES = 8               # explore-choice: 3**8 residual states
KERNEL_COMPONENTS = 6     # kernel-*: 3**6 residual states
WIDE_LENGTH = 45          # kernel-wide: b chain length per component
PARTIAL_LENGTH = 24       # kernel-partial: b chain length per component
PARTIAL_BLANK_SEED = 7    # fixes which residual cells kernel-partial blanks


@dataclass
class Case:
    """One net of a workload and everything needed to run and check it."""

    stem: str
    files: dict[str, str]           # file name -> content, in the work dir
    commands: list[list[str]]       # coplaces argv lists, run in order
    output: str                     # the final matrix file
    net: Net                        # the initial net, for the reference
    partial: bool                   # output may hold '.'; decided cells must agree
    residual: str | None            # reduced net file written by `reduce`
    kept: int                       # places of `net` left in a given residual
    oracle: list[str] | None = None  # baseline oracle argv, where it is cheap

    def reference(self) -> str:
        return reference_matrix(self.net.places, self.net.keys)

    def write(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


def _reduce_case(stem: str, net: Net, oracle: bool, limit: float) -> Case:
    source = f"{stem}.net"
    return Case(
        stem=stem,
        files={source: net_text(net)},
        commands=[["reduce", source, "-o", "out"],
                  ["matrix", source, "--equations", f"out/{stem}.eq",
                   "--reduced", f"out/{stem}.reduced.net", "--oracle",
                   "--timeout", str(limit), "-o", f"{stem}.mat"]],
        output=f"{stem}.mat", net=net, partial=False,
        residual=f"out/{stem}.reduced.net", kept=0,
        oracle=(["oracle", source, "--timeout", str(limit),
                 "-o", f"{stem}.oracle.mat"] if oracle else None))


def _kernel_case(stem: str, rng: random.Random, length: int, partial: bool,
                 limit: float) -> Case:
    deep = [i % 2 == 1 for i in range(KERNEL_COMPONENTS)]
    n1 = render([expanded_choice(length) for _ in deep], rng)
    n2 = expansion_residual(n1, rng)
    files = {f"{stem}.pnml": net_pnml(n1, stem),
             f"{stem}.reduced.net": net_text(n2),
             f"{stem}.eq": expansion_equations(n1, n2, deep, length, rng)}
    argv = ["matrix", f"{stem}.pnml", "--equations", f"{stem}.eq",
            "--reduced", f"{stem}.reduced.net"]
    if partial:
        files[f"{stem}.rel2.mat"] = half_blank_relation(n2)
        argv += ["--rel2", f"{stem}.rel2.mat", "--partial"]
    else:
        argv += ["--oracle", "--timeout", str(limit)]
    return Case(stem=stem, files=files,
                commands=[argv + ["-o", f"{stem}.mat"]],
                output=f"{stem}.mat", net=n1, partial=partial, residual=None,
                kept=len(set(n1.places) & set(n2.places)))


def half_blank_relation(n2: Net) -> str:
    """The residual's true matrix with half of its off-diagonal cells blank.

    The half is drawn once over (component, position) pairs with a fixed
    seed, then mapped through the seeded names, so every workload seed
    blanks the same cells up to renaming and the filling ratio does not
    depend on the seed.
    """
    pairs = sorted({tuple(sorted((a, b))) for a in set(n2.keys)
                    for b in set(n2.keys) if a != b})
    chosen_keys = set(random.Random(PARTIAL_BLANK_SEED).sample(pairs, len(pairs) // 2))
    row_of = {key: i for i, key in enumerate(n2.keys)}
    chosen = set()
    for a, b in chosen_keys:
        i, j = sorted((row_of[a], row_of[b]), reverse=True)
        chosen.add((i, j))
    return blank_cells(reference_matrix(n2.places, n2.keys), len(n2.places),
                       chosen)


def build(workload: str, seed: int, limit: float) -> list[Case]:
    """The cases of `workload` for `seed`; `limit` is the per-net limit."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "reduce-chains":
        return [_reduce_case("chain", render([chain(CHAIN_PLACES)], rng), True, limit),
                _reduce_case("cycles", render([cycle_with_duplicate()
                                               for _ in range(CYCLES)], rng),
                             False, limit)]
    if workload == "explore-choice":
        net = render([choice_with_duplicate() for _ in range(CHOICES)], rng)
        return [_reduce_case("choice", net, True, limit)]
    if workload == "kernel-wide":
        return [_kernel_case("wide", rng, WIDE_LENGTH, False, limit)]
    if workload == "kernel-partial":
        return [_kernel_case("partial", rng, PARTIAL_LENGTH, True, limit)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reduce-chains", "explore-choice", "kernel-wide", "kernel-partial")
