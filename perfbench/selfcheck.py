"""Check the benchmark's closed-form references against the oracle.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. For small instances of every
family, over several seeds, the reference matrix that `families` renders
must equal the matrix `coplaces.oracle_matrix` computes by exploring the
net; for the kernel family this covers the initial net (read back from
PNML) and its residual. The half-blank residual relation of
`kernel-partial` must blank exactly half of the off-diagonal cells and
agree with the oracle on the rest. Exits 1 on the first disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from coplaces import (MatrixDocument, oracle_matrix, parse_net_text,  # noqa: E402
                      parse_pnml, read_matrix, write_matrix)

from workloads import half_blank_relation  # noqa: E402
from families import (chain, choice_with_duplicate, cycle_with_duplicate,  # noqa: E402
                      expanded_choice, expansion_residual, net_pnml, net_text,
                      reference_matrix, render)


def oracle_text(doc) -> str:
    matrix = oracle_matrix(doc.net, doc.initial)
    return write_matrix(MatrixDocument(doc.net.places, matrix))


def check(label: str, got: str, want: str) -> None:
    if got != want:
        sys.exit(f"selfcheck: {label}: reference differs from oracle_matrix")
    print(f"ok  {label}")


def main() -> None:
    for seed in range(3):
        rng = random.Random(seed)
        small = {
            "chain": [chain(7)],
            "cycles": [cycle_with_duplicate() for _ in range(3)],
            "choice": [choice_with_duplicate() for _ in range(3)],
        }
        for name, components in small.items():
            net = render(components, rng)
            check(f"{name} seed {seed}", oracle_text(parse_net_text(net_text(net))),
                  reference_matrix(net.places, net.keys))

        n1 = render([expanded_choice(3) for _ in range(3)], rng)
        n2 = expansion_residual(n1, rng)
        check(f"expanded choice seed {seed}", oracle_text(parse_pnml(net_pnml(n1, "n1"))),
              reference_matrix(n1.places, n1.keys))
        truth = oracle_text(parse_net_text(net_text(n2)))
        check(f"residual seed {seed}", truth, reference_matrix(n2.places, n2.keys))

        blanked = read_matrix(half_blank_relation(n2)).matrix
        exact = read_matrix(truth).matrix
        n = len(n2.places)
        blanks = [(i, j) for i in range(n) for j in range(i + 1)
                  if blanked.value_at(i, j) not in (0, 1)]
        if len(blanks) != n * (n - 1) // 2 // 2 or any(i == j for i, j in blanks) \
                or any(blanked.value_at(i, j) != exact.value_at(i, j)
                       for i in range(n) for j in range(i + 1)
                       if (i, j) not in blanks):
            sys.exit(f"selfcheck: half-blank relation seed {seed} is wrong")
        print(f"ok  half-blank relation seed {seed}")


if __name__ == "__main__":
    main()
