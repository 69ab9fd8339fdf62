"""Command line frontend.

Subcommands wire the pipeline together: `reduce` produces a residual net
plus its equation file, `matrix` rebuilds the concurrency matrix of the
initial net from those (or falls back to plain exploration), `oracle`
computes the ground truth, `compare` diffs two matrix files and
`check-tfg` validates an equation file against two nets.

Exit codes: 0 success, 1 usage, 2 unreadable input, 3 well-formedness or
safety violation, 4 matrix contradiction, 5 timeout without usable output.
Diagnostics go to standard error; results go to standard output or to the
requested file, written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .errors import (AnalysisError, CoplacesError, InputFormatError,
                     IncompleteRootRelation)
from .formats import load_net, read_text, write_net_text
from .kernel import RootRelation, matrix_complete, matrix_partial
from .matrix import (MatrixDocument, compare_matrices, read_matrix,
                     write_matrix)
from .ptnet import DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET, oracle_matrix
from .reductions import reduce_net
from .tfg import build_tfg, parse_equation_system, write_equation_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_ANALYSIS = 3
EXIT_CONTRADICTION = 4
EXIT_TIMEOUT = 5


class _TimeoutNoOutput(CoplacesError):
    """Exploration timed out and the requested mode has nothing to emit."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(convert):
    """Argument type: a value of `convert`'s type that is greater than 0."""
    def positive(text: str):
        value = convert(text)
        if not value > 0:                 # also rejects nan
            raise argparse.ArgumentTypeError(f"{text!r} is not positive")
        return value
    positive.__name__ = convert.__name__  # argparse names it in errors
    return positive


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_text(matrix, order, encoding: str) -> str:
    return write_matrix(MatrixDocument(tuple(order), matrix.restrict(order),
                                       encoding))


# -- subcommands -------------------------------------------------------------

def _cmd_reduce(args) -> int:
    doc = load_net(args.net)
    result = reduce_net(doc)
    stem = Path(args.net).stem
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_output(write_net_text(result.residual),
                  str(out_dir / f"{stem}.reduced.net"))
    _write_output(write_equation_system(result.equations),
                  str(out_dir / f"{stem}.eq"))
    ratio = result.ratio
    sys.stdout.write(f"reduction ratio: {ratio.numerator}/{ratio.denominator}\n")
    return EXIT_OK


def _cmd_matrix(args) -> int:
    doc1 = load_net(args.net1)

    if not args.equations:
        matrix = oracle_matrix(doc1.net, doc1.initial, cap=args.cap,
                               budget=args.timeout)
        if not matrix.complete and not args.partial:
            raise _TimeoutNoOutput(
                "exploration hit the cap or the time budget; rerun with"
                " --partial for a sound partial matrix")
        _write_output(_matrix_text(matrix, doc1.net.places, args.encoding),
                      args.output)
        return EXIT_OK

    doc2 = load_net(args.reduced)
    system = parse_equation_system(read_text(args.equations))
    tfg = build_tfg(system, doc1.net.places, doc2.net.places)
    for warning in tfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.rel2:
        rel2 = RootRelation.from_reduced_matrix(
            tfg, read_matrix(read_text(args.rel2)))
    else:
        rel2 = RootRelation.exact(tfg, doc2, cap=args.cap,
                                  budget=args.timeout)

    if args.partial:
        matrix = matrix_partial(tfg, rel2)
    elif not rel2.complete:
        if args.oracle:
            raise _TimeoutNoOutput(
                "residual exploration hit the cap or the time budget and"
                " the root relation is partial; rerun with --partial")
        raise IncompleteRootRelation(
            "the root relation file has undecided cells; use --partial")
    else:
        matrix = matrix_complete(tfg, rel2)
    _write_output(_matrix_text(matrix, doc1.net.places, args.encoding),
                  args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    doc = load_net(args.net)
    matrix = oracle_matrix(doc.net, doc.initial, cap=args.cap,
                           budget=args.timeout)
    if not matrix.complete:
        print("warning: exploration truncated, matrix is partial",
              file=sys.stderr)
    _write_output(_matrix_text(matrix, doc.net.places, args.encoding),
                  args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = read_matrix(read_text(args.m1))
    b = read_matrix(read_text(args.m2))
    report = compare_matrices(a, b)
    sys.stdout.write(f"{report}\n")
    return EXIT_CONTRADICTION if report.kind == "contradiction" else EXIT_OK


def _cmd_check_tfg(args) -> int:
    doc1 = load_net(args.net1)
    doc2 = load_net(args.net2)
    system = parse_equation_system(read_text(args.eqs))
    tfg = build_tfg(system, doc1.net.places, doc2.net.places)
    for warning in tfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    sys.stdout.write(f"well-formed: {len(tfg.nodes)} nodes,"
                     f" {len(tfg.roots)} roots\n")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="coplaces",
                     description="Dead places and concurrency relations of"
                                 " safe Petri nets via structural reduction")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(sub):
        sub.add_argument("--timeout", type=_positive(float),
                         default=DEFAULT_TIME_BUDGET,
                         metavar="S", help="exploration wall-clock budget"
                                           " in seconds (default 60)")
        sub.add_argument("--cap", type=_positive(int), default=DEFAULT_STATE_CAP,
                         metavar="K", help="exploration state cap"
                                           " (default 1000000)")

    sub = commands.add_parser("reduce", help="structurally reduce a net")
    sub.add_argument("net")
    sub.add_argument("-o", "--output", required=True, metavar="DIR",
                     help="directory receiving the residual net and"
                          " the equation file")
    sub.set_defaults(func=_cmd_reduce)

    sub = commands.add_parser(
        "matrix", help="concurrency matrix of a net, reconstructed through"
                       " a reduction when one is given")
    sub.add_argument("net1")
    sub.add_argument("--equations", metavar="EQ",
                     help="equation file relating net1 to the reduced net")
    sub.add_argument("--reduced", metavar="NET2", help="the reduced net")
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--rel2", metavar="MATRIX",
                        help="matrix file holding the reduced net's relation")
    source.add_argument("--oracle", action="store_true",
                        help="compute the reduced net's relation by"
                             " exploration")
    sub.add_argument("--partial", action="store_true",
                     help="accept a partial root relation and emit a sound"
                          " partial matrix")
    sub.add_argument("--rle", dest="encoding", action="store_const",
                     const="rle", default="plain",
                     help="run-length encode matrix rows")
    sub.add_argument("-o", "--output", metavar="FILE")
    add_budget_flags(sub)
    sub.set_defaults(func=_cmd_matrix)

    sub = commands.add_parser("oracle",
                              help="ground-truth matrix by state exploration")
    sub.add_argument("net")
    sub.add_argument("--rle", dest="encoding", action="store_const",
                     const="rle", default="plain")
    sub.add_argument("-o", "--output", metavar="FILE")
    add_budget_flags(sub)
    sub.set_defaults(func=_cmd_oracle)

    sub = commands.add_parser("compare", help="compare two matrix files")
    sub.add_argument("m1")
    sub.add_argument("m2")
    sub.set_defaults(func=_cmd_compare)

    sub = commands.add_parser("check-tfg",
                              help="validate an equation file against"
                                   " the two nets it relates")
    sub.add_argument("net1")
    sub.add_argument("net2")
    sub.add_argument("eqs")
    sub.set_defaults(func=_cmd_check_tfg)
    return parser


def dispatch(argv=None) -> int:
    """Run one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        if args.command == "matrix":
            if args.equations and not args.reduced:
                parser.error("--equations requires --reduced")
            if not args.equations and (args.rel2 or args.oracle or args.reduced):
                parser.error("--reduced/--rel2/--oracle require --equations")
            if args.equations and not (args.rel2 or args.oracle):
                parser.error("give the reduced relation via --rel2 or --oracle")
        return args.func(args)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    except _TimeoutNoOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (ValueError, OSError, CoplacesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())
