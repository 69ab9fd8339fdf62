"""Command line frontend.

Subcommands wire the pipeline together: `reduce` produces a residual net
plus its equation file, `matrix` rebuilds the concurrency matrix of the
initial net from those (without them, the net is its own residual),
`oracle` computes the ground truth, `compare` diffs two matrix files and
`check-tfg` validates an equation file against two nets.

Exit codes: 0 success, 1 usage, 2 unreadable input, 3 well-formedness or
safety violation, 4 matrix contradiction, 5 timeout without usable output.
An error's code is the `exit_code` of its family in `errors.py`.
Diagnostics go to standard error; results go to standard output or to the
requested file, written atomically.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BudgetExhausted, CoplacesError, IncompleteRootRelation
from .formats import load_net, read_text, write_net_text
from .kernel import RootRelation, matrix_complete, matrix_partial
from .matrix import (MatrixDocument, compare_matrices, read_matrix,
                     write_matrix)
from .ptnet import DEFAULT_STATE_CAP, DEFAULT_TIME_BUDGET, oracle_matrix
from .reductions import reduce_net
from .tfg import build_tfg, parse_equation_system, write_equation_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRADICTION = 4


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
    # imported here: `tempfile` loads `random` and `shutil`, and only a
    # written file needs it
    import tempfile
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the target alone: the temp file's name is random
            raise OSError(exc.errno, exc.strerror, output) from exc
        raise


def _matrix_text(matrix, order, encoding: str) -> str:
    return write_matrix(MatrixDocument(tuple(order), matrix.restrict(order),
                                       encoding))


# -- subcommands -------------------------------------------------------------

def _cmd_reduce(args) -> int:
    doc = load_net(args.net)
    result = reduce_net(doc, budget=args.timeout)
    # both texts first: a name neither format reads back writes no file
    net_text = write_net_text(result.residual)
    eq_text = write_equation_system(result.equations)
    stem = Path(args.net).stem
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_output(net_text, str(out_dir / f"{stem}.reduced.net"))
    _write_output(eq_text, str(out_dir / f"{stem}.eq"))
    ratio = result.ratio
    sys.stdout.write(f"reduction ratio: {ratio.numerator}/{ratio.denominator}\n")
    return EXIT_OK


def _load_graph(doc1, net2: str, eqs: str):
    """Net 2 and the token flow graph of the equation file `eqs` from net 1
    to it; the graph's warnings go to standard error."""
    doc2 = load_net(net2)
    system = parse_equation_system(read_text(eqs))
    tfg = build_tfg(system, doc1.net.places, doc2.net.places)
    for warning in tfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return doc2, tfg


def _cmd_matrix(args) -> int:
    doc1 = load_net(args.net1)
    places = doc1.net.places
    # each source of the root relation, with the refusal of its holes
    if not args.equations:
        # the net is its own residual, under an empty equation file
        tfg = build_tfg(parse_equation_system(""), places, places)
        relation = RootRelation.from_reduced_matrix(tfg, oracle_matrix(
            doc1.net, doc1.initial, cap=args.cap, budget=args.timeout))
        refusal = BudgetExhausted(
            "exploration hit the cap or the time budget; rerun with"
            " --partial for a sound partial matrix")
    else:
        doc2, tfg = _load_graph(doc1, args.reduced, args.equations)
        if args.rel2:
            relation = RootRelation.from_reduced_matrix(
                tfg, read_matrix(read_text(args.rel2)))
            refusal = IncompleteRootRelation(
                "the root relation file has undecided cells; use --partial")
        else:
            relation = RootRelation.exact(tfg, doc2, cap=args.cap,
                                          budget=args.timeout)
            refusal = BudgetExhausted(
                "residual exploration hit the cap or the time budget and"
                " the root relation is partial; rerun with --partial")
    if not (relation.complete or args.partial):
        raise refusal
    matrix = (matrix_partial if args.partial else matrix_complete)(tfg, relation)
    _write_output(_matrix_text(matrix, places, args.encoding), args.output)
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
    _, tfg = _load_graph(load_net(args.net1), args.net2, args.eqs)
    sys.stdout.write(f"well-formed: {len(tfg.nodes)} nodes,"
                     f" {len(tfg.roots)} roots\n")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser as it was, so one serves every dispatch
    parser = _Parser(prog="coplaces",
                     description="Dead places and concurrency relations of"
                                 " safe Petri nets via structural reduction")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_timeout(sub, stage):
        sub.add_argument("--timeout", type=_positive(float),
                         default=DEFAULT_TIME_BUDGET,
                         metavar="S", help=f"{stage} wall-clock budget"
                                           " in seconds (default 60)")

    def add_budget_flags(sub):
        add_timeout(sub, "exploration")
        sub.add_argument("--cap", type=_positive(int), default=DEFAULT_STATE_CAP,
                         metavar="K", help="exploration state cap"
                                           " (default 1000000)")

    sub = commands.add_parser("reduce", help="structurally reduce a net")
    sub.add_argument("net")
    sub.add_argument("-o", "--output", required=True, metavar="DIR",
                     help="directory receiving the residual net and"
                          " the equation file")
    add_timeout(sub, "reduction")
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
    except (ValueError, OSError, CoplacesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


def main() -> None:
    sys.exit(dispatch())
