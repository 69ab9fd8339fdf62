"""Concurrency matrices: triangular storage, text format, metrics.

A concurrency matrix records, for every unordered pair of nodes, whether the
two nodes can be marked together (1), cannot (0), or whether this is still
undecided (the `UNDECIDED` sentinel, written `.` in files). The diagonal
holds liveness: cell (v, v) is 1 exactly when v is not dead.

Text format, plain encoding::

    n                 one line, number of nodes
    <name>            n lines, node names in matrix order
    <row 0>           n rows; row i holds the i+1 cells C[i][0..i]
    ...               as the symbols '0', '1' and '.'

In the run-length encoding, any maximal run of k >= 2 equal symbols is
written ``k(s)``; isolated symbols stay literal except that a literal digit
directly followed by another run is wrapped as ``1(s)`` to keep decoding
unambiguous. The decoder is liberal: it accepts any mix of runs (including
k = 1) and literals, resolving digit sequences greedily as run counts when
they are followed by ``(``. Presence of ``(`` in a row is what tells the
reader that a file is run-length encoded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Sequence

from .errors import BadHeader, BadSymbol, OrderMismatch, RowLengthMismatch

#: Cell value for "relation not decided yet".
UNDECIDED = 2

_SYMBOL = {0: "0", 1: "1", UNDECIDED: "."}
_VALUE = {"0": 0, "1": 1, ".": UNDECIDED}


class ConcurrencyMatrix:
    """Lower-triangular symmetric matrix over an ordered node set.

    Cells take the values 0, 1 or `UNDECIDED`. The accessor normalises the
    index pair, so ``value(v, w) == value(w, v)`` by construction.
    `write_count` counts effective writes only: assignments that change the
    stored cell. Re-writing an equal value is free, which is what makes the
    propagation algorithms idempotent.
    """

    __slots__ = ("order", "_index", "_cells", "write_count")

    def __init__(self, order: Iterable, fill: int = 0):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("duplicate nodes in matrix order")
        if fill not in _SYMBOL:
            raise ValueError(f"bad fill value {fill!r}")
        self.order = order
        self._index = {node: i for i, node in enumerate(order)}
        n = len(order)
        self._cells = bytearray([fill]) * (n * (n + 1) // 2)
        self.write_count = 0

    # -- indexing -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.order)

    def index(self, node) -> int:
        return self._index[node]

    def __contains__(self, node) -> bool:
        return node in self._index

    @staticmethod
    def _offset(i: int, j: int) -> int:
        # caller guarantees i >= j
        return i * (i + 1) // 2 + j

    # -- cell access ----------------------------------------------------

    def value(self, a, b) -> int:
        """Cell value for the unordered node pair (a, b)."""
        return self.value_at(self._index[a], self._index[b])

    def value_at(self, i: int, j: int) -> int:
        if i < j:
            i, j = j, i
        return self._cells[self._offset(i, j)]

    def set_value(self, a, b, value: int) -> None:
        self.set_at(self._index[a], self._index[b], value)

    def set_at(self, i: int, j: int, value: int) -> None:
        if i < j:
            i, j = j, i
        k = self._offset(i, j)
        if self._cells[k] != value:
            self._cells[k] = value
            self.write_count += 1

    # -- whole-matrix views ---------------------------------------------

    @property
    def complete(self) -> bool:
        """True when no cell is undecided."""
        return UNDECIDED not in self._cells

    def defined_count(self) -> int:
        """Number of cells holding 0 or 1."""
        return len(self._cells) - self._cells.count(UNDECIDED)

    def row_symbols(self, i: int) -> str:
        """Row i of the triangle as a symbol string of length i + 1."""
        base = self._offset(i, 0)
        return "".join(_SYMBOL[v] for v in self._cells[base:base + i + 1])

    def restrict(self, order: Sequence) -> "ConcurrencyMatrix":
        """Sub-matrix over `order`, which must be a subset of the nodes."""
        sub = ConcurrencyMatrix(order, fill=0)
        idx = [self._index[node] for node in sub.order]
        cells = sub._cells
        for i, oi in enumerate(idx):
            base = sub._offset(i, 0)
            for j in range(i + 1):
                cells[base + j] = self.value_at(oi, idx[j])
        return sub

    def copy(self) -> "ConcurrencyMatrix":
        dup = ConcurrencyMatrix.__new__(ConcurrencyMatrix)
        dup.order = self.order
        dup._index = self._index
        dup._cells = bytearray(self._cells)
        dup.write_count = 0
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConcurrencyMatrix):
            return NotImplemented
        return self.order == other.order and self._cells == other._cells

    def __hash__(self):
        return hash((self.order, bytes(self._cells)))

    def __repr__(self) -> str:
        return (f"ConcurrencyMatrix({self.size} nodes,"
                f" {self.defined_count()}/{len(self._cells)} defined)")


@dataclass
class MatrixDocument:
    """A concurrency matrix bound to its node-name order and encoding."""

    order: tuple[str, ...]
    matrix: ConcurrencyMatrix
    encoding: str = "plain"

    def __post_init__(self):
        self.order = tuple(self.order)
        if self.order != self.matrix.order:
            raise ValueError("document order differs from matrix order")
        if any(not isinstance(name, str) for name in self.order):
            raise ValueError("matrix documents carry place names only")
        if self.encoding not in ("plain", "rle"):
            raise ValueError(f"unknown encoding {self.encoding!r}")


def _encode_row_rle(row: str) -> str:
    runs = [(sym, len(list(group))) for sym, group in groupby(row)]
    out: list[str] = []
    # `absorbing` tracks whether the emission to the right starts with
    # digits leading into a '(': a literal digit placed before that would
    # be swallowed into the run count, so it gets wrapped as 1(s)
    absorbing = False
    for sym, count in reversed(runs):
        if count >= 2:
            token = f"{count}({sym})"
            absorbing = True
        elif sym.isdigit() and absorbing:
            token = f"1({sym})"
            absorbing = True
        else:
            token = sym
            # a lone digit keeps the absorbing state; '.' breaks it
            absorbing = absorbing and sym.isdigit()
        out.append(token)
    return "".join(reversed(out))


_RLE_TOKEN = re.compile(r"(\d+)\(([01.])\)|([01.])")


def _decode_row_rle(text: str, row: int) -> str:
    parts: list[str] = []
    length = 0
    pos = 0
    while pos < len(text):
        match = _RLE_TOKEN.match(text, pos)
        if match is None:
            raise BadSymbol(row, length)
        if match.group(1) is not None:
            digits = match.group(1).lstrip("0")
            # int() refuses counts of thousands of digits; no row needs them
            if len(digits) > len(str(row + 1)):
                raise RowLengthMismatch(row)
            count, symbol = int(digits or "0"), match.group(2)
        else:
            count, symbol = 1, match.group(3)
        # bound the run before expanding it: row i holds i + 1 cells
        if count > row + 1 - length:
            raise RowLengthMismatch(row)
        parts.append(symbol * count)
        length += count
        pos = match.end()
    return "".join(parts)


def write_matrix(doc: MatrixDocument) -> str:
    """Serialize a matrix document in its declared encoding."""
    lines = [str(len(doc.order))]
    lines.extend(doc.order)
    for i in range(len(doc.order)):
        row = doc.matrix.row_symbols(i)
        lines.append(_encode_row_rle(row) if doc.encoding == "rle" else row)
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> MatrixDocument:
    """Parse a matrix document, auto-detecting the encoding."""
    lines = text.splitlines()
    if not lines:
        raise BadHeader("empty matrix document")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise BadHeader(f"bad node count {lines[0]!r}") from None
    if n < 0:
        raise BadHeader(f"negative node count {n}")
    if len(lines) < 1 + 2 * n:
        raise BadHeader(f"expected {1 + 2 * n} lines, got {len(lines)}")
    if any(line.strip() for line in lines[1 + 2 * n:]):
        raise BadHeader("unexpected content after the last matrix row")

    names = []
    for k in range(n):
        name = lines[1 + k].strip()
        if not name:
            raise BadHeader(f"empty node name at line {2 + k}")
        names.append(name)

    rows = lines[1 + n:1 + 2 * n]
    rle = any("(" in row for row in rows)
    matrix = ConcurrencyMatrix(names, fill=0)
    for i, raw in enumerate(rows):
        raw = raw.strip()
        row = _decode_row_rle(raw, i) if rle else raw
        if len(row) != i + 1:
            raise RowLengthMismatch(i)
        for j, sym in enumerate(row):
            if sym not in _VALUE:
                raise BadSymbol(i, j)
            matrix.set_at(i, j, _VALUE[sym])
    return MatrixDocument(tuple(names), matrix, "rle" if rle else "plain")


def filling_ratio(matrix: ConcurrencyMatrix) -> float:
    """Fraction of decided cells: 2|C| / (n^2 + n) with |C| the 0/1 count.

    The empty matrix is complete by convention, hence ratio 1.0.
    """
    n = matrix.size
    if n == 0:
        return 1.0
    return 2 * matrix.defined_count() / (n * n + n)


@dataclass
class ComparisonReport:
    """Outcome of comparing two matrix documents over one node order."""

    kind: str                                  # equal | compatible | contradiction
    resolved: int = 0                          # cells decided on one side only
    cells: list[tuple[int, int]] = field(default_factory=list)

    def __str__(self) -> str:
        if self.kind == "equal":
            return "equal"
        if self.kind == "compatible":
            return f"compatible ({self.resolved} cells resolved)"
        listed = ", ".join(f"({i},{j})" for i, j in self.cells)
        return f"contradiction at {listed}"


def compare_matrices(a: MatrixDocument, b: MatrixDocument) -> ComparisonReport:
    """Classify two documents as equal, compatible or contradictory.

    A contradiction is a cell decided 0 on one side and 1 on the other;
    compatibility means the only differences are undecided-versus-decided.
    """
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {list(a.order)} vs {list(b.order)}")
    contradictions: list[tuple[int, int]] = []
    resolved = 0
    for i in range(len(a.order)):
        for j in range(i + 1):
            va = a.matrix.value_at(i, j)
            vb = b.matrix.value_at(i, j)
            if va == vb:
                continue
            if va == UNDECIDED or vb == UNDECIDED:
                resolved += 1
            else:
                contradictions.append((i, j))
    if contradictions:
        return ComparisonReport("contradiction", resolved, contradictions)
    if resolved:
        return ComparisonReport("compatible", resolved)
    return ComparisonReport("equal")
