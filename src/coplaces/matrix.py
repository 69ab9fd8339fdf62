"""Concurrency matrices: bit-mask rows, text format, metrics.

A concurrency matrix records, for every unordered pair of nodes, whether the
two nodes can be marked together (1), cannot (0), or whether this is still
undecided (the `UNDECIDED` sentinel, written `.` in files). The diagonal
holds liveness: cell (v, v) is 1 exactly when v is not dead.

A set of nodes is an ``int`` mask in every layer: bit i stands for
``order[i]``, the i-th node of the matrix order, and `bits` lists them.

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
they are followed by ``(``; one split cuts a row into literals and runs,
and the first literal character that is no symbol ends the row's valid
prefix, so a row decodes in linear time and memory. Presence of ``(`` in a
row is what tells the reader that a file is run-length encoded.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .errors import (BadHeader, BadSymbol, OrderMismatch, RowLengthMismatch,
                     UnwritableNodeName, shown)

#: Cell value for "relation not decided yet".
UNDECIDED = 2

_BLOCK = 512        # rows per text in `transpose`


def parse_count(text: str) -> int | None:
    """`text` as a count if it is ASCII digits that `int` converts, else None."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


_NOT_IN_NAMES = re.compile(r"[\s#*+=]")


def writable_name(name: str) -> bool:
    """Whether `name` reads back as itself from the net and equation texts.

    A name is one token without the comment sign `#`, the weight sign `*`
    or the equation signs `+` and `=`; it is not the arrow `->`, and it is
    no number, which the equation text would read as a constant.
    """
    return (bool(name) and not _NOT_IN_NAMES.search(name)
            and name != "->" and not name.isdigit())


class Record:
    """Equality and repr over `__slots__`, as a dataclass gives them, for
    the mutable result classes: importing `dataclasses` would load
    `inspect` at every start-up."""

    __slots__ = ()

    def _items(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._items()))
        return f"{self.__class__.__qualname__}({fields})"


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The `width` columns of `rows`: bit j of column k is bit k of rows[j].

    Rows are below ``2**width``. They are read `_BLOCK` at a time as one
    '0'/'1' text, from which each column is one stride slice, so scratch
    memory stays at width * `_BLOCK` characters.
    """
    columns = [0] * width
    for start in range(0, len(rows), _BLOCK):
        # the block's last row first, each most significant bit first:
        # bit k of row start + t is character width-1-k of the t-th row
        # from the end, so the slice reads the column highest row first
        text = "".join(format(row, f"0{width}b")
                       for row in reversed(rows[start:start + _BLOCK]))
        for k in range(width):
            columns[k] |= int(text[width - 1 - k::width], 2) << start
    return columns


def reorder(rows: Sequence[int], source: Sequence[int]) -> list[int]:
    """Symmetric `rows` moved into another node order: bit j of row k is
    bit source[j] of rows[source[k]], or 0 where either is -1. By symmetry,
    column source[k] of the rows picked in the new order is new row k.
    """
    picked = [rows[s] if s >= 0 else 0 for s in source]
    columns = transpose(picked, len(rows))
    return [columns[s] if s >= 0 else 0 for s in source]


class ConcurrencyMatrix:
    """Symmetric matrix over an ordered node set, one whole row per node.

    `index` maps each node to its position in `order`. Row i covers the
    cells (i, 0..n-1) as two masks: ``_ones[i]`` holds the 1 cells and
    ``_zeros[i]`` the 0 cells; a cell in neither is `UNDECIDED`. Bit j of
    row i always equals bit i of row j. `write_count` counts effective
    writes only, one per cell (i, j) with j <= i: assignments that change
    a stored cell. Re-writing an equal value is free, which is what makes
    the propagation algorithms idempotent.
    """

    __slots__ = ("order", "index", "_ones", "_zeros", "write_count")

    def __init__(self, order: Iterable, fill: int = 0):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("duplicate nodes in matrix order")
        if fill not in (0, 1, UNDECIDED):
            raise ValueError(f"bad fill value {fill!r}")
        self.order = order
        self.index = {node: i for i, node in enumerate(order)}
        full = [(1 << len(order)) - 1] * len(order)
        self._ones = full if fill == 1 else [0] * len(order)
        self._zeros = full if fill == 0 else [0] * len(order)
        self.write_count = 0

    @property
    def size(self) -> int:
        return len(self.order)

    # -- cell access ----------------------------------------------------

    def value(self, a, b) -> int:
        """Cell value for the unordered node pair (a, b)."""
        return self.value_at(self.index[a], self.index[b])

    def value_at(self, i: int, j: int) -> int:
        if self._ones[i] >> j & 1:
            return 1
        return 0 if self._zeros[i] >> j & 1 else UNDECIDED

    def set_value(self, a, b, value: int) -> None:
        self.set_at(self.index[a], self.index[b], value)

    def set_at(self, i: int, j: int, value: int) -> None:
        if self.value_at(i, j) != value:
            for row, bit in ((i, 1 << j), (j, 1 << i)):
                self._ones[row] = self._ones[row] & ~bit | bit * (value == 1)
                self._zeros[row] = self._zeros[row] & ~bit | bit * (value == 0)
            self.write_count += 1

    def _write(self, i: int, new: int, value: int) -> None:
        # `new` holds bits of row i that do not hold `value` (0 or 1) yet
        self._ones[i] &= ~new
        self._zeros[i] &= ~new
        (self._ones if value else self._zeros)[i] |= new
        self.write_count += (new & ((2 << i) - 1)).bit_count()

    def add_ones(self, rows: Sequence[int]) -> None:
        """Set to 1 every cell (i, j) with bit j in symmetric rows[i]."""
        for i, row in enumerate(rows):
            if new := row & ~self._ones[i]:
                self._write(i, new, 1)

    def add_zeros(self, rows: Sequence[int]) -> None:
        """Set to 0 every undecided cell (i, j), bit j in symmetric rows[i]."""
        for i, row in enumerate(rows):
            if new := row & ~(self._ones[i] | self._zeros[i]):
                self._write(i, new, 0)

    def full_rows(self) -> tuple[list[int], list[int]]:
        """Copies of the 1-rows and 0-rows, bit j of row i being cell (i, j)."""
        return list(self._ones), list(self._zeros)

    # -- whole-matrix views ---------------------------------------------

    @property
    def complete(self) -> bool:
        """True when no cell is undecided."""
        return self.defined_count() == self.size * (self.size + 1) // 2

    def defined_count(self) -> int:
        """Number of cells holding 0 or 1."""
        return sum(((one | zero) & ((2 << i) - 1)).bit_count() for i, (one, zero)
                   in enumerate(zip(self._ones, self._zeros)))

    def row_symbols(self, i: int) -> str:
        """Row i of the triangle as a symbol string of length i + 1."""
        low, width = (2 << i) - 1, i + 1
        ones = self._ones[i] & low
        undecided = ~(ones | self._zeros[i]) & low
        if not undecided:
            return format(ones, f"0{width}b")[::-1]
        # an undecided cell's '0' gains 2 to become '2', shown as '.'
        row = (int.from_bytes(format(ones, f"0{width}b").encode(), "big")
               + int.from_bytes(format(undecided, f"0{width}b").encode()
                                .translate(_TWOS), "big"))
        return row.to_bytes(width, "big").translate(_DOTS)[::-1].decode()

    def restrict(self, order: Sequence) -> "ConcurrencyMatrix":
        """Sub-matrix over `order`, which must be a prefix of the nodes."""
        sub = ConcurrencyMatrix(order, fill=UNDECIDED)
        if self.order[:sub.size] != sub.order:
            raise ValueError("restrict needs a prefix of the matrix order")
        width = (1 << sub.size) - 1
        sub._ones, sub._zeros = ([row & width for row in rows[:sub.size]]
                                 for rows in (self._ones, self._zeros))
        return sub

    def copy(self) -> "ConcurrencyMatrix":
        return self.restrict(self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConcurrencyMatrix):
            return NotImplemented
        return (self.order == other.order and self._ones == other._ones
                and self._zeros == other._zeros)

    def __repr__(self) -> str:
        return (f"ConcurrencyMatrix({self.size} nodes, {self.defined_count()}"
                f"/{self.size * (self.size + 1) // 2} defined)")


class MatrixDocument(Record):
    """A concurrency matrix bound to its node-name order and encoding."""

    __slots__ = ("order", "matrix", "encoding")

    def __init__(self, order: Iterable[str], matrix: ConcurrencyMatrix,
                 encoding: str = "plain"):
        self.order = tuple(order)
        self.matrix = matrix
        self.encoding = encoding
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


_RLE_RUN = re.compile(r"(?<!\d)(\d+)\(([01.])\)")
_BAD_SYMBOL = re.compile(r"[^01.]")
_ZERO_BITS = str.maketrans("01.", "100")
_TWOS = bytes.maketrans(b"01", b"\x00\x02")
_DOTS = bytes.maketrans(b"2", b".")


def _decode_row_rle(text: str, row: int) -> str:
    # literal, count, symbol, literal, count, symbol, ..., literal: a run's
    # count is a whole digit block, so no block is read twice
    parts = _RLE_RUN.split(text)
    # the longest prefix of whole tokens ends at the first literal
    # character that is no cell symbol
    bad = None
    for k in range(0, len(parts), 3):
        if parts[k] and (bad := _BAD_SYMBOL.search(parts[k])):
            parts[k:] = [parts[k][:bad.start()]]
            break
    counts = [count.lstrip("0") or "0" for count in parts[1::3]]
    # bound the runs before expanding them: row i holds i + 1 cells, and
    # int() refuses counts of thousands of digits, which no row needs
    if max(map(len, counts), default=0) > len(str(row + 1)):
        raise RowLengthMismatch(row)
    counts = list(map(int, counts))
    length = sum(counts) + sum(map(len, parts[::3]))
    if length > row + 1:
        raise RowLengthMismatch(row)
    if bad:
        raise BadSymbol(row, length)
    parts[1::3] = [symbol * count for symbol, count in zip(parts[2::3], counts)]
    del parts[2::3]
    return "".join(parts)


def write_matrix(doc: MatrixDocument) -> str:
    """Serialize a matrix document in its declared encoding.

    Raises `UnwritableNodeName` for a name that `read_matrix` would not
    return as itself: an empty one, one with surrounding whitespace, or one
    that `str.splitlines` splits.
    """
    for name in doc.order:
        if name.strip() != name or name.splitlines() != [name]:
            raise UnwritableNodeName(name)
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
    n = parse_count(lines[0].strip())
    if n is None:
        raise BadHeader(f"bad node count {shown(lines[0])}")
    if len(lines) < 1 + 2 * n:
        raise BadHeader(f"expected {1 + 2 * n} lines, got {len(lines)}")
    if any(line.strip() for line in lines[1 + 2 * n:]):
        raise BadHeader("unexpected content after the last matrix row")

    names: dict[str, None] = {}
    for k in range(n):
        name = lines[1 + k].strip()
        if not name:
            raise BadHeader(f"empty node name at line {2 + k}")
        if name in names:
            raise BadHeader(f"duplicate node name {shown(name)} at line {2 + k}")
        names[name] = None

    lines = lines[1 + n:1 + 2 * n]
    rle = any("(" in line for line in lines)
    ones, zeros = [], []        # the cells (i, 0..i) of each row i
    for i, raw in enumerate(lines):
        raw = raw.strip()
        row = _decode_row_rle(raw, i) if rle else raw
        if len(row) != i + 1:
            raise RowLengthMismatch(i)
        # int(row, 2) also takes '_', '+', spaces and other digits: check first
        if bad := _BAD_SYMBOL.search(row):
            raise BadSymbol(i, bad.start())
        ones.append(int(row.replace(".", "0")[::-1], 2))
        zeros.append(int(row.translate(_ZERO_BITS)[::-1], 2))
    del lines                   # the row texts go before the mirror's scratch
    matrix = ConcurrencyMatrix(names, fill=UNDECIDED)
    # column i of the triangle holds the rest of row i
    matrix._ones, matrix._zeros = (
        [row | column for row, column in zip(rows, transpose(rows, n))]
        for rows in (ones, zeros))
    return MatrixDocument(tuple(names), matrix, "rle" if rle else "plain")


def filling_ratio(matrix: ConcurrencyMatrix) -> float:
    """Fraction of decided cells: 2|C| / (n^2 + n) with |C| the 0/1 count.

    The empty matrix is complete by convention, hence ratio 1.0.
    """
    n = matrix.size
    if n == 0:
        return 1.0
    return 2 * matrix.defined_count() / (n * n + n)


class ComparisonReport(Record):
    """Outcome of comparing two matrix documents over one node order.

    `kind` is equal, compatible or contradiction; `resolved` counts the
    cells decided on one side only, and `cells` lists the contradictions.
    """

    __slots__ = ("kind", "resolved", "cells")

    def __init__(self, kind: str, resolved: int = 0,
                 cells: list[tuple[int, int]] | None = None):
        self.kind = kind
        self.resolved = resolved
        self.cells = [] if cells is None else cells

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
        raise OrderMismatch(a.order, b.order)
    contradictions: list[tuple[int, int]] = []
    resolved = 0
    rows = zip(a.matrix._ones, a.matrix._zeros, b.matrix._ones, b.matrix._zeros)
    for i, (a1, a0, b1, b0) in enumerate(rows):
        low = (2 << i) - 1
        resolved += (((a1 | a0) ^ (b1 | b0)) & low).bit_count()
        contradictions.extend((i, j) for j in bits((a1 & b0 | a0 & b1) & low))
    if contradictions:
        return ComparisonReport("contradiction", resolved, contradictions)
    if resolved:
        return ComparisonReport("compatible", resolved)
    return ComparisonReport("equal")
