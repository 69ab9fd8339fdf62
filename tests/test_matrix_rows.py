"""The bit-row matrix core against cell-by-cell references.

Each row operation of `ConcurrencyMatrix` (`relate`, `full_rows`,
`add_ones`, `add_zeros`, `restrict`, `copy`, `row_symbols`), the row movers
`transpose` and `reorder` (and `permute`, the per-row mover `reorder`
replaced) and each row-wise reader and writer
(`compare_matrices`, `read_matrix`, `write_matrix`) is checked on seeded
random cases against the cell loop it replaces; every write keeps the rows
symmetric.
"""

import random
from operator import itemgetter

import pytest

from coplaces.errors import BadSymbol
from coplaces.matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument,
                             _encode_row_rle, bits, compare_matrices,
                             read_matrix, reorder, transpose, write_matrix)


def _order(n):
    return tuple(f"p{k}" for k in range(n))


def _random_matrix(rng, n):
    matrix = ConcurrencyMatrix(_order(n), fill=UNDECIDED)
    for i in range(n):
        for j in range(i + 1):
            matrix.set_at(i, j, rng.choice((0, 1, UNDECIDED)))
    return matrix


def _cells(matrix):
    return [[matrix.value_at(i, j) for j in range(i + 1)]
            for i in range(matrix.size)]


def _symmetric_rows(rng, n, chance=0.5):
    """Rows of a random symmetric relation over n nodes."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < chance:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _mask_pairs(rng, n):
    """Empty, disjoint, overlapping, equal and random masks over n bits."""
    full = (1 << n) - 1
    low = rng.getrandbits(n) & full
    yield 0, 0
    yield 0, low
    yield low, 0
    yield low, full & ~low
    yield low, low
    yield full, full
    for _ in range(4):
        xs = rng.getrandbits(n)
        yield xs, xs | rng.getrandbits(n)
        yield rng.getrandbits(n), rng.getrandbits(n)


@pytest.mark.parametrize("seed", range(6))
def test_relate_matches_set_at_double_loop(seed):
    rng = random.Random(seed)
    for n in (1, 2, 7, 40, 70):
        starts = (ConcurrencyMatrix(_order(n), fill=0),
                  ConcurrencyMatrix(_order(n), fill=UNDECIDED),
                  _random_matrix(rng, n))
        for start in starts:
            for xs, ys in _mask_pairs(rng, n):
                fast, slow = start.copy(), start.copy()
                fast.relate(xs, ys)
                for x in range(n):
                    for y in range(n):
                        if xs >> x & 1 and ys >> y & 1:
                            slow.set_at(x, y, 1)
                assert _cells(fast) == _cells(slow)
                assert fast == slow
                assert fast.write_count == slow.write_count


@pytest.mark.parametrize("seed", range(6))
def test_full_rows_match_value_at(seed):
    rng = random.Random(seed)
    for n in (0, 1, 7, 40, 70):
        matrix = _random_matrix(rng, n)
        before = _cells(matrix)
        ones, zeros = matrix.full_rows()
        assert len(ones) == len(zeros) == n
        for i in range(n):
            assert ones[i] >> n == zeros[i] >> n == 0
            for j in range(n):
                value = matrix.value_at(i, j)
                assert ones[i] >> j & 1 == (value == 1)
                assert zeros[i] >> j & 1 == (value == 0)
        # the rows are copies: changing them leaves the matrix as it was
        ones[:] = zeros[:] = [(1 << n) - 1] * n
        assert _cells(matrix) == before


@pytest.mark.parametrize("seed", range(6))
def test_add_zeros_matches_set_at_loop(seed):
    rng = random.Random(seed)
    for n in (1, 2, 7, 40, 70):
        full = (1 << n) - 1
        starts = (ConcurrencyMatrix(_order(n), fill=1),
                  ConcurrencyMatrix(_order(n), fill=UNDECIDED),
                  _random_matrix(rng, n))
        for start in starts:
            for rows in ([0] * n, [full] * n, _symmetric_rows(rng, n)):
                fast, slow = start.copy(), start.copy()
                fast.add_zeros(rows)
                for i in range(n):
                    for j in range(i + 1):
                        if rows[i] >> j & 1 and slow.value_at(i, j) == UNDECIDED:
                            slow.set_at(i, j, 0)
                assert fast == slow
                assert fast.write_count == slow.write_count
                for i in range(n):
                    for j in range(i + 1):
                        if start.value_at(i, j) == 1:
                            assert fast.value_at(i, j) == 1


@pytest.mark.parametrize("seed", range(6))
def test_add_ones_matches_set_at_loop(seed):
    rng = random.Random(seed)
    for n in (1, 2, 7, 40, 70):
        full = (1 << n) - 1
        starts = (ConcurrencyMatrix(_order(n), fill=0),
                  ConcurrencyMatrix(_order(n), fill=UNDECIDED),
                  _random_matrix(rng, n))
        for start in starts:
            for rows in ([0] * n, [full] * n, _symmetric_rows(rng, n)):
                fast, slow = start.copy(), start.copy()
                fast.add_ones(rows)
                for i in range(n):
                    for j in range(i + 1):
                        if rows[i] >> j & 1:
                            slow.set_at(i, j, 1)
                assert _cells(fast) == _cells(slow)
                assert fast == slow
                assert fast.write_count == slow.write_count


def permute(mask, source):
    """The one-row string move that `reorder` replaced, kept as its
    reference: bit k is bit source[k] of `mask`, or 0 where source[k] is
    -1."""
    if not source:
        return 0
    # bit j of `mask` at position j, and a 0 at position -1
    text = format(mask, f"0{len(source) + 1}b")[::-1]
    return int("".join(itemgetter(*source)(text))[::-1], 2)


@pytest.mark.parametrize("seed", range(6))
def test_permute_matches_bit_loop(seed):
    rng = random.Random(seed)
    for old in (0, 1, 2, 7, 40, 70):
        for new in {old, old + 1, old + rng.randrange(1, 40)} - {0}:
            # every old node at a random new place, the rest of them absent
            source = list(range(old)) + [-1] * (new - old)
            rng.shuffle(source)
            for mask in (0, (1 << old) - 1, rng.getrandbits(old)):
                expected = sum(1 << k for k, s in enumerate(source)
                               if s >= 0 and mask >> s & 1)
                assert permute(mask, source) == expected
    assert permute(0, []) == 0
    assert permute(0b101, [2, -1, 0, 1]) == 0b101


@pytest.mark.parametrize("seed", range(4))
def test_reorder_matches_bit_loop(seed):
    rng = random.Random(seed)
    # old node counts across a 64-bit word, new ones across blocks of 512
    for width in (0, 1, 63, 64, 65):
        rows = _symmetric_rows(rng, width, rng.choice((0.1, 0.5, 0.9)))
        for count in (0, 511, 512, 513, 1100):
            # some or all old nodes at random new places, the rest absent
            most = min(width, count)
            kept = rng.sample(range(width),
                              rng.choice((most, rng.randint(0, most))))
            source = kept + [-1] * (count - len(kept))
            rng.shuffle(source)
            where = {s: k for k, s in enumerate(source) if s >= 0}
            expected = [sum(1 << where[j] for j in bits(rows[s]) if j in where)
                        if s >= 0 else 0 for s in source]
            assert reorder(rows, source) == expected
            assert expected == [permute(rows[s], source) if s >= 0 else 0
                                for s in source]
    assert reorder([], []) == []
    assert reorder([0b1], [-1, 0]) == [0, 0b10]


@pytest.mark.parametrize("seed", range(4))
def test_transpose_matches_bit_loop(seed):
    rng = random.Random(seed)
    # row counts up to three blocks of 512, widths across 64-bit words
    for count, width in ((0, 0), (0, 5), (3, 0), (1, 1), (5, 9), (64, 64),
                         (65, 63), (130, 129), (40, 200), (512, 3),
                         (513, 65), (1100, 7)):
        rows = [rng.choice((0, (1 << width) - 1, rng.getrandbits(width)))
                for _ in range(count)]
        columns = [sum((row >> k & 1) << j for j, row in enumerate(rows))
                   for k in range(width)]
        assert transpose(rows, width) == columns


def _row_symbols_per_bit(matrix, i):
    """The per-cell loop `row_symbols` used to be."""
    ones, zeros = matrix.full_rows()
    low = (2 << i) - 1
    row = list(format(ones[i] & low, f"0{i + 1}b")[::-1])
    for j in bits(~(ones[i] | zeros[i]) & low):
        row[j] = "."
    return "".join(row)


@pytest.mark.parametrize("seed", range(3))
def test_row_symbols_and_writer_match_cell_loop(seed):
    rng = random.Random(seed)
    kinds = ((0, 1, UNDECIDED), (0, 1), (UNDECIDED,), (0,), (1,))
    for n in (1, 2, 8, 63, 64, 65, 66, 127, 128, 129, 200):
        # each triangle row draws its cells from one kind: mixed, decided,
        # all undecided, all 0 or all 1
        matrix = ConcurrencyMatrix(_order(n), fill=UNDECIDED)
        for i in range(n):
            values = rng.choice(kinds)
            for j in range(i + 1):
                matrix.set_at(i, j, rng.choice(values))
        rows = [_row_symbols_per_bit(matrix, i) for i in range(n)]
        assert [matrix.row_symbols(i) for i in range(n)] == rows
        head = [str(n), *_order(n)]
        for encoding, encode in (("plain", str), ("rle", _encode_row_rle)):
            text = write_matrix(MatrixDocument(_order(n), matrix, encoding))
            assert text == "\n".join(head + [encode(r) for r in rows]) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_rows_stay_symmetric(seed):
    rng = random.Random(seed)
    for n in (1, 2, 7, 40, 70):
        matrix = ConcurrencyMatrix(_order(n), fill=rng.choice((0, 1, UNDECIDED)))
        for _ in range(30):
            step = rng.randrange(4)
            if step == 0:
                matrix.set_at(rng.randrange(n), rng.randrange(n),
                              rng.choice((0, 1, UNDECIDED)))
            elif step == 1:
                matrix.relate(rng.getrandbits(n), rng.getrandbits(n))
            elif step == 2:
                matrix.add_ones(_symmetric_rows(rng, n, 0.1))
            else:
                matrix.add_zeros(_symmetric_rows(rng, n, 0.3))
            ones, zeros = matrix.full_rows()
            for rows in (ones, zeros):
                for i in range(n):
                    assert rows[i] >> n == 0
                    for j in range(n):
                        assert rows[i] >> j & 1 == rows[j] >> i & 1


def _reference_report(a, b):
    contradictions, resolved = [], 0
    for i in range(a.size):
        for j in range(i + 1):
            va, vb = a.value_at(i, j), b.value_at(i, j)
            if va == vb:
                continue
            if UNDECIDED in (va, vb):
                resolved += 1
            else:
                contradictions.append((i, j))
    if contradictions:
        return "contradiction", resolved, contradictions
    return ("compatible" if resolved else "equal"), resolved, []


@pytest.mark.parametrize("seed", range(6))
def test_compare_matrices_matches_cell_loop(seed):
    rng = random.Random(seed)
    for n in (0, 1, 3, 12, 65):
        a = _random_matrix(rng, n)
        # an equal copy, a copy with cells blanked or flipped, an unrelated one
        for b in (a.copy(), a.copy(), a.copy(), _random_matrix(rng, n)):
            for i in range(n):
                for j in range(i + 1):
                    if rng.random() < 0.1:
                        b.set_at(i, j, rng.choice((0, 1, UNDECIDED)))
            for left, right in ((a, b), (b, a)):
                report = compare_matrices(MatrixDocument(_order(n), left),
                                          MatrixDocument(_order(n), right))
                assert ((report.kind, report.resolved, report.cells)
                        == _reference_report(left, right))


# a space at either end of a row is stripped, so it is tested inside only
@pytest.mark.parametrize("symbol, column", [
    (symbol, column) for symbol in "_+١" for column in range(3)] + [(" ", 1)])
def test_read_matrix_rejects_what_int_accepts(symbol, column):
    row = list("1.0")
    row[column] = symbol
    with pytest.raises(BadSymbol) as err:
        read_matrix("3\na\nb\nc\n1\n11\n" + "".join(row) + "\n")
    assert (err.value.row, err.value.col) == (2, column)


def test_read_matrix_round_trips_random_rows():
    rng = random.Random(7)
    for n in (1, 5, 33, 80):
        matrix = _random_matrix(rng, n)
        for encoding in ("plain", "rle"):
            text = write_matrix(MatrixDocument(_order(n), matrix, encoding))
            doc = read_matrix(text)
            assert _cells(doc.matrix) == _cells(matrix)
            assert doc.matrix.write_count == 0


def test_restrict_needs_a_prefix():
    matrix = ConcurrencyMatrix("abcd", fill=UNDECIDED)
    with pytest.raises(ValueError):
        matrix.restrict("dcba")
    with pytest.raises(ValueError):
        matrix.restrict("bc")
    assert matrix.restrict("").size == 0


def test_restrict_and_copy_are_independent_of_the_source():
    rng = random.Random(3)
    source = _random_matrix(rng, 6)
    before = _cells(source)
    assert source.restrict(source.order) == source
    assert _cells(source.restrict(_order(3))) == before[:3]
    for derived in (source.copy(), source.restrict(_order(4)),
                    source.restrict(source.order)):
        for i in range(derived.size):
            for j in range(i + 1):
                derived.set_at(i, j, (source.value_at(i, j) + 1) % 3)
        derived.relate((1 << derived.size) - 1, (1 << derived.size) - 1)
        assert _cells(source) == before
