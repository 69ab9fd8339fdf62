"""Matrix text format, filling ratio, and document comparison."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coplaces.errors import (BadHeader, BadSymbol, OrderMismatch,
                             RowLengthMismatch)
from coplaces.matrix import (UNDECIDED, ConcurrencyMatrix, MatrixDocument,
                             compare_matrices, filling_ratio, read_matrix,
                             write_matrix)
from coplaces.matrix import _decode_row_rle, _encode_row_rle


def _matrix(order, rows):
    m = ConcurrencyMatrix(order, fill=0)
    table = {"0": 0, "1": 1, ".": UNDECIDED}
    for i, row in enumerate(rows):
        for j, sym in enumerate(row):
            m.set_at(i, j, table[sym])
    return m


def test_write_seq2_golden():
    doc = MatrixDocument(("a", "b"), _matrix(("a", "b"), ["1", "01"]))
    assert write_matrix(doc) == "2\na\nb\n1\n01\n"


def test_write_all_undecided_plain():
    m = ConcurrencyMatrix(("x", "y", "z"), fill=UNDECIDED)
    text = write_matrix(MatrixDocument(("x", "y", "z"), m))
    assert text == "3\nx\ny\nz\n.\n..\n...\n"


def test_rle_run_encoding():
    assert _encode_row_rle("0000001") == "6(0)1"
    assert _encode_row_rle("11") == "2(1)"
    assert _encode_row_rle("01...") == "1(0)1(1)3(.)"
    assert _encode_row_rle(".10") == ".10"


def test_rle_decoding_accepts_mixed_forms():
    # row i decodes to i + 1 cells
    assert _decode_row_rle("2(1)", 1) == "11"
    assert _decode_row_rle("6(0)1", 6) == "0000001"
    assert _decode_row_rle("1(0)1(1)3(.)", 4) == "01..."
    assert _decode_row_rle("0.1", 2) == "0.1"
    with pytest.raises(BadSymbol):
        _decode_row_rle("2(x)", 1)


@pytest.mark.parametrize("count", [str(10**15), "9" * 5000])
def test_rle_run_is_bounded_before_expansion(count):
    tracemalloc.start()
    try:
        with pytest.raises(RowLengthMismatch) as err:
            read_matrix(f"2\na\nb\n1\n{count}(0)\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.row == 1
    assert peak < 1 << 20


def test_read_matrix_errors():
    with pytest.raises(RowLengthMismatch) as err:
        read_matrix("2\na\nb\n1\n0\n")
    assert err.value.row == 1
    with pytest.raises(BadHeader):
        read_matrix("two\na\nb\n")
    # int() reads each of these as 1; a count is ASCII digits only
    for count in ("+1", "١", "0_1"):
        with pytest.raises(BadHeader):
            read_matrix(f"{count}\na\n1\n")
    with pytest.raises(BadHeader):
        read_matrix("2\na\nb\n1\n01\nextra\n")
    with pytest.raises(BadSymbol):
        read_matrix("1\na\nx\n")


def test_read_empty_matrix():
    doc = read_matrix("0\n")
    assert doc.order == ()
    assert write_matrix(doc) == "0\n"


def test_filling_ratio_cases():
    full = _matrix(("a", "b"), ["1", "01"])
    assert filling_ratio(full) == 1.0
    two_thirds = _matrix(("a", "b"), ["1", ".1"])
    assert filling_ratio(two_thirds) == 2 * 2 / 6
    empty = ConcurrencyMatrix(("a", "b"), fill=UNDECIDED)
    assert filling_ratio(empty) == 0.0


def test_compare_reports():
    a = MatrixDocument(("a", "b"), _matrix(("a", "b"), ["1", "01"]))
    same = MatrixDocument(("a", "b"), _matrix(("a", "b"), ["1", "01"]))
    assert compare_matrices(a, same).kind == "equal"

    partial = MatrixDocument(("a", "b"), _matrix(("a", "b"), ["1", ".1"]))
    report = compare_matrices(partial, a)
    assert (report.kind, report.resolved) == ("compatible", 1)

    wrong = MatrixDocument(("a", "b"), _matrix(("a", "b"), ["1", "11"]))
    report = compare_matrices(wrong, a)
    assert report.kind == "contradiction"
    assert report.cells == [(1, 0)]

    other = MatrixDocument(("b", "a"), _matrix(("b", "a"), ["1", "01"]))
    with pytest.raises(OrderMismatch):
        compare_matrices(a, other)


def _random_doc(rng, encoding):
    n = rng.randint(0, 12)
    order = tuple(f"n{i}" for i in range(n))
    m = ConcurrencyMatrix(order, fill=0)
    for i in range(n):
        for j in range(i + 1):
            m.set_at(i, j, rng.choice((0, 1, UNDECIDED)))
    return MatrixDocument(order, m, encoding)


def test_random_round_trips_both_encodings():
    rng = random.Random(2)
    for k in range(500):
        doc = _random_doc(rng, "plain" if k % 2 else "rle")
        again = read_matrix(write_matrix(doc))
        assert again.matrix == doc.matrix
        assert again.order == doc.order


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("01."), min_size=1, max_size=40))
def test_rle_row_round_trip(symbols):
    row = "".join(symbols)
    assert _decode_row_rle(_encode_row_rle(row), len(row) - 1) == row


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_filling_ratio_monotone_under_resolution(n, rng):
    order = tuple(f"p{i}" for i in range(n))
    m = ConcurrencyMatrix(order, fill=UNDECIDED)
    previous = filling_ratio(m)
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    rng.shuffle(cells)
    for i, j in cells:
        m.set_at(i, j, rng.choice((0, 1)))
        current = filling_ratio(m)
        assert current >= previous
        previous = current
    assert previous == 1.0
