"""Matrix text format, filling ratio, and document comparison."""

import copy
import pickle
import random
import re
import time
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from coplaces.errors import (BadHeader, BadSymbol, OrderMismatch,
                             RowLengthMismatch, UnwritableNodeName, shown)
from coplaces.kernel import PropagationStats
from coplaces.matrix import (UNDECIDED, ComparisonReport, ConcurrencyMatrix,
                             MatrixDocument, compare_matrices, filling_ratio,
                             parse_count, read_matrix, write_matrix)
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
@given(st.text(st.sampled_from("a \t\n\r\v\x1c\x85\u2028") | st.characters(),
               max_size=4))
def test_a_name_reads_back_as_itself_or_is_refused(name):
    doc = MatrixDocument((name,), ConcurrencyMatrix((name,), fill=1))
    try:
        text = write_matrix(doc)
    except UnwritableNodeName as refused:
        assert len(str(refused).splitlines()) == 1
        # the file it would have written
        text = f"1\n{name}\n1\n"
        try:
            assert read_matrix(text).order != (name,)
        except BadHeader:
            pass
    else:
        assert read_matrix(text).order == (name,)


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


# -- the token-loop decoder and the text-row reader, as references ----------

_REFERENCE_TOKEN = re.compile(r"(\d+)\(([01.])\)|([01.])")


def _reference_decode_row_rle(text, row):
    """The decoder that read one regex token at a time."""
    parts = []
    length = 0
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN.match(text, pos)
        if match is None:
            raise BadSymbol(row, length)
        if match.group(1) is not None:
            digits = match.group(1).lstrip("0")
            if len(digits) > len(str(row + 1)):
                raise RowLengthMismatch(row)
            count, symbol = int(digits or "0"), match.group(2)
        else:
            count, symbol = 1, match.group(3)
        if count > row + 1 - length:
            raise RowLengthMismatch(row)
        parts.append(symbol * count)
        length += count
        pos = match.end()
    return "".join(parts)


def _reference_read_matrix(text):
    """The reader that kept every row's text and mirrored the triangle
    through `zip_longest` over those texts."""
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
    names = {}
    for k in range(n):
        name = lines[1 + k].strip()
        if not name:
            raise BadHeader(f"empty node name at line {2 + k}")
        if name in names:
            raise BadHeader(f"duplicate node name {shown(name)} at line {2 + k}")
        names[name] = None
    lines = lines[1 + n:1 + 2 * n]
    rle = any("(" in line for line in lines)
    rows = []
    for i, raw in enumerate(lines):
        raw = raw.strip()
        row = _reference_decode_row_rle(raw, i) if rle else raw
        if len(row) != i + 1:
            raise RowLengthMismatch(i)
        if bad := re.search(r"[^01.]", row):
            raise BadSymbol(i, bad.start())
        rows.append(row)
    matrix = ConcurrencyMatrix(names, fill=UNDECIDED)
    for i, column in enumerate(zip_longest(*rows, fillvalue="")):
        row = (rows[i][:i] + "".join(column))[::-1]
        matrix._ones[i] = int(row.replace(".", "0"), 2)
        matrix._zeros[i] = int(row.translate(str.maketrans("01.", "100")), 2)
    return MatrixDocument(tuple(names), matrix, "rle" if rle else "plain")


def _outcome(call, *args):
    """What `call` returns, or the class and message of what it raises."""
    try:
        result = call(*args)
    except Exception as err:                    # compared, never hidden
        return type(err), str(err)
    if isinstance(result, MatrixDocument):
        return (result.order, result.matrix, result.matrix.write_count,
                result.encoding)
    return result


# runs, literals, counts with leading or non-ASCII zeros, a zero run, runs
# that overflow the row, huge counts and broken tokens, each row as one
# text and after a valid prefix, a bad symbol before and after an overflow
_ROW_CASES = ["", "0(1)", "007(0)", "1(0)1(1)2(.)", "0" * 20_000 + "3(1)",
              "9" * 5000 + "(0)", f"{10**15}(0)", "1(", "(", ")", "2", "12",
              "5(0)x", "x5(0)", "1x5(0)", "3(1)2(x)", "١(0)", "٠٠1(0)",
              "2(1)2(1)", "01" * 3 + "2", ".1(.)", "1(.)(0)", "3(.)4",
              "00(1)", "1()", "1(01)"]


def test_rle_decoder_matches_the_token_loop():
    for case in _ROW_CASES:
        for text in (case, "1" + case, "2(.)" + case):
            for row in (0, 1, 2, 3, 4, 5, 6, 10, 19_999, 20_003):
                assert (_outcome(_decode_row_rle, text, row)
                        == _outcome(_reference_decode_row_rle, text, row))


def test_rle_decoder_matches_the_token_loop_on_random_rows():
    rng = random.Random(29)
    tokens = ["0", "1", ".", "(", ")", "2", "9", "3(1)", "10(0)", "2(.)",
              "0(1)", "(1)", "1(", "x", "01(2)"]
    for _ in range(20_000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 8)))
        row = rng.choice((0, 3, 9, 30))
        assert (_outcome(_decode_row_rle, text, row)
                == _outcome(_reference_decode_row_rle, text, row)), text


def test_rle_row_of_literals_decodes_in_little_memory():
    # a regex match over the row kept backtracking state per token: 30 MiB
    text = ".1" * 100_000
    tracemalloc.start()
    try:
        row = _decode_row_rle(text, len(text) - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row == text
    assert peak < 4 << 20


def _edited(rng, text):
    """`text` with one to three characters replaced, inserted or deleted,
    mostly among the matrix rows."""
    alphabet = "01.()29x _\n١٠"
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:pos] + rng.choice(alphabet) + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + rng.choice(alphabet) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


def test_read_matrix_matches_the_text_row_reader():
    rng = random.Random(19)
    cases = raised = 0
    for k in range(3000):
        text = write_matrix(_random_doc(rng, "rle" if k % 2 else "plain"))
        for variant in (text, _edited(rng, text), _edited(rng, text)):
            expected = _outcome(_reference_read_matrix, variant)
            assert _outcome(read_matrix, variant) == expected
            cases += 1
            raised += isinstance(expected[0], type)
    for case in _ROW_CASES:
        text = f"4\na\nb\nc\nd\n1\n2(0)\n3(.)\n{case}\n"
        assert _outcome(read_matrix, text) == _outcome(_reference_read_matrix,
                                                       text)
    assert cases == 9000 and raised > 2000


@pytest.mark.parametrize("text", [
    "".join(random.Random(5).choice("01") for _ in range(20_000)),
    "01" * 10_000], ids=["random-digits", "alternating-digits"])
def test_rle_row_decodes_in_linear_time(text):
    # one token at a time, each literal digit re-read the rest of its
    # block: that took seconds here
    start = time.perf_counter()
    row = _decode_row_rle(text, 19_999)
    assert time.perf_counter() - start < 0.1
    assert row == text


def test_rle_read_cost_of_two_exclusive_groups():
    # two dead places, then places alternating between two groups that
    # exclude each other: every row ends in one long block of literal digits
    n = 1000
    order = tuple(f"p{i}" for i in range(n))
    groups = [sum(1 << i for i in range(start, n, 2)) for start in (2, 3)]
    matrix = ConcurrencyMatrix(order, fill=0)
    matrix.add_ones([groups[i % 2] if i >= 2 else 0 for i in range(n)])
    text = write_matrix(MatrixDocument(order, matrix, "rle"))
    assert text.endswith("\n3(0)" + "10" * 498 + "1\n")
    start = time.perf_counter()
    doc = read_matrix(text)
    assert time.perf_counter() - start < 0.5
    assert doc.matrix == matrix and doc.encoding == "rle"


def test_records_copy_deepcopy_and_pickle_to_equal_objects(m1_doc):
    matrix = _matrix(("a", "b"), ["1", "0."])
    records = [m1_doc, MatrixDocument(("a", "b"), matrix, "rle"),
               ComparisonReport("contradiction", 2, [(1, 0)]),
               PropagationStats(7)]
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin is not record
            assert type(twin) is type(record)
            assert twin == record and repr(twin) == repr(record)
