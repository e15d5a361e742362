import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eakf import matio
from eakf.matio import MatrixFileError, read_matrix, read_vector, write_matrix, write_vector


def savetxt_bytes(path, arr) -> bytes:
    # bench/ writes its CSV inputs this way: an independent reference for the writer.
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    return path.read_bytes()


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    cases = [
        rng.standard_normal((4, 3)),
        rng.standard_normal((1, 1)) * 1e-300,
        rng.standard_normal((2, 5)) * 1e150,
        np.array([[1.0 / 3.0, np.pi], [-0.1, 2.0**-52]]),
        rng.standard_normal((500, 40)),
        np.array([[-0.0, 5e-324, 1e-300, 1e308]]),
        rng.standard_normal((6, 3)) * np.array([1.0, 1e150, 1.0]),
        np.array([[2.5]]),
    ]
    for index, mat in enumerate(cases):
        path = tmp_path / f"m{index}.csv"
        write_matrix(path, mat)
        assert path.read_bytes() == savetxt_bytes(tmp_path / f"ref{index}.csv", mat)
        np.testing.assert_array_equal(read_matrix(path), mat)
    # -0.0 keeps its sign through the round trip.
    assert np.signbit(read_matrix(tmp_path / "m5.csv")[0, 0])


def test_vector_round_trip(tmp_path):
    vec = np.array([0.5, -1.0 / 7.0, 3.0, -0.0, 5e-324, 1e308])
    path = tmp_path / "v.csv"
    write_vector(path, vec)
    assert path.read_bytes() == savetxt_bytes(tmp_path / "ref.csv", vec)
    np.testing.assert_array_equal(read_vector(path), vec)


@pytest.mark.parametrize(
    "text, row",
    [
        ("1,2\n3,4,5\n", "row 2"),
        ("1,2\n\n3,4,5\n", "row 3"),
        ("1,2\n \t \n3,4,5\n", "row 3"),
        ("1,2\r\n3,4\r\n5\r\n", "row 3"),
        ("1,2\n3\n4,abc\n", "row 2"),
    ],
    ids=["plain", "after-blank-line", "after-whitespace-line", "crlf", "before-non-numeric"],
)
def test_ragged_row_cites_index(tmp_path, text, row):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=f"{row} has"):
        read_matrix(path)


@pytest.mark.parametrize(
    "text, row",
    [
        ("1,2\n3,abc\n", "row 2"),
        ("1,2\n\n3,abc\n", "row 3"),
        ("1,2\n#note\n3,4\n", "row 2"),
        ("1,2,\n3,4,\n", "row 1"),
        ("1,2\r\n3,4\r\n5,abc\r\n", "row 3"),
        ("abc,1\n2\n", "row 1"),
        # float() reads "1_0" as 10; numpy's reader does not, so it is an error.
        ("1,2\n3,1_0\n", "row 2"),
    ],
    ids=["plain", "after-blank-line", "comment-line", "trailing-comma", "crlf", "before-ragged", "digit-underscore"],
)
def test_non_numeric_cites_row(tmp_path, text, row):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=f"{row}: could not convert"):
        read_matrix(path)


def test_refused_row_names_its_first_refused_cell(tmp_path):
    # float() reads "1_0" as 10, so it would name "abc"; the reader refuses both
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n1_0,abc\n")
    with pytest.raises(MatrixFileError, match=re.escape("row 2: could not convert string to float: '1_0'")):
        read_matrix(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(MatrixFileError, match="empty"):
        read_matrix(path)


def test_missing_file(tmp_path):
    with pytest.raises(MatrixFileError, match="cannot read"):
        read_matrix(tmp_path / "nope.csv")


def test_vector_requires_single_column(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2\n")
    with pytest.raises(MatrixFileError, match="single-column"):
        read_vector(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n")
    with pytest.raises(MatrixFileError, match="finite"):
        read_matrix(path)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "shape",
    [
        (matio._WRITE_BLOCK_ROWS - 1, 3),
        (matio._WRITE_BLOCK_ROWS, 3),
        (matio._WRITE_BLOCK_ROWS + 1, 3),
        (2 * matio._WRITE_BLOCK_ROWS + 5, 1),
        (1, 9),
        (0, 3),
    ],
    ids=["block-1", "block", "block+1", "n-by-1", "1-by-m", "no-rows"],
)
def test_written_blocks_match_savetxt(tmp_path, shape):
    mat = np.random.default_rng(2).standard_normal(shape) * np.logspace(-300, 300, shape[1])
    write_matrix(tmp_path / "m.csv", mat)
    assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(tmp_path / "ref.csv", mat)


def test_write_holds_one_block_of_text(tmp_path):
    # the matrix as Python floats alone would be 18 MiB; a block of 256 rows
    # of text is 0.6 MiB
    mat = np.random.default_rng(3).standard_normal((20000, 40))
    assert traced_peak(lambda: write_matrix(tmp_path / "m.csv", mat)) < 2 * 2**20


def test_read_holds_no_copy_of_the_text(tmp_path):
    # any copy of the text adds the file's 7.7 MiB to the array's 3.1 MiB
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.random.default_rng(4).standard_normal((20, 20000)), fmt="%.17g", delimiter=",")
    assert traced_peak(lambda: read_matrix(path)) < path.stat().st_size


def line_reader(path):
    """The reader that parsed the file's whole text as a list of its lines."""
    text = path.read_text()
    numbered = [(index, line) for index, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not numbered:
        raise MatrixFileError(f"{path}: empty matrix file")

    def parse(lines):
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)

    def parses(cell):
        try:
            parse([cell])
        except ValueError:
            return False
        return True

    try:
        arr = parse([line for _, line in numbered])
    except ValueError:
        width = None
        for index, line in numbered:
            fields = line.split(",")
            if not parses(line):
                bad = next((f for f in fields if not f.strip() or not parses(f)), line)
                raise MatrixFileError(f"{path}: row {index}: could not convert string to float: {bad!r}") from None
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MatrixFileError(f"{path}: row {index} has {len(fields)} entries, expected {width}") from None
        raise MatrixFileError(f"{path}: cannot parse matrix file") from None
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{path}: entries must be finite")
    return arr


# every line break str.splitlines knows; numpy's reader takes all but "\n"
# and "\r" for whitespace around a field, so a whole-file parse would accept
# files that are refused row by row
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_TOKENS = [*"0123456789.e-+", "nan", "inf", "1_0", " ", "\t", "#", *_BREAKS]
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.lists(st.sampled_from(_TOKENS), max_size=4).map("".join),
)
_ROW = st.lists(_CELL, min_size=1, max_size=3).map(",".join)
_FILE = st.lists(st.tuples(_ROW, st.sampled_from([*_BREAKS, "", " ", ","])), max_size=5).map(
    lambda rows: "".join(row + end for row, end in rows)
)


def outcome(reader, path):
    try:
        return reader(path)
    except MatrixFileError as exc:
        return str(exc)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(text=_FILE)
# a break inside a row: the reader refuses the row "1,"; a whole-file parse
# reads one row, "1,\v2", and accepts it
@example(text="1,\v2\n")
@example(text="1,2\r\n3,4\x855,6\n\u2028\n7,8")
@example(text="1\r\r\n2\r")
def test_reader_matches_the_whole_text_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text, newline="")
    got, want = outcome(read_matrix, path), outcome(line_reader, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
