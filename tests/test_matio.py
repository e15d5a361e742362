import numpy as np
import pytest

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
