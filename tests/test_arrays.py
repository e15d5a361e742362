import numpy as np
import pytest

from eakf._arrays import frobenius, require_matrix, require_vector, symmetrize

GUARDS = [(require_matrix, (2, 3)), (require_vector, (4,))]
GUARD_IDS = ["matrix", "vector"]


@pytest.mark.parametrize("position", [0, 1, -1], ids=["first", "second", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(("guard", "shape"), GUARDS, ids=GUARD_IDS)
def test_guards_reject_non_finite_entries(guard, shape, bad, position):
    a = np.ones(shape)
    a.flat[position] = bad
    with pytest.raises(ValueError, match=r"^x: entries must be finite \(no NaN/Inf\)$"):
        guard(a, "x")
    # a strided view reaches the same check
    b = np.ones(shape + (2,))
    b[..., 0] = a
    with pytest.raises(ValueError, match="x: entries must be finite"):
        guard(b[..., 0], "x")


@pytest.mark.parametrize(
    ("guard", "a"),
    [
        (require_matrix, np.ones((2, 3), dtype=complex)),
        (require_matrix, [[1.0, 2j], [3.0, 4.0]]),
        (require_vector, np.ones(4, dtype=complex)),
        (require_vector, [1.0, 2j]),
    ],
    ids=["matrix-array", "matrix-list", "vector-array", "vector-list"],
)
def test_guards_reject_complex_input(guard, a):
    with pytest.raises(ValueError, match="^x: complex input not supported$"):
        guard(a, "x")


def test_guards_reject_the_wrong_ndim():
    with pytest.raises(ValueError, match=r"^x: expected a 2-D array, got shape \(3,\)$"):
        require_matrix(np.ones(3), "x")
    with pytest.raises(ValueError, match=r"^x: expected a 2-D array, got shape \(\)$"):
        require_matrix(1.0, "x")
    with pytest.raises(ValueError, match=r"^x: expected a 1-D array, got shape \(2, 2\)$"):
        require_vector(np.ones((2, 2)), "x")
    with pytest.raises(ValueError, match=r"^x: expected a 2-D array, got shape \(0,\)$"):
        require_matrix(np.zeros(0), "x")


def test_guards_accept_zero_size_input():
    assert require_matrix(np.zeros((0, 3))).shape == (0, 3)
    assert require_matrix([[]]).shape == (1, 0)
    assert require_vector(np.zeros(0)).shape == (0,)
    assert require_vector([]).dtype == np.float64


def test_guards_convert_integer_and_list_input():
    for a in ([[1, 2], [3, 4]], np.arange(4).reshape(2, 2), np.ones((2, 2), dtype=np.float32)):
        out = require_matrix(a)
        assert type(out) is np.ndarray and out.dtype == np.float64
        np.testing.assert_array_equal(out, np.asarray(a, dtype=np.float64))
    out = require_vector(range(3))
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.0, 1.0, 2.0])
    # big-endian float64 and ndarray subclasses come back as native ndarrays
    big = require_matrix(np.ones((2, 2), dtype=">f8"))
    assert big.dtype == np.float64 and big.dtype.isnative
    assert type(require_matrix(np.ma.masked_array(np.ones((2, 2))))) is np.ndarray


def test_guards_return_a_float64_array_as_is():
    a = np.ones((3, 2))
    transposed, column = a.T, a[:, 0]
    assert require_matrix(a) is a
    assert require_matrix(transposed) is transposed
    assert require_vector(column) is column


@pytest.mark.parametrize(
    "a",
    [
        np.arange(12.0).reshape(3, 4) / 7.0,
        np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0),
        (np.arange(24.0).reshape(4, 6) / 7.0)[::2, 1::2],
        np.arange(5.0) - 2.5,
        np.zeros((0, 3)),
    ],
    ids=["c-order", "f-order", "strided", "vector", "empty"],
)
def test_frobenius_is_numpy_norm(a):
    assert frobenius(a) == float(np.linalg.norm(a))


def test_symmetrize_is_the_average_with_the_transpose():
    a = np.random.default_rng(0).standard_normal((5, 5))
    expected = 0.5 * (a + a.T)
    out = symmetrize(a)
    np.testing.assert_array_equal(out, expected)
    assert out.flags.c_contiguous == expected.flags.c_contiguous
    np.testing.assert_array_equal(out, out.T)
