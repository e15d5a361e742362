import math
import tracemalloc

import numpy as np
import pytest

import eakf.linalg
from eakf.ensemble import perturbation_matrix
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.linalg import (
    _QR_ROWS_PER_COLUMN,
    RANK_TOL,
    OrderedEigen,
    SvdFactors,
    _r_svd,
    _whole_state_eig,
    ordered_eig_psd,
    pinv_rect_diag,
    svd_full,
)

RNG_SHAPES = [(1, 2), (2, 2), (3, 5), (5, 3), (4, 12), (20, 12), (12, 7), (30, 4)]


def assert_factors_of(f, matrix, tol=1e-12):
    """What the factors of ``matrix`` promise without a left factor, at ``tol`` relative.

    ``Z B B.T = Z`` and ``Z B_null = 0``, and the singular values are those
    of ``numpy.linalg.svd(Z)``, whose trailing ones past the rank are below
    ``tol`` relative.
    """
    scale = np.linalg.norm(matrix)
    b = f.row_space_basis()
    assert np.linalg.norm(matrix @ b @ b.T - matrix) <= tol * scale
    assert np.linalg.norm(matrix @ f.null_space_basis()) <= tol * scale
    sigma = np.linalg.svd(matrix, compute_uv=False)
    np.testing.assert_allclose(f.singular_values, sigma[: f.rank], rtol=0, atol=tol * sigma[0])
    assert np.all(sigma[f.rank :] <= tol * sigma[0])


def eig_product(eig):
    """``C diag(g) C.T``, the matrix ``S = Y.T Y`` that ``eig`` decomposes."""
    return (eig.vectors * eig.values) @ eig.vectors.T


def assert_pivots_positive(columns):
    """Each column's largest-magnitude entry (first on ties) is positive."""
    pivots = columns[np.abs(columns).argmax(axis=0), np.arange(columns.shape[1])]
    assert np.all(pivots > 0.0), pivots


def test_svd_identity():
    f = svd_full(np.eye(2))
    assert f.rank == 2
    np.testing.assert_array_equal(f.singular_values, [1.0, 1.0])
    np.testing.assert_array_equal(f.right, np.eye(2))


def test_svd_row_vector_example():
    # [1, -1] has a single singular value sqrt(2); the row-space vector is
    # +-(1, -1)/sqrt(2), its entries tying but for rounding, which then picks
    # the sign; the null vector is (1, 1)/sqrt(2).
    f = svd_full(np.array([[1.0, -1.0]]))
    assert f.rank == 1
    np.testing.assert_allclose(f.singular_values, [np.sqrt(2.0)])
    np.testing.assert_allclose(f.right[:, 0] * f.right[0, 0], np.array([1.0, -1.0]) / 2.0)
    np.testing.assert_allclose(f.right[:, 1], np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert_pivots_positive(f.right)
    assert_factors_of(f, np.array([[1.0, -1.0]]), tol=1e-15)


def test_svd_zero_matrix():
    f = svd_full(np.zeros((2, 3)))
    assert f.rank == 0
    assert f.row_space_basis().shape == (3, 0)
    assert f.singular_values.shape == (0,)
    np.testing.assert_allclose(f.right.T @ f.right, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("shape", RNG_SHAPES)
def test_svd_reconstruction_and_orthogonality(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    m = rng.standard_normal(shape)
    f = svd_full(m)
    assert_factors_of(f, m)
    np.testing.assert_allclose(f.right.T @ f.right, np.eye(shape[1]), atol=1e-13)
    np.testing.assert_allclose(f.right @ f.right.T, np.eye(shape[1]), atol=1e-13)
    assert f.rank <= min(shape)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_svd_of_perturbations_is_orthonormal(category):
    # SvdFactors does not re-check this on construction; these are the
    # thresholds it used, on the matrices analyze factors
    for seed in range(20):
        z = perturbation_matrix(random_instance(seed, category).ensemble).matrix
        f = svd_full(z)
        m = f.right.shape[0]
        assert np.linalg.norm(f.right.T @ f.right - np.eye(m)) <= 1e-10 * max(m, 1), (category, seed)
        if z.any():
            assert_factors_of(f, z)


def test_svd_rank_deficient_input():
    rng = np.random.default_rng(7)
    # rank-2 matrix embedded in 6 x 5
    m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    f = svd_full(m)
    assert f.rank == 2
    assert_factors_of(f, m)


def test_svd_sign_convention():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4))
    f = svd_full(m)
    for j in range(4):
        col = f.right[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_svd_sign_ties_go_to_the_smallest_index(monkeypatch):
    # exact Hadamard factors: every entry of a column ties in magnitude, so
    # the first entry decides its sign
    h = 0.5 * np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    # retained column 1 and null-space column 2 start negative
    right = h * [1.0, -1.0, -1.0, 1.0]
    s = np.array([3.0, 2.0, 0.0, 0.0])
    monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices=True: (h, s, right.T))
    f = svd_full(np.ones((4, 4)))
    assert f.rank == 2
    np.testing.assert_array_equal(f.right, h)


def _loop_sign_factors(matrix):
    """The rank and right factor of the SVD, signed by a per-column loop.

    The SVD is the triangle's for a tall matrix, the matrix's own otherwise.
    """
    n, m = matrix.shape
    tall = n >= _QR_ROWS_PER_COLUMN * m
    s, vt = np.linalg.svd(np.linalg.qr(matrix, mode="r") if tall else matrix)[1:]
    rank = int(np.count_nonzero(s > np.finfo(np.float64).eps * float(s[0]) * max(n, m)))
    right = vt.T.copy()
    for j in range(m):
        pivot = int(np.argmax(np.abs(right[:, j])))
        if right[pivot, j] < 0.0:
            right[:, j] *= -1.0
    return rank, right


@pytest.mark.parametrize("shape", RNG_SHAPES)
def test_svd_signs_match_the_column_loop(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    for matrix in (rng.standard_normal(shape), rng.standard_normal((shape[0], 1)) @ rng.standard_normal((1, shape[1]))):
        f = svd_full(matrix)
        rank, right = _loop_sign_factors(matrix)
        assert f.rank == rank
        np.testing.assert_array_equal(f.right, right)
        assert_pivots_positive(f.right)


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 5))
    f1 = svd_full(m)
    f2 = svd_full(m.copy())
    np.testing.assert_array_equal(f1.singular_values, f2.singular_values)
    np.testing.assert_array_equal(f1.right, f2.right)


@pytest.mark.parametrize("n, m", [(2000, 20), (20000, 10)])
def test_svd_peak_memory(n, m):
    # numpy allocates one copy of the input for the QR, and no (n, r) left
    # factor is formed; a thin SVD of Z peaked at three (n, m) arrays
    z = np.random.default_rng(0).standard_normal((n, m))
    tracemalloc.start()
    try:
        f = svd_full(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * z.nbytes, peak / z.nbytes
    assert f.rank == m


def test_svd_errors():
    with pytest.raises(ValueError, match="empty matrix"):
        svd_full(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="empty matrix"):
        svd_full(np.zeros((3, 0)))
    with pytest.raises(ValueError, match="finite"):
        svd_full(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="2-D"):
        svd_full(np.ones(3))


@pytest.mark.parametrize(
    "sigma",
    [
        [1.0, 0.0],
        [1.0, -1.0],
        [1.0, 2.0],
        [np.nan],
        [np.nan, 1.0],
        [2.0, np.nan, 1.0],
        [2.0, np.nan],
    ],
    ids=["zero", "negative", "ascending", "nan-only", "nan-first", "nan-middle", "nan-last"],
)
def test_svd_factors_reject_bad_singular_values(sigma):
    # every comparison with nan is False: the checks must assert, not refute
    with pytest.raises(ValueError, match="singular values must be positive and descending"):
        SvdFactors(singular_values=np.array(sigma), right=np.eye(3))


@pytest.mark.parametrize(
    ("sigma", "right", "message"),
    [
        (np.ones((1, 1)), np.eye(2), "inconsistent factor shapes"),
        (np.ones(3), np.eye(2), "inconsistent factor shapes"),
        (np.ones(1), np.eye(2, 3), "right factor must be square"),
    ],
    ids=["2-d-values", "rank-above-m", "non-square-right"],
)
def test_svd_factors_reject_bad_shapes(sigma, right, message):
    with pytest.raises(ValueError, match=f"^SvdFactors: {message}$"):
        SvdFactors(singular_values=sigma, right=right)


@pytest.mark.parametrize(
    ("values", "message"),
    [
        ([2.0, 1.0, -1.0], "nonnegative"),
        ([-1.0, 0.0, 1.0], "nonnegative"),
        ([0.0, 1.0, 2.0], "descending"),
        ([np.nan, 0.0, 0.0], "nonnegative"),
        ([1.0, np.nan, 0.0], "nonnegative"),
        ([1.0, 0.0, np.nan], "nonnegative"),
    ],
    ids=["negative", "negative-and-ascending", "ascending", "nan-first", "nan-middle", "nan-last"],
)
def test_ordered_eigen_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=f"values must be {message}"):
        OrderedEigen(vectors=np.eye(3), values=np.array(values))


@pytest.mark.parametrize(
    ("vectors", "values", "message"),
    [
        (np.eye(3, 2), np.zeros(3), "vectors must be square"),
        (np.eye(3), np.zeros(2), "values length must match vectors"),
    ],
    ids=["non-square-vectors", "short-values"],
)
def test_ordered_eigen_rejects_bad_shapes(vectors, values, message):
    with pytest.raises(ValueError, match=f"^OrderedEigen: {message}$"):
        OrderedEigen(vectors=vectors, values=values)


def test_pinv_examples():
    np.testing.assert_allclose(
        pinv_rect_diag(np.array([[np.sqrt(2.0), 0.0]])),
        np.array([[1.0 / np.sqrt(2.0)], [0.0]]),
    )
    np.testing.assert_allclose(pinv_rect_diag(np.diag([2.0, 1.0])), np.diag([0.5, 1.0]))
    np.testing.assert_allclose(pinv_rect_diag(np.array([[4.0]])), np.array([[0.25]]))


def test_pinv_projector():
    g = np.zeros((2, 5))
    g[0, 0], g[1, 1] = 3.0, 2.0
    proj = pinv_rect_diag(g) @ g
    expected = np.zeros((5, 5))
    expected[0, 0] = expected[1, 1] = 1.0
    np.testing.assert_allclose(proj, expected, atol=1e-16)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(19)
    for r, m in [(1, 2), (3, 7), (5, 5)]:
        g = np.zeros((r, m))
        g[np.arange(r), np.arange(r)] = np.sort(rng.uniform(0.1, 10.0, r))[::-1]
        gdag = pinv_rect_diag(g)
        np.testing.assert_allclose(g @ gdag @ g, g, rtol=5e-16, atol=0.0)
        np.testing.assert_allclose(gdag @ g @ gdag, gdag, rtol=5e-16, atol=0.0)


def test_pinv_errors():
    with pytest.raises(ValueError, match="rectangular diagonal"):
        pinv_rect_diag(np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError, match="rank"):
        pinv_rect_diag(np.array([[1.0, 0.0], [0.0, 0.0]]))


def assert_identical(a, b):
    """Same shape and the same bits, signed zeros included."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def centered(z):
    return z - z.mean(axis=1, keepdims=True)


def repeated_singular_values(rng, n, m):
    """A centered ``(n, m)`` matrix with singular values ``2, 2, 2, 1``."""
    u = np.linalg.qr(rng.standard_normal((n, 4)))[0]
    # columns 1.. of an orthogonal basis led by the ones vector are centered
    v = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))[0][:, 1:5]
    return (u * [2.0, 2.0, 2.0, 1.0]) @ v.T


PERMUTED_CASES = {
    "tall": lambda rng: centered(rng.standard_normal((12, 5))),
    "wide": lambda rng: centered(rng.standard_normal((4, 9))),
    "rank-2": lambda rng: centered(rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))),
    "zero-spread": lambda rng: np.zeros((5, 4)),
    "repeated": lambda rng: repeated_singular_values(rng, 10, 7),
    "many-rows": lambda rng: centered(rng.standard_normal((30, 5))),
}


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("case", PERMUTED_CASES)
def test_permuted_eig_is_ordered_eig_psd_of_the_permuted_rows(case, sigma):
    # [Z | e] is reduced, not Z: its triangle agrees with svd_full's only to
    # rounding, so the factors are checked against Z, not against its bits
    rng = np.random.default_rng(list(PERMUTED_CASES).index(case))
    z = PERMUTED_CASES[case](rng)
    y = z / sigma
    rhs = rng.standard_normal(z.shape[0])
    svd, eig, projection = _whole_state_eig(z, sigma, rhs)
    reference, _ = ordered_eig_psd(y, svd_full(z))
    assert_factors_of(svd, z)
    np.testing.assert_allclose(eig.values, reference.values, rtol=1e-13, atol=0.0)
    assert_identical(eig.vectors, svd.right)
    # (Y B).T rhs = diag(s) U_W.T rhs
    r = svd.rank
    assert projection.shape == (r,)
    scale = max(np.linalg.norm(y) * np.linalg.norm(rhs), 1e-300)
    residual = (y @ svd.row_space_basis()).T @ rhs - np.sqrt(eig.values[:r]) * projection
    assert np.linalg.norm(residual) <= 1e-14 * scale


@pytest.mark.parametrize("columns", [(), (3,)], ids=["vector", "three-columns"])
@pytest.mark.parametrize("case", PERMUTED_CASES)
def test_the_reduction_projects_a_right_hand_side_without_q(case, columns):
    rng = np.random.default_rng(7)
    z = PERMUTED_CASES[case](rng)
    rhs = rng.standard_normal((z.shape[0], *columns))
    alone, none = _r_svd(z)
    general = svd_full(z)
    assert none is None
    assert_identical(alone.singular_values, general.singular_values)
    assert_identical(alone.right, general.right)
    svd, projection = _r_svd(z, rhs)
    assert_factors_of(svd, z)
    # the same projection through Q, formed by a reduced QR of Z alone, with
    # the U_R = R B / s that pairs with the signed V returned (a repeated
    # singular value leaves the basis of its subspace free)
    q, triangle = np.linalg.qr(z)
    expected = (q @ (triangle @ svd.row_space_basis() / svd.singular_values)).T @ rhs
    assert projection.shape == expected.shape == (svd.rank, *columns)
    assert np.linalg.norm(projection - expected) <= 1e-14 * max(np.linalg.norm(expected), 1e-300)


@pytest.mark.parametrize("side", ["direct", "qr"])
@pytest.mark.parametrize("columns", [1, 4, 9])
def test_both_routes_agree_either_side_of_the_switch(monkeypatch, columns, side):
    # the last row count that _r_svd decomposes directly, and the first it
    # reduces by QR; each is forced down the other route too
    first_tall = math.ceil(_QR_ROWS_PER_COLUMN * columns)
    rows = first_tall - 1 if side == "direct" else first_tall
    rng = np.random.default_rng(columns)
    a = rng.standard_normal((rows, columns))
    rhs = rng.standard_normal((rows, 2))
    modes, qr = [], np.linalg.qr

    def recorded(x, mode):
        modes.append(mode)
        return qr(x, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    taken = _r_svd(a, rhs)
    assert modes == ([] if side == "direct" else ["r"])
    routes = []
    for switch in (0.0, math.inf):
        monkeypatch.setattr(eakf.linalg, "_QR_ROWS_PER_COLUMN", switch)
        routes.append(_r_svd(a, rhs))
    (qr_svd, qr_projection), (direct_svd, direct_projection) = routes
    assert_identical(taken[0].right, (direct_svd if side == "direct" else qr_svd).right)
    scale = np.linalg.norm(rhs)
    assert qr_svd.rank == direct_svd.rank == columns
    np.testing.assert_allclose(qr_svd.singular_values, direct_svd.singular_values, rtol=1e-14, atol=0.0)
    assert np.abs(qr_svd.right - direct_svd.right).max() <= 1e-14
    assert np.abs(qr_projection - direct_projection).max() <= 1e-14 * scale


@pytest.mark.parametrize("factor, k", [(8.0, 2), (1 / 8.0, 1)], ids=["above", "below"])
@pytest.mark.parametrize("p", [2, 40], ids=["wide", "tall"])
def test_ordered_eig_cuts_y_b_at_the_rank_threshold(p, factor, k):
    # Y B = U diag(1, s) Q.T with s a factor above or below the cut
    # RANK_TOL * s_1 * max(p, r): a value below it is not kept, and the
    # projection has one entry per value kept
    rng = np.random.default_rng(29)
    f = svd_full(centered(rng.standard_normal((8, 6))))
    r = f.rank
    s = np.array([1.0, factor * RANK_TOL * max(p, r)])
    u = np.linalg.qr(rng.standard_normal((p, 2)))[0]
    q = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    y = (u * s) @ q.T @ f.row_space_basis().T
    eig, projection = ordered_eig_psd(y, f, rng.standard_normal(p))
    assert np.count_nonzero(eig.values) == k and projection.shape == (k,)
    assert eig.values[0] == pytest.approx(1.0, rel=1e-14)


def test_ordered_eig_two_member_example():
    # S = Y.T Y = (1/2) [[1,-1],[-1,1]] paired with Z = [1,-1]: one unit
    # eigenvalue in the row space, and the (1,1)/sqrt(2) null vector must
    # come last.
    z = np.array([[1.0, -1.0]])
    y = z / np.sqrt(2.0)
    s = y.T @ y
    f = svd_full(z)
    eig, _ = ordered_eig_psd(y, f)
    np.testing.assert_allclose(eig.values, [1.0, 0.0], atol=1e-14)
    lead = eig.vectors[:, 0]
    np.testing.assert_allclose(np.abs(lead), np.abs(np.array([1.0, -1.0]) / np.sqrt(2.0)))
    np.testing.assert_allclose(eig.vectors[:, 1], np.array([1.0, 1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(eig_product(eig), s, atol=1e-14)
    zc = z @ eig.vectors
    np.testing.assert_allclose(np.abs(zc), [[np.sqrt(2.0), 0.0]], atol=1e-14)


def test_ordered_eig_zero_matrix():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((3, 5))
    z -= z.mean(axis=1, keepdims=True)
    f = svd_full(z)
    eig, _ = ordered_eig_psd(np.zeros((2, 5)), f)
    np.testing.assert_array_equal(eig.values, np.zeros(5))
    # trailing columns are the null basis verbatim
    np.testing.assert_array_equal(eig.vectors[:, f.rank :], f.null_space_basis())


def test_ordered_eig_rank_gap_example():
    # S = Y.T Y has a 2-dimensional null space but Z only a 1-dimensional
    # one; the trailing column must still span null(Z) = span(1,1,1).
    z = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]) / np.sqrt(2.0)
    y = z[:1]
    s = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    f = svd_full(z)
    assert f.rank == 2
    eig, _ = ordered_eig_psd(y, f)
    np.testing.assert_allclose(eig.values, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(eig_product(eig), s, atol=1e-14)
    trailing = eig.vectors[:, 2]
    np.testing.assert_allclose(np.abs(trailing), np.full(3, 1.0 / np.sqrt(3.0)), atol=1e-14)
    np.testing.assert_allclose(z @ trailing, np.zeros(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(12))
def test_ordered_eig_random_property(seed):
    # Y = inv(L) H Z with R = L L.T (the production shape): S = Y.T Y is
    # rebuilt as Z.T H.T inv(R) H Z, and reconstruction and the
    # null-alignment contract both hold at 1e-10 relative.
    rng = np.random.default_rng(seed)
    n, m, p = rng.integers(1, 9), rng.integers(2, 9), rng.integers(1, 6)
    z = rng.standard_normal((n, m))
    z -= z.mean(axis=1, keepdims=True)
    h = rng.standard_normal((p, n))
    a = rng.standard_normal((p, p))
    r = a @ a.T + np.eye(p)
    hz = h @ z
    s = hz.T @ np.linalg.inv(r) @ hz
    s = 0.5 * (s + s.T)
    y = np.linalg.solve(np.linalg.cholesky(r), hz)
    f = svd_full(z)
    eig, _ = ordered_eig_psd(y, f)
    s_scale = max(np.linalg.norm(s), 1e-300)
    assert np.linalg.norm(eig_product(eig) - s) <= 1e-10 * s_scale
    trailing = eig.vectors[:, f.rank :]
    assert np.linalg.norm(z @ trailing) <= 1e-10 * np.linalg.norm(z)
    assert np.all(np.diff(eig.values) <= 0.0)
    assert np.all(eig.values >= 0.0)
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(m), atol=1e-12)
    k = np.count_nonzero(eig.values)
    assert k == min(p, f.rank)
    # Y C[:, :k] = U_W diag(sqrt(values[:k])): orthogonal columns of norm
    # sqrt(values[:k]), and Y C vanishes past k
    yc = y @ eig.vectors
    gram = yc[:, :k].T @ yc[:, :k]
    np.testing.assert_allclose(gram, np.diag(eig.values[:k]), rtol=0, atol=1e-12 * max(eig.values[0], 1e-300))
    assert np.linalg.norm(yc[:, k:]) <= 1e-12 * max(np.linalg.norm(y), 1e-300)
    # Q_W = B.T C follows svd_full's pivot rule
    q = f.row_space_basis().T @ eig.vectors[:, : f.rank]
    assert np.all(q[np.abs(q).argmax(axis=0), np.arange(f.rank)] > 0.0)


def test_ordered_eig_errors():
    z = np.array([[1.0, -1.0]])
    f = svd_full(z)
    y = z / np.sqrt(2.0)
    # Y = (1, 1) does not vanish on the null vector (1, 1)/sqrt(2) of Z
    with pytest.raises(ValueError, match="basis inconsistent with the factor"):
        ordered_eig_psd(np.array([[1.0, 1.0]]), f)
    with pytest.raises(ValueError, match="3 columns, the SVD's right factor 2"):
        ordered_eig_psd(np.ones((1, 3)), f)
    with pytest.raises(ValueError, match="2-D"):
        ordered_eig_psd(y[0], f)


def test_ordered_eig_rejects_a_nan_null_basis():
    # a nan norm compares False with any tolerance; the check must not pass it
    f = svd_full(np.array([[1.0, -1.0]]))
    right = f.right.copy()
    right[0, -1] = np.nan
    bad = SvdFactors(singular_values=f.singular_values, right=right)
    with pytest.raises(ValueError, match="not finite"):
        ordered_eig_psd(np.array([[1.0, -1.0]]) / np.sqrt(2.0), bad)
