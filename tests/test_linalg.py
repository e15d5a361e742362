import numpy as np
import pytest

from eakf.ensemble import perturbation_matrix
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.linalg import OrderedEigen, SvdFactors, ordered_eig_psd, pinv_rect_diag, svd_full

RNG_SHAPES = [(1, 2), (2, 2), (3, 5), (5, 3), (4, 12), (20, 12), (12, 7)]


def test_svd_identity():
    f = svd_full(np.eye(2))
    assert f.rank == 2
    np.testing.assert_array_equal(f.left, np.eye(2))
    np.testing.assert_array_equal(f.singular_values, [1.0, 1.0])
    np.testing.assert_array_equal(f.right, np.eye(2))


def test_svd_row_vector_example():
    # [1, -1] has a single singular value sqrt(2); under the sign convention
    # the row-space vector is (1, -1)/sqrt(2) and the null vector (1, 1)/sqrt(2).
    f = svd_full(np.array([[1.0, -1.0]]))
    assert f.rank == 1
    np.testing.assert_allclose(f.left, [[1.0]])
    np.testing.assert_allclose(f.singular_values, [np.sqrt(2.0)])
    np.testing.assert_allclose(f.right[:, 0], np.array([1.0, -1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(f.right[:, 1], np.array([1.0, 1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(f.reconstruct(), [[1.0, -1.0]], atol=1e-15)


def test_svd_zero_matrix():
    f = svd_full(np.zeros((2, 3)))
    assert f.rank == 0
    assert f.left.shape == (2, 0)
    assert f.singular_values.shape == (0,)
    np.testing.assert_allclose(f.right.T @ f.right, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("shape", RNG_SHAPES)
def test_svd_reconstruction_and_orthogonality(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    m = rng.standard_normal(shape)
    f = svd_full(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(f.reconstruct() - m) <= 1e-12 * scale
    np.testing.assert_allclose(f.left.T @ f.left, np.eye(f.rank), atol=1e-13)
    np.testing.assert_allclose(f.right.T @ f.right, np.eye(shape[1]), atol=1e-13)
    np.testing.assert_allclose(f.right @ f.right.T, np.eye(shape[1]), atol=1e-13)
    assert f.rank <= min(shape)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_svd_of_perturbations_is_orthonormal(category):
    # SvdFactors does not re-check this on construction; these are the
    # thresholds it used, on the matrices analyze factors
    for seed in range(20):
        f = svd_full(perturbation_matrix(random_instance(seed, category).ensemble).matrix)
        r, m = f.rank, f.right.shape[0]
        assert np.linalg.norm(f.left.T @ f.left - np.eye(r)) <= 1e-10 * max(r, 1), (category, seed)
        assert np.linalg.norm(f.right.T @ f.right - np.eye(m)) <= 1e-10 * max(m, 1), (category, seed)


def test_svd_rank_deficient_input():
    rng = np.random.default_rng(7)
    # rank-2 matrix embedded in 6 x 5
    m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    f = svd_full(m)
    assert f.rank == 2
    assert np.linalg.norm(f.reconstruct() - m) <= 1e-12 * np.linalg.norm(m)


def test_svd_sign_convention():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4))
    f = svd_full(m)
    for j in range(f.rank):
        col = f.left[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0
    for j in range(f.rank, 4):
        col = f.right[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_svd_sign_ties_go_to_the_smallest_index(monkeypatch):
    # exact Hadamard factors: every entry of a column ties in magnitude, so
    # the first entry decides its sign
    h = 0.5 * np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    u = h * [1.0, -1.0, 1.0, 1.0]  # retained column 1 starts negative
    right = h * [1.0, 1.0, -1.0, 1.0]  # null-space column 2 starts negative
    s = np.array([3.0, 2.0, 0.0, 0.0])
    monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices: (u, s, right.T))
    f = svd_full(np.ones((4, 4)))
    assert f.rank == 2
    np.testing.assert_array_equal(f.left, h[:, :2])
    # the retained flip carries over to the paired right column
    np.testing.assert_array_equal(f.right, h * [1.0, -1.0, 1.0, 1.0])


def _loop_sign_factors(matrix):
    """The per-column sign loop svd_full used before it was vectorized."""
    n, m = matrix.shape
    u, s, vt = np.linalg.svd(matrix, full_matrices=n < m)
    rank = int(np.count_nonzero(s > np.finfo(np.float64).eps * float(s[0]) * max(n, m)))
    left = u[:, :rank].copy()
    right = vt.T.copy()
    for j in range(rank):
        pivot = int(np.argmax(np.abs(left[:, j])))
        if left[pivot, j] < 0.0:
            left[:, j] *= -1.0
            right[:, j] *= -1.0
    for j in range(rank, m):
        pivot = int(np.argmax(np.abs(right[:, j])))
        if right[pivot, j] < 0.0:
            right[:, j] *= -1.0
    return left, right


@pytest.mark.parametrize("shape", RNG_SHAPES)
def test_svd_signs_match_the_column_loop(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    for matrix in (rng.standard_normal(shape), rng.standard_normal((shape[0], 1)) @ rng.standard_normal((1, shape[1]))):
        f = svd_full(matrix)
        left, right = _loop_sign_factors(matrix)
        np.testing.assert_array_equal(f.left, left)
        np.testing.assert_array_equal(f.right, right)


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 5))
    f1 = svd_full(m)
    f2 = svd_full(m.copy())
    np.testing.assert_array_equal(f1.left, f2.left)
    np.testing.assert_array_equal(f1.singular_values, f2.singular_values)
    np.testing.assert_array_equal(f1.right, f2.right)


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
        SvdFactors(left=np.zeros((3, len(sigma))), singular_values=np.array(sigma), right=np.eye(3))


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
        OrderedEigen(vectors=np.eye(3), values=np.array(values), obs_vectors=np.zeros((2, 2)))


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


def test_ordered_eig_two_member_example():
    # S = Y.T Y = (1/2) [[1,-1],[-1,1]] paired with Z = [1,-1]: one unit
    # eigenvalue in the row space, and the (1,1)/sqrt(2) null vector must
    # come last.
    z = np.array([[1.0, -1.0]])
    y = z / np.sqrt(2.0)
    s = y.T @ y
    f = svd_full(z)
    eig = ordered_eig_psd(y, f)
    np.testing.assert_allclose(eig.values, [1.0, 0.0], atol=1e-14)
    lead = eig.vectors[:, 0]
    np.testing.assert_allclose(np.abs(lead), np.abs(np.array([1.0, -1.0]) / np.sqrt(2.0)))
    np.testing.assert_allclose(eig.vectors[:, 1], np.array([1.0, 1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(eig.reconstruct(), s, atol=1e-14)
    zc = z @ eig.vectors
    np.testing.assert_allclose(np.abs(zc), [[np.sqrt(2.0), 0.0]], atol=1e-14)


def test_ordered_eig_zero_matrix():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((3, 5))
    z -= z.mean(axis=1, keepdims=True)
    f = svd_full(z)
    eig = ordered_eig_psd(np.zeros((2, 5)), f)
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
    eig = ordered_eig_psd(y, f)
    np.testing.assert_allclose(eig.values, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(eig.reconstruct(), s, atol=1e-14)
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
    eig = ordered_eig_psd(y, f)
    s_scale = max(np.linalg.norm(s), 1e-300)
    assert np.linalg.norm(eig.reconstruct() - s) <= 1e-10 * s_scale
    trailing = eig.vectors[:, f.rank :]
    assert np.linalg.norm(z @ trailing) <= 1e-10 * np.linalg.norm(z)
    assert np.all(np.diff(eig.values) <= 0.0)
    assert np.all(eig.values >= 0.0)
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(m), atol=1e-12)
    k = eig.obs_vectors.shape[1]
    assert k == min(p, f.rank)
    np.testing.assert_allclose(eig.obs_vectors.T @ eig.obs_vectors, np.eye(k), atol=1e-12)
    # Y = obs_vectors diag(sqrt(values[:k])) vectors[:, :k].T
    rebuilt = (eig.obs_vectors * np.sqrt(eig.values[:k])) @ eig.vectors[:, :k].T
    assert np.linalg.norm(rebuilt - y) <= 1e-10 * max(np.linalg.norm(y), 1e-300)
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
    bad = SvdFactors(left=f.left, singular_values=f.singular_values, right=right)
    with pytest.raises(ValueError, match="not finite"):
        ordered_eig_psd(np.array([[1.0, -1.0]]) / np.sqrt(2.0), bad)
