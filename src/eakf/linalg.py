"""Dense decomposition primitives with explicit rank and ordering contracts.

The analysis update in :mod:`eakf.update` is only exact when two conventions
are enforced that general-purpose solvers do not guarantee:

* the SVD of a rank-``r`` matrix ``M = U_r diag(s) B.T`` must come with the
  full ``(m, m)`` right factor ``[B, B_null]``, so the rank-``r`` cut the
  paper writes as ``pinv(Sig) @ Sig`` (``Sig`` the rectangular ``(r, m)``
  singular-value factor) is simply the leading ``r`` columns (``U_r`` is
  never needed, and ``svd_full`` never forms it), and
* the eigendecomposition of the observation-space matrix ``S = Y.T @ Y``
  (``Y`` the whitened observed perturbations) must place eigenvectors lying
  in the null space of the decomposed perturbation matrix in the *trailing*
  columns of the eigenvector matrix.

``ordered_eig_psd`` enforces the second contract constructively: instead of
sorting the output of a black-box eigensolver (which cannot distinguish a
zero eigenvalue inside the row space from one in the null space), it takes
the SVD of ``Y`` restricted to the row-space basis and appends the null-space
basis as the trailing columns. The contract then holds even when ``S`` has a
larger null space than the perturbation matrix, e.g. for unobserved or
partially observed ensembles. ``S`` itself is never formed: its eigenvalues
are the squared singular values of ``Y``, so they keep the accuracy of ``Y``
instead of the squared conditioning of an explicit Gram matrix. When ``Y``
is ``Z`` with its rows permuted, over one ``sigma``, ``_permuted_eig`` reads
both decompositions, and the projection of the whitened innovation that the
mean needs, off one reduction of ``[Z | innovation]`` instead; neither it nor
``svd_full`` forms an ``n``-row factor.

Both routines fix the sign LAPACK leaves free in each singular pair by one
pivot rule on the columns of their right factors, so those factors, and the
analysis ensemble built from them, do not depend on the LAPACK build (up to
repeated singular values).

``pinv_rect_diag`` is the paper's rectangular pseudoinverse, kept as the
reference the rank-``r`` cut is tested against; the analysis does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import frobenius, require_matrix

# Relative rank threshold: sigma_i is retained iff
# sigma_i > RANK_TOL * sigma_1 * max(n, m), the usual numerical-rank
# convention (machine epsilon scale).
RANK_TOL = float(np.finfo(np.float64).eps)

# Largest ||Y @ null_basis|| / ||Y|| accepted by ordered_eig_psd.
_BASIS_TOL = 1e-8


@dataclass(frozen=True)
class SvdFactors:
    """Rank-revealing SVD ``M = L @ diag(singular_values) @ right[:, :rank].T``; ``L`` is not kept.

    Attributes
    ----------
    singular_values : ndarray, shape (r,)
        The retained singular values in strictly decreasing order, all
        positive; ``r`` is the rank.
    right : ndarray, shape (m, m)
        Orthogonal matrix. The leading ``r`` columns span the row space of
        the input, the trailing ``m - r`` columns span its null space.

    Construction checks shapes, signs and ordering. Orthonormality is a
    property of the LAPACK factors :func:`svd_full` returns; the test suite
    checks it instead of every construction.
    """

    singular_values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        r = self.rank
        m = self.right.shape[0]
        if self.singular_values.shape != (r,) or r > m:
            raise ValueError("SvdFactors: inconsistent factor shapes")
        if self.right.shape != (m, m):
            raise ValueError("SvdFactors: right factor must be square")
        sigma = self.singular_values
        # asserted, not refuted, so that a NaN fails it; once descending,
        # the last value is the smallest
        if r and not ((sigma[:-1] >= sigma[1:]).all() and sigma[-1] > 0.0):
            raise ValueError("SvdFactors: singular values must be positive and descending")

    @property
    def rank(self) -> int:
        """Number of singular values above the rank threshold."""
        return self.singular_values.size

    def row_space_basis(self) -> np.ndarray:
        """Leading ``rank`` columns of ``right`` (row space of the input)."""
        return self.right[:, : self.rank]

    def null_space_basis(self) -> np.ndarray:
        """Trailing columns of ``right`` (null space of the input)."""
        return self.right[:, self.rank :]


@dataclass(frozen=True)
class OrderedEigen:
    """Eigendecomposition ``S = vectors @ diag(values) @ vectors.T`` of ``S = Y.T @ Y``.

    Read off the SVD ``Y = obs_vectors @ diag(sqrt(values[:k])) @ vectors[:, :k].T``
    of the ``(p, m)`` factor ``Y``; ``values`` is descending, zero past ``k``.
    When produced by :func:`ordered_eig_psd` the trailing columns of
    ``vectors`` are exactly the supplied null-space basis, which is what the
    analysis update relies on. ``obs_vectors`` is ``None`` when the left
    factor was not formed (:func:`_permuted_eig`).
    """

    vectors: np.ndarray
    values: np.ndarray
    obs_vectors: np.ndarray | None

    def __post_init__(self):
        m = self.vectors.shape[0]
        if self.vectors.shape != (m, m):
            raise ValueError("OrderedEigen: vectors must be square")
        if self.values.shape != (m,):
            raise ValueError("OrderedEigen: values length must match vectors")
        obs = self.obs_vectors
        if obs is not None and (obs.ndim != 2 or obs.shape[1] > m):
            raise ValueError("OrderedEigen: obs_vectors must have at most m columns")
        values = self.values
        # asserted, not refuted, so that a NaN fails them
        if not (values >= 0.0).all():
            raise ValueError("OrderedEigen: values must be nonnegative")
        if not (values[:-1] >= values[1:]).all():
            raise ValueError("OrderedEigen: values must be descending")


def svd_full(matrix) -> SvdFactors:
    """Rank-revealing SVD with a deterministic sign convention.

    The input ``Z`` is first reduced to its ``(min(n, m), m)`` triangular
    factor ``R`` (``Z = Q R``, ``Q`` not formed), and ``R`` is decomposed:
    ``Z`` and ``R`` share their singular values and right factor, so no
    ``n``-row factor is formed (Chan's R-SVD). The QR costs ``O(n m^2)``
    time for ``n >= m``, the SVD of ``R`` ``O(m^3)``. :func:`_permuted_eig`
    runs the same reduction with one more column, the whitened innovation.

    Parameters
    ----------
    matrix : array_like, shape (n, m)
        Dense input, all entries finite, both dimensions positive. Singular
        values are retained iff ``sigma > RANK_TOL * sigma_max * max(n, m)``.

    Returns
    -------
    SvdFactors
        Factors with ``matrix @ B @ B.T == matrix`` to rounding, where ``B``
        is the row-space basis. Signs are fixed so that in every column of
        ``right``, row space and null space alike, the entry of largest
        magnitude (smallest index on ties) is positive.
    """
    arr = require_matrix(matrix, "svd_full input")
    if not arr.size:
        raise ValueError("svd_full: empty matrix")
    return _r_svd(arr)[0]


def _r_svd(z: np.ndarray, rhs: np.ndarray | None = None) -> tuple[SvdFactors, np.ndarray | None]:
    """The R-SVD of a nonempty ``(n, m)`` matrix ``Z = Q R``, ``R = U_R Sig V.T``; ``Q`` is not formed.

    Returns the :class:`SvdFactors` of ``Z`` and, given a right-hand side
    ``rhs`` of shape ``(n,)`` or ``(n, k)``, its projection
    ``(Q U_R[:, :rank]).T @ rhs``, each row flipped with the pivot sign of
    its column of ``V`` so that ``Z = (Q U_R) Sig V.T`` still holds for the
    signed factors; otherwise ``None``. ``rhs`` rides along as extra columns
    of the QR, whose triangle is ``[R | Q.T rhs]`` in its leading
    ``min(n, m)`` rows (Björck 1996, §2.4).
    """
    m = z.shape[1]
    triangle = np.linalg.qr(z if rhs is None else np.column_stack([z, rhs]), mode="r")
    # R has at most m rows, so its full SVD gives the (m, m) right factor
    # and a left factor of at most (m, m).
    rows = min(z.shape)
    left, s, vt = np.linalg.svd(triangle[:rows, :m])
    rank = int(np.count_nonzero(s > RANK_TOL * float(s[0]) * max(z.shape)))
    # vt is a fresh array: sign it in place instead of copying
    right = vt.T
    signs = _pivot_signs(right)
    svd = SvdFactors(singular_values=s[:rank], right=right)
    if rhs is None:
        return svd, None
    projected = triangle[:rows, m:] if rhs.ndim == 2 else triangle[:rows, m]
    return svd, (left[:, :rank] * signs[:rank]).T @ projected


def _permuted_eig(
    z: np.ndarray, rows: np.ndarray, sigma: float, innovation: np.ndarray
) -> tuple[SvdFactors, OrderedEigen, np.ndarray]:
    """The factors of ``Z`` and of ``Y = Z[rows] / sigma``, and ``U_W.T innovation``, from one QR.

    ``rows`` is a permutation ``P`` of ``range(n)``, ``sigma`` positive and
    ``innovation`` an ``(n,)`` vector in observation order. With
    ``Z = (Q U_R) Sig V.T`` from :func:`_r_svd`,
    ``Y = P Z / sigma = (P Q U_R) diag(Sig / sigma) V.T`` is already an SVD
    of ``Y``: ``vectors`` is ``V``, with the null space last by
    construction, ``values`` is ``(Sig_r / sigma)**2`` and
    ``U_W = P Q U_R[:, :r]`` (``Q_W = I``). ``U_W`` is not formed
    (``obs_vectors`` is ``None``): ``U_W.T innovation = (Q U_R[:, :r]).T e``,
    ``e[rows] = innovation``, rides along in the QR of ``[Z | e]``. No SVD
    of ``Y`` is taken, and ``Y B_null``, ``Z``'s own residue below the rank
    cut over ``sigma``, needs no check. ``values``, and the trailing
    ``m - r`` columns of ``vectors``, agree with ``ordered_eig_psd``'s to
    rounding.
    """
    state_order = np.empty_like(innovation)
    state_order[rows] = innovation
    svd, projection = _r_svd(z, state_order)
    values = np.zeros(z.shape[1])
    np.square(svd.singular_values / sigma, out=values[: svd.rank])
    return svd, OrderedEigen(vectors=svd.right, values=values, obs_vectors=None), projection


def _pivot_signs(columns: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose largest-magnitude entry (first on ties) is negative.

    Returns the signs applied, ``-1.0`` or ``1.0`` per column. A column of an
    orthogonal factor is never zero, so its pivot is never a signed zero.
    """
    if not columns.size:
        # argmax rejects the (0, 0) factor of a rank-0 SVD
        return np.ones(columns.shape[1])
    pivots = columns[np.abs(columns).argmax(axis=0), np.arange(columns.shape[1])]
    signs = np.copysign(1.0, pivots)
    columns *= signs
    return signs


def pinv_rect_diag(sigma_rect) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a rectangular diagonal matrix.

    For an ``(r, m)`` input with strictly positive diagonal this is the
    ``(m, r)`` rectangular diagonal matrix with diagonal ``1/sigma_i``; the
    product ``pinv @ input`` is then the ``(m, m)`` diagonal projector whose
    first ``r`` diagonal entries are 1 and whose remaining entries are 0.

    Raises
    ------
    ValueError
        If the input has nonzero off-diagonal entries, or a diagonal entry
        that is not strictly positive (truncate to numerical rank first).
    """
    arr = require_matrix(sigma_rect, "pinv_rect_diag input")
    r, m = arr.shape
    diag = np.diagonal(arr)
    off = arr.copy()
    off[np.arange(diag.size), np.arange(diag.size)] = 0.0
    if np.any(off != 0.0):
        raise ValueError("pinv_rect_diag: input is not rectangular diagonal")
    if np.any(diag <= 0.0):
        raise ValueError(
            "pinv_rect_diag: zero or negative diagonal entry; "
            "truncate to numerical rank before inverting"
        )
    out = np.zeros((m, r))
    idx = np.arange(diag.size)
    out[idx, idx] = 1.0 / diag
    return out


def ordered_eig_psd(whitened, svd: SvdFactors) -> OrderedEigen:
    """Eigendecomposition of ``S = whitened.T @ whitened`` with ordered null vectors.

    Parameters
    ----------
    whitened : array_like, shape (p, m)
        Factor ``Y`` of the symmetric PSD matrix ``S = Y.T @ Y``; ``Y`` must
        vanish on ``svd.null_space_basis()`` (checked relative to ``||Y||``).
    svd : SvdFactors
        SVD of the associated ``(n, m)`` perturbation matrix. Its null-space
        basis becomes the trailing columns of the output verbatim.

    Returns
    -------
    OrderedEigen
        With ``B = svd.row_space_basis()`` and the SVD
        ``Y @ B = U_W @ diag(s) @ Q_W.T``, ``vectors`` is
        ``[B @ Q_W, svd.null_space_basis()]``, ``values`` is ``s**2`` padded
        with zeros and ``obs_vectors`` is ``U_W``. The ordering contract holds
        regardless of how many zero eigenvalues the row-space block contains,
        and ``S`` is never formed. Each column of ``Q_W`` is signed so that
        its entry of largest magnitude (first on ties) is positive, with the
        paired column of ``U_W`` flipped to match.
    """
    y = require_matrix(whitened, "ordered_eig_psd input")
    p, m = y.shape
    if svd.right.shape[0] != m:
        raise ValueError(
            f"ordered_eig_psd: factor has {m} columns, the SVD's right factor {svd.right.shape[0]}"
        )
    basis_r = svd.row_space_basis()
    basis_n = svd.null_space_basis()
    if frobenius(y @ basis_n) > _BASIS_TOL * frobenius(y):
        raise ValueError("ordered_eig_psd: null basis inconsistent with the factor")

    # Q_W must be the full (r, r) factor; U_W may stay thin.
    obs_vectors, sigma, qt = np.linalg.svd(y @ basis_r, full_matrices=p < svd.rank)
    # The analysis ensemble flips with the sign gesdd gives each pair, which
    # differs between LAPACK builds; the mean and the gain use each pair
    # twice and are unaffected. Signing Q_W, not B @ Q_W, keeps a scalar
    # adjustment positive.
    obs_vectors *= _pivot_signs(qt.T)[: obs_vectors.shape[1]]
    # [B @ Q_W, B_null]: the right factor with its leading columns replaced
    vectors = svd.right.copy()
    vectors[:, : svd.rank] = basis_r @ qt.T
    values = np.zeros(m)
    np.square(sigma, out=values[: sigma.size])
    return OrderedEigen(vectors=vectors, values=values, obs_vectors=obs_vectors)
