"""Dense decomposition primitives with explicit rank and ordering contracts.

The analysis update in :mod:`eakf.update` is only exact when two conventions
are enforced that general-purpose solvers do not guarantee:

* the SVD of a rank-``r`` matrix ``M = U_r diag(s) B.T`` must come with the
  full ``(m, m)`` right factor ``[B, B_null]``, so the rank-``r`` cut the
  paper writes as ``pinv(Sig) @ Sig`` (``Sig`` the rectangular ``(r, m)``
  singular-value factor) is simply the leading ``r`` columns (``U_r`` is
  never needed, and ``svd_full`` does not keep it), and
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
is ``Z`` over one ``sigma`` (every state variable observed once, in state
order), ``_whole_state_eig`` reads both decompositions off the one SVD of
``Z`` instead.

One routine, ``_r_svd``, factors ``Z`` and ``Y B``. It projects a
right-hand side (the whitened innovation the mean needs) onto the left
singular vectors, and no left factor leaves it. It fixes the sign LAPACK
leaves free in each singular pair by one pivot rule on the columns of the
right factor, so the factors, and the analysis ensemble built from them, do
not depend on the LAPACK build (up to repeated singular values).

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

# Rows per column from which _r_svd takes a QR before the SVD: where the QR
# route is no slower, with one BLAS thread, at 32 to 60 columns. A wide input
# must not take it: Householder QR of a row-graded [Y B | e] loses accuracy.
_QR_ROWS_PER_COLUMN = 2.5


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

    Read off the SVD ``Y = U_W @ diag(sqrt(values[:k])) @ vectors[:, :k].T``
    of the ``(p, m)`` factor ``Y``, whose left factor ``U_W`` is not kept;
    ``values`` is descending, zero past ``k``. When produced by
    :func:`ordered_eig_psd` the trailing columns of ``vectors`` are exactly
    the supplied null-space basis, which is what the analysis update relies
    on.
    """

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = self.vectors.shape[0]
        if self.vectors.shape != (m, m):
            raise ValueError("OrderedEigen: vectors must be square")
        if self.values.shape != (m,):
            raise ValueError("OrderedEigen: values length must match vectors")
        values = self.values
        # asserted, not refuted, so that a NaN fails them
        if not (values >= 0.0).all():
            raise ValueError("OrderedEigen: values must be nonnegative")
        if not (values[:-1] >= values[1:]).all():
            raise ValueError("OrderedEigen: values must be descending")


def svd_full(matrix) -> SvdFactors:
    """Rank-revealing SVD with a deterministic sign convention, by :func:`_r_svd`.

    A tall ``Z = Q R`` is reduced to its ``(m, m)`` triangle ``R`` first, with
    the same singular values and right factor (Chan's R-SVD): ``O(n m^2)``
    time, and no ``n``-row factor. Any other ``Z`` is decomposed directly.

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


def _r_svd(a: np.ndarray, rhs: np.ndarray | None = None) -> tuple[SvdFactors, np.ndarray | None]:
    """The SVD ``A = U Sig V.T`` of an ``(n, c)`` matrix, ``U`` not kept, and ``U.T rhs``.

    Returns the :class:`SvdFactors` of ``A`` (``sigma`` kept iff
    ``sigma > RANK_TOL * sigma_max * max(n, c)``) and, given ``rhs`` of
    shape ``(n,)`` or ``(n, k)``, ``U[:, :rank].T @ rhs`` with each row
    signed like its column of ``V``; otherwise ``None``. With
    ``n >= _QR_ROWS_PER_COLUMN * c``, ``A = Q R`` is reduced to its ``(c, c)``
    triangle first, ``Q`` not formed, and ``U = Q U_R``: ``rhs`` rides along
    as extra columns of the QR, whose triangle is ``[R | Q.T rhs]`` (Björck
    1996, §2.4). Any other input is decomposed directly. On both routes an
    ``inf`` or ``nan`` in ``rhs`` reaches the projection without a warning.
    """
    n, c = a.shape
    if n >= _QR_ROWS_PER_COLUMN * c:
        triangle = np.linalg.qr(a if rhs is None else np.column_stack([a, rhs]), mode="r")
        left, s, vt = np.linalg.svd(triangle[:c, :c])
        projected = triangle[:c, c:] if rhs is None or rhs.ndim == 2 else triangle[:c, c]
    else:
        # full_matrices for a wide input only: V must be square, U need not
        left, s, vt = np.linalg.svd(a, full_matrices=n < c)
        projected = rhs
    # s[:1] is empty, and so is s, for an empty input
    rank = int(np.count_nonzero(s > RANK_TOL * max(n, c) * s[:1]))
    # vt is a fresh array: sign it in place instead of copying
    right = vt.T
    signs = _pivot_signs(right)
    svd = SvdFactors(singular_values=s[:rank], right=right)
    if rhs is None:
        return svd, None
    # einsum, unlike matmul, raises no warning on an inf or nan, as LAPACK does not
    return svd, np.einsum("ij,i...->j...", left[:, :rank] * signs[:rank], projected)


def _whole_state_eig(
    z: np.ndarray, sigma: float, innovation: np.ndarray
) -> tuple[SvdFactors, OrderedEigen, np.ndarray]:
    """The factors of ``Z`` and of ``Y = Z / sigma``, and ``U_W.T innovation``, from one SVD.

    ``sigma`` is positive and ``innovation`` an ``(n,)`` vector. With
    ``Z = U Sig V.T`` from :func:`_r_svd`, ``Y = U diag(Sig / sigma) V.T`` is
    already an SVD of ``Y``: ``vectors`` is ``V``, with the null space last
    by construction, ``values`` is ``(Sig_r / sigma)**2`` and
    ``U_W = U[:, :r]`` (``Q_W = I``), so ``U_W.T innovation`` is
    ``_r_svd``'s projection of the innovation as it stands. ``Y B_null``,
    ``Z``'s own residue below the rank cut over ``sigma``, needs no check.
    ``values``, and the trailing ``m - r`` columns of ``vectors``, agree
    with ``ordered_eig_psd``'s to rounding.
    """
    svd, projection = _r_svd(z, innovation)
    values = np.zeros(z.shape[1])
    np.square(svd.singular_values / sigma, out=values[: svd.rank])
    return svd, OrderedEigen(vectors=svd.right, values=values), projection


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


def ordered_eig_psd(whitened, svd: SvdFactors, rhs=None) -> tuple[OrderedEigen, np.ndarray | None]:
    """Eigendecomposition of ``S = whitened.T @ whitened`` with ordered null vectors.

    Parameters
    ----------
    whitened : array_like, shape (p, m)
        Factor ``Y`` of the symmetric PSD matrix ``S = Y.T @ Y``; ``Y`` must
        vanish on ``svd.null_space_basis()`` (checked relative to ``||Y||``).
    svd : SvdFactors
        SVD of the associated ``(n, m)`` perturbation matrix. Its null-space
        basis becomes the trailing columns of the output verbatim.
    rhs : ndarray, shape (p,) or (p, j), optional
        Right-hand side to project onto the left singular vectors of ``Y``.

    Returns
    -------
    (OrderedEigen, ndarray or None)
        With ``B = svd.row_space_basis()`` and the SVD
        ``Y @ B = U_W @ diag(s) @ Q_W.T`` from :func:`_r_svd`, which keeps the
        ``k`` values of ``s`` above ``RANK_TOL * s_1 * max(p, r)``: ``vectors``
        is ``[B @ Q_W, svd.null_space_basis()]``, ``values`` is ``s**2`` padded
        with zeros, and then ``U_W.T @ rhs`` (``None`` without ``rhs``; ``U_W``
        is not kept). The ordering contract holds regardless of how many zero
        eigenvalues the row-space block contains, and ``S`` is never formed.
        ``Q_W`` follows :func:`svd_full`'s sign rule.
    """
    y = require_matrix(whitened, "ordered_eig_psd input")
    p, m = y.shape
    if svd.right.shape[0] != m:
        raise ValueError(
            f"ordered_eig_psd: factor has {m} columns, the SVD's right factor {svd.right.shape[0]}"
        )
    if rhs is not None and rhs.shape[:1] != (p,):
        raise ValueError(f"ordered_eig_psd: right-hand side of shape {rhs.shape} for {p} rows")
    basis_r = svd.row_space_basis()
    basis_n = svd.null_space_basis()
    if frobenius(y @ basis_n) > _BASIS_TOL * frobenius(y):
        raise ValueError("ordered_eig_psd: null basis inconsistent with the factor")

    # Signing Q_W, not B @ Q_W, keeps a scalar adjustment positive.
    block, projection = _r_svd(y @ basis_r, rhs)
    # [B @ Q_W, B_null]: the right factor with its leading columns replaced
    vectors = svd.right.copy()
    vectors[:, : svd.rank] = basis_r @ block.right
    values = np.zeros(m)
    np.square(block.singular_values, out=values[: block.rank])
    return OrderedEigen(vectors=vectors, values=values), projection
