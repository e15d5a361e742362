"""Deterministic ensemble adjustment analysis step, in ensemble space.

The filter updates the scaled perturbation matrix ``Z`` (shape ``(n, m)``,
``P_f = Z @ Z.T``) so that the analysis covariance ``Za @ Za.T`` equals the
Kalman posterior

    P_a = (I - K H) P_f,    K = P_f H.T inv(H P_f H.T + R)

exactly, not just in expectation. The paper writes the update as ``Za = A @ Z``
with an ``(n, n)`` adjustment ``A``. With the rank-revealing SVD
``Z = left @ sig @ right.T`` (``left`` is ``(n, r)``, ``sig`` is ``(r, m)``
rectangular diagonal, ``right`` is ``(m, m)``) and the ordered
eigendecomposition ``S = C @ diag(g) @ C.T`` of the observation-space matrix
``S = Z.T H.T inv(R) H Z``,

    A = Z @ C @ diag(1 / sqrt(1 + g)) @ pinv(sig) @ left.T

and since ``left.T @ left = I``, ``A @ Z = Z @ T`` with the ``(m, m)`` transform

    T = C @ diag(1 / sqrt(1 + g)) @ pinv(sig) @ sig @ right.T

``pinv(sig) @ sig`` is the diagonal projector onto the first ``r``
coordinates, so this is the rank-``r`` cut

    T = C[:, :r] @ diag(1 / sqrt(1 + g[:r])) @ B.T,    B = right[:, :r]

which is all this module forms. ``left`` drops out, and
:func:`eakf.linalg.svd_full` never forms it: it reads the singular values and
``right`` off the SVD of the ``(min(n, m), m)`` triangle of a QR of ``Z``.
``S = Y.T @ Y`` is not formed either: ``g`` and ``C`` come from an SVD of the
whitened ``Y = inv(L) H Z`` (``R = L L.T``; the observation model factors
``R`` once and whitens), and so do the mean and the Kalman gain; one
``_analyses`` call gives each command its ``Z``. Nor is ``Za @ Za.T`` formed:
``AnalysisResult.covariance`` is a cached property, not a dataclass field,
formed the first time it is read (``dataclasses.replace`` does not read it),
from the row-major ``Za`` the result stores. So
:func:`analyze` costs ``O((n + p) m^2)`` time plus ``O(p n m)`` for a matrix
``H`` (a selection operator given as state indices is a gather, ``O(p m)``),
of which ``Z`` takes one ``O(n m^2)`` QR and an ``O(m^3)`` SVD, and
``O((n + p) m)`` memory.

When ``H`` observes each state variable exactly once, given as state
indices, and ``R`` is one variance repeated (every cycle of
:mod:`eakf.twin`), both factors, and the ``r`` numbers ``U_W.T inv(L) d``
the mean reads, come from one QR of ``Z`` with the whitened innovation
appended as one more column; neither ``Y`` nor the QR's ``Q`` is formed.
:func:`eakf.linalg._permuted_eig` says why that is exact. Every other input,
and :func:`kalman_gain` for every input, takes the general path:
:func:`eakf.linalg.svd_full`, then :func:`project_observations` and
``H x_f``. Both paths run on the caller's thread; the package starts no
thread, so any parallelism is the BLAS library's own.

Two implementation details decide whether this is exact or silently wrong:

* ``pinv(sig)`` must be the Moore-Penrose pseudoinverse of the *rectangular*
  factor. A formulation with a square inverted singular-value factor would
  need ``rank(Z) = m`` to be dimensionally consistent, but centered
  perturbations annihilate the ones vector, so ``rank(Z) <= min(n, m - 1)``
  always; no compute path for the square-inverse form exists here.

* The rank-``r`` cut drops the trailing ``m - r`` columns of
  ``Z @ C @ diag(1/sqrt(1+g))``, which is harmless exactly when the
  null-space eigenvectors are ordered last.
  :func:`eakf.linalg.ordered_eig_psd` guarantees that ordering; what an
  eigensolver that scatters them does instead is shown in :mod:`eakf.demo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import _all_finite, _as_float64, center_rows, require_centered
from .ensemble import ForecastEnsemble, ObservationModel, PerturbationMatrix, perturbation_matrix
from .linalg import OrderedEigen, SvdFactors, _permuted_eig, ordered_eig_psd, svd_full

@dataclass(frozen=True, init=False)
class AnalysisResult:
    """Analysis mean and scaled perturbations; the covariance on request.

    ``covariance`` is the ``(n, n)`` posterior ``Za @ Za.T``. It is not a
    field: it is formed the first time it is read, then kept, and ``repr``,
    ``==``, ``dataclasses.asdict``, ``dataclasses.fields`` and
    ``dataclasses.replace`` never form it. ``covariance=None`` means not
    given; a value passed to the constructor is kept as given.

    The mean must be ``(n,)``, the perturbations ``(n, m)`` and a given
    covariance ``(n, n)``; the mean and the perturbations are stored as
    row-major float64 arrays. The mean, the row sums of squares of ``Za``
    (always, in ``O(n m)``) and every entry of a given covariance must be
    finite: an analysis that overflows float64 raises instead of passing on
    ``inf`` or ``nan``.
    """

    mean: np.ndarray
    perturbations: np.ndarray

    def __init__(self, mean, perturbations, covariance=None):
        self.__post_init__(mean, perturbations, covariance)

    def __post_init__(self, mean, perturbations, covariance):
        mean = _as_float64(mean, "analysis mean")
        za = _as_float64(perturbations, "analysis perturbations")
        if za.ndim != 2:
            raise ValueError(f"analysis perturbations: expected a 2-D array, got shape {za.shape}")
        n = za.shape[0]
        if mean.shape != (n,):
            raise ValueError(f"analysis mean: expected shape ({n},), got {mean.shape}")
        mean, za = np.ascontiguousarray(mean), np.ascontiguousarray(za)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "perturbations", za)
        # einsum raises no overflow warning; an overflowed square reads inf
        finite = _all_finite(mean) and _all_finite(np.einsum("ij,ij->i", za, za))
        if covariance is not None:
            covariance = _as_float64(covariance, "analysis covariance")
            if covariance.shape != (n, n):
                raise ValueError(f"analysis covariance: expected shape ({n}, {n}), got {covariance.shape}")
            vars(self)["covariance"] = covariance
            finite = finite and _all_finite(covariance)
        if not finite:
            raise ValueError("analysis mean or covariance not finite in float64")
        require_centered(za, 1e-12, "analysis perturbation rows must sum to zero")

    @cached_property
    def covariance(self) -> np.ndarray:
        """``Za @ Za.T``, formed on first read and kept."""
        za = self.perturbations
        # za is row-major, and numpy evaluates a contiguous a @ a.T as a
        # symmetric rank-k update: exactly symmetric without a symmetrizing copy.
        return za @ za.T

    def members(self) -> np.ndarray:
        """Analysis ensemble members, ``mean + sqrt(m-1) * perturbations``."""
        m = self.perturbations.shape[1]
        return self.mean[:, None] + np.sqrt(m - 1) * self.perturbations


def project_observations(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Whitened observed perturbations ``Y = inv(L) H Z``, shape ``(p, m)``.

    ``L`` is the Cholesky factor the observation model holds (``R = L L.T``),
    so ``Y.T @ Y = Z.T H.T inv(R) H Z``; neither ``inv(R)`` nor that product
    is formed. ``H Z`` is :meth:`ObservationModel.apply`: a row gather for
    state indices, a product for a matrix.
    """
    return obs.whiten(obs.apply(pert.matrix))


def _permutes(obs: ObservationModel, n: int) -> bool:
    """Whether ``H`` observes each of the ``n`` state variables once, as indices, with one variance.

    That is, ``H`` is a permutation given as state indices and ``R`` a
    vector holding one variance ``p = n`` times; ``O(n)``. A repeated or
    out-of-range index, ``p != n``, unequal variances, a matrix ``H`` and a
    matrix ``R`` all answer no.
    """
    op, cov = obs.operator, obs.covariance
    if op.ndim != 1 or op.size != n or cov.ndim != 1 or not np.logical_and.reduce(cov == cov[0]):
        return False
    # bincount allocates up to the largest index, so an index past n - 1 is
    # answered first; n counts of one then use up all n indices
    if np.maximum.reduce(op) >= n:
        return False
    return bool(np.logical_and.reduce(np.bincount(op, minlength=n) == 1))


def _gain_weights(g: np.ndarray) -> np.ndarray:
    """``s / (1 + s**2)`` for the observed eigenvalues ``g = s**2``."""
    return np.sqrt(g) / (1.0 + g)


def _analysis_factors(pert: PerturbationMatrix, obs: ObservationModel) -> tuple[SvdFactors, OrderedEigen]:
    """The general path's factors of ``Z = pert.matrix``: ``(svd, eig)``.

    ``svd`` is :func:`eakf.linalg.svd_full` of ``Z`` and ``eig`` the
    :func:`eakf.linalg.ordered_eig_psd` result for
    ``Y = inv(L) H Z = U_W diag(s) C[:, :k].T``. ``svd_full`` runs before
    ``Y`` is formed, so its error comes first.
    """
    svd = svd_full(pert.matrix)
    return svd, ordered_eig_psd(project_observations(pert, obs), svd)


def kalman_gain(ens: ForecastEnsemble, obs: ObservationModel) -> np.ndarray:
    """Kalman gain ``P_f H.T inv(H P_f H.T + R)`` from the analysis factors.

    ``K = Z C[:, :k] diag(s / (1 + s**2)) U_W.T inv(L)``: one whitening of
    ``(p, k)`` right-hand sides (a triangular solve, or a row scale for a
    diagonal ``R``), no ``(p, p)`` system. :func:`analyze` does not call it.
    It takes the general path for every ``H``, as it needs ``U_W`` itself:
    carrying the whitened identity through the permutation path's QR would
    cost ``O(n (m + n)^2)``.
    """
    pert = perturbation_matrix(ens)
    _, eig = _analysis_factors(pert, obs)
    k = eig.obs_vectors.shape[1]
    # (U_W D).T inv(L) = (inv(L).T U_W D).T
    whitened = obs.whiten(eig.obs_vectors * _gain_weights(eig.values[:k]), trans="T")
    return (pert.matrix @ eig.vectors[:, :k]) @ whitened.T


def _cut(svd: SvdFactors, vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The rank-``r`` cut ``vectors[:, :r] @ diag(1 / sqrt(1 + values[:r])) @ B.T``.

    ``r = svd.rank``; ``pinv(Sig) @ Sig`` keeps the leading ``r`` columns, in the order given.
    """
    r = svd.rank
    return (vectors[:, :r] / np.sqrt(1.0 + values[:r])) @ svd.row_space_basis().T


def adjustment_matrix(svd: SvdFactors, eig: OrderedEigen) -> np.ndarray:
    """The ensemble-space transform ``T`` (``Z @ T`` is the paper's ``A @ Z``).

    ``svd`` is :func:`eakf.linalg.svd_full` of ``Z`` and ``eig`` the
    :func:`eakf.linalg.ordered_eig_psd` result built on it; ``T`` is their
    :func:`_cut` of ``C`` with the null-space vectors last. A zero-spread
    ensemble (rank 0) yields the zero transform, the correct limit since a
    zero forecast covariance forces a zero posterior.
    """
    return _cut(svd, eig.vectors, eig.values)


def _analyses(ens: ForecastEnsemble, obs: ObservationModel, *transforms):
    """The forecast ``PerturbationMatrix`` and one analysis per transform.

    One factorization of ``Z`` and one Kalman mean serve every ``transform``
    (:func:`adjustment_matrix`, or the pitfall's cut in :mod:`eakf.demo`),
    whose perturbations are ``Z @ transform(svd, eig)``. The perturbation
    update only constrains the covariance; the mean is the standard Kalman
    mean ``mean + K (y - H mean)``, without forming ``K``:
    ``K d = Z C[:, :k] (s / (1 + s**2) * U_W.T inv(L) d)``, one whitening of
    the innovation and an ``m``-vector of weights. Judge on the ``Z`` returned.

    When :func:`_permutes` says so, :func:`eakf.linalg._permuted_eig` gives
    the factors and ``U_W.T inv(L) d``; ``H x_f``, a gather ``_permutes``
    has range-checked, comes first and moves no error. Otherwise
    :func:`_analysis_factors` gives them, then ``H x_f``, which is not
    warned about on overflow: with no observed spread (``k = 0``) the mean
    never reads it, and otherwise its ``inf`` makes the mean non-finite,
    which :class:`AnalysisResult` refuses. An overflow in ``H Z`` still warns.
    """
    pert = perturbation_matrix(ens)
    if _permutes(obs, pert.state_dim):
        innovation = obs.whiten(obs.observation - obs.apply(ens.mean))
        svd, eig, projection = _permuted_eig(pert.matrix, obs.operator, obs.cholesky[0], innovation)
    else:
        svd, eig = _analysis_factors(pert, obs)
        with np.errstate(over="ignore"):
            hx = obs.apply(ens.mean)
        projection = eig.obs_vectors.T @ obs.whiten(obs.observation - hx)
    k = projection.size
    weights = _gain_weights(eig.values[:k]) * projection
    mean_a = ens.mean + pert.matrix @ (eig.vectors[:, :k] @ weights)
    results = []
    for transform in transforms:
        za = pert.matrix @ transform(svd, eig)
        # Z @ T annihilates the ones vector in exact arithmetic; remove the
        # matmul rounding residue so the centering invariant holds exactly.
        center_rows(za)
        results.append(AnalysisResult(mean=mean_a, perturbations=za))
    return (pert, *results)


def analyze(ens: ForecastEnsemble, obs: ObservationModel) -> AnalysisResult:
    """Run one analysis step: transformed perturbations plus the Kalman mean.

    The mean and the perturbations ``Z @ adjustment_matrix(svd, eig)`` come
    from :func:`_analyses`; ``covariance`` is formed on first read.

    Raises ValueError when the analysis overflows float64 (the mean or the
    row sums of squares of ``Za``, the covariance diagonal, are not finite).
    """
    return _analyses(ens, obs, adjustment_matrix)[1]
