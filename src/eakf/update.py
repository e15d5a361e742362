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

which is all this module forms. ``S = Y.T @ Y`` is not formed either: ``g``
and ``C`` come from an SVD of the whitened ``Y = inv(L) H Z`` (``R = L L.T``;
the observation model factors ``R`` once and whitens), and so do the mean
update and, on request, the Kalman gain. Nor is the ``(n, n)`` covariance
``Za @ Za.T``: :class:`AnalysisResult` forms it the first time it is read, so
:func:`analyze` costs ``O((n + p) m^2 + p n m)`` time and ``O((n + p) m)``
memory.

Two implementation details decide whether this is exact or silently wrong:

* ``pinv(sig)`` must be the Moore-Penrose pseudoinverse of the *rectangular*
  factor. A formulation with a square inverted singular-value factor would
  need ``rank(Z) = m`` to be dimensionally consistent, but centered
  perturbations annihilate the ones vector, so ``rank(Z) <= min(n, m - 1)``
  always; no compute path for the square-inverse form exists here.

* The rank-``r`` cut drops the trailing ``m - r`` columns of
  ``Z @ C @ diag(1/sqrt(1+g))``. That is harmless exactly when those columns
  of ``C`` lie in the null space of ``Z``, i.e. when the null-space
  eigenvectors are ordered last. If an eigensolver scatters them elsewhere,
  the cut drops live columns instead and the analysis ensemble loses
  variance it should have kept. ``mode="misordered"`` reproduces that
  failure on purpose (seeded, for demonstrations and negative tests);
  ``mode="correct"`` uses :func:`eakf.linalg.ordered_eig_psd`, which
  guarantees the ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import _all_finite, frobenius
from .ensemble import ForecastEnsemble, ObservationModel, PerturbationMatrix, perturbation_matrix
from .linalg import OrderedEigen, SvdFactors, ordered_eig_psd, svd_full

MODE_CORRECT = "correct"
MODE_MISORDERED = "misordered"


@dataclass(frozen=True)
class AdjustmentMatrix:
    """Ensemble-space transform ``T`` with the decompositions it was assembled from.

    ``Z @ transform`` is the paper's ``A @ Z``. The defining contract is that
    ``(Z @ T) @ (Z @ T).T`` matches the exact Kalman posterior covariance
    (checked against :mod:`eakf.oracle` in the test suite). ``permutation``
    records the column shuffle applied in misordered mode, ``None`` in
    correct mode.
    """

    transform: np.ndarray
    svd: SvdFactors
    eig: OrderedEigen
    mode: str
    permutation: np.ndarray | None = None


class _CovarianceOnRead:
    """``AnalysisResult.covariance``: ``Za @ Za.T``, formed on first read and cached.

    A dataclass field whose default is this data descriptor: ``__init__`` and
    ``dataclasses.replace`` hand their value to ``__set__``, which keeps a
    given array as given and leaves the default (the descriptor itself) unset.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        cov = obj.__dict__.get(self.name)
        if cov is None:
            za = obj.perturbations
            # numpy evaluates a @ a.T as a symmetric rank-k update, so the
            # product is exactly symmetric without a symmetrizing copy.
            cov = obj.__dict__[self.name] = za @ za.T
        return cov

    def __set__(self, obj, value):
        if value is not self:
            obj.__dict__[self.name] = value


@dataclass(frozen=True)
class AnalysisResult:
    """Analysis mean and scaled perturbations; the covariance on request.

    ``covariance`` is the ``(n, n)`` posterior ``Za @ Za.T``. It is formed the
    first time it is read, then kept; a value passed to the constructor is
    kept as given. ``dataclasses.replace`` reads every field it is not given,
    so replacing another field forms the covariance.

    The mean and the covariance diagonal must be finite: an analysis that
    overflows float64 raises instead of passing on ``inf`` or ``nan``. The
    diagonal is checked as the row sums of squares of ``Za``, in ``O(n m)``,
    unless a covariance was given.
    """

    mean: np.ndarray
    perturbations: np.ndarray
    covariance: np.ndarray = _CovarianceOnRead()

    def __post_init__(self):
        za = self.perturbations
        given = vars(self).get("covariance")
        # einsum raises no overflow warning; an overflowed square reads inf
        diagonal = np.einsum("ij,ij->i", za, za) if given is None else np.diagonal(given)
        if not (_all_finite(self.mean) and _all_finite(diagonal)):
            raise ValueError("analysis mean or covariance not finite in float64")
        row_sums = np.add.reduce(za, axis=1)
        if frobenius(row_sums) > 1e-12 * frobenius(za):
            raise ValueError("analysis perturbation rows must sum to zero")

    def members(self) -> np.ndarray:
        """Analysis ensemble members, ``mean + sqrt(m-1) * perturbations``."""
        m = self.perturbations.shape[1]
        return self.mean[:, None] + np.sqrt(m - 1) * self.perturbations


def project_observations(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Whitened observed perturbations ``Y = inv(L) H Z``, shape ``(p, m)``.

    ``L`` is the Cholesky factor the observation model holds (``R = L L.T``),
    so ``Y.T @ Y = Z.T H.T inv(R) H Z``; neither ``inv(R)`` nor that product
    is formed.
    """
    if obs.state_dim != pert.state_dim:
        raise ValueError(
            f"observation operator has {obs.state_dim} state columns, "
            f"expected {pert.state_dim}"
        )
    return obs.whiten(obs.operator @ pert.matrix)


def _gain_weights(g: np.ndarray) -> np.ndarray:
    """``s / (1 + s**2)`` for the observed eigenvalues ``g = s**2``."""
    return np.sqrt(g) / (1.0 + g)


def kalman_gain(pert: PerturbationMatrix, obs: ObservationModel, eig: OrderedEigen) -> np.ndarray:
    """Kalman gain ``P_f H.T inv(H P_f H.T + R)`` from the analysis factors.

    ``eig`` is the :func:`eakf.linalg.ordered_eig_psd` result for
    ``Y = project_observations(pert, obs)``. With
    ``Y = U_W diag(s) C[:, :k].T`` the gain is
    ``Z C[:, :k] diag(s / (1 + s**2)) U_W.T inv(L)``: one whitening of
    ``(p, k)`` right-hand sides (a triangular solve, or a row scale for a
    diagonal ``R``), no ``(p, p)`` system. :func:`analyze` does not call it.
    """
    k = eig.obs_vectors.shape[1]
    # (U_W D).T inv(L) = (inv(L).T U_W D).T
    whitened = obs.whiten(eig.obs_vectors * _gain_weights(eig.values[:k]), trans="T")
    return (pert.matrix @ eig.vectors[:, :k]) @ whitened.T


def _displacing_permutation(rng: np.random.Generator, rank: int, m: int) -> np.ndarray:
    """Random permutation moving at least one trailing (null) column forward.

    Draws are repeated until some index >= rank lands in the leading block,
    which forces at least one live column into the truncated trailing block.
    With 0 < rank < m a draw succeeds with probability at least 1/2.
    """
    if rank == 0 or rank == m:
        return np.arange(m)
    while True:
        perm = rng.permutation(m)
        if np.any(perm[:rank] >= rank):
            return perm


def adjustment_matrix(
    pert: PerturbationMatrix,
    obs: ObservationModel,
    mode: str = MODE_CORRECT,
    *,
    seed: int | None = None,
) -> AdjustmentMatrix:
    """Assemble the ensemble-space transform ``T`` (``Z @ T`` is ``A @ Z``).

    Parameters
    ----------
    pert, obs
        Scaled forecast perturbations and the observation model.
    mode : {"correct", "misordered"}
        ``"correct"`` enforces the null-vectors-last eigenvector ordering.
        ``"misordered"`` applies a seeded random column permutation that
        displaces at least one null-space eigenvector out of the trailing
        block, reproducing the under-dispersion failure; use only for
        demonstrations and negative tests.
    seed : int, optional
        Required for ``"misordered"``; ignored otherwise.

    Notes
    -----
    A zero-spread ensemble (numerical rank 0) yields the zero transform:
    the rank-0 cut keeps no column, which is the correct limit since a zero
    forecast covariance forces a zero posterior.
    """
    if mode not in (MODE_CORRECT, MODE_MISORDERED):
        raise ValueError(f"unknown mode {mode!r}")
    factors = svd_full(pert.matrix)
    whitened = project_observations(pert, obs)
    eig = ordered_eig_psd(whitened, factors)

    vectors = eig.vectors
    values = eig.values
    permutation = None
    if mode == MODE_MISORDERED:
        if seed is None:
            raise ValueError("misordered mode requires a seed")
        rng = np.random.default_rng(seed)
        permutation = _displacing_permutation(rng, factors.rank, pert.size)
        vectors = vectors[:, permutation]
        values = values[permutation]

    # pinv(Sig) @ Sig keeps the leading r columns: the rank-r cut
    r = factors.rank
    transform = (vectors[:, :r] / np.sqrt(1.0 + values[:r])) @ factors.row_space_basis().T
    return AdjustmentMatrix(
        transform=transform, svd=factors, eig=eig, mode=mode, permutation=permutation
    )


def analyze(
    ens: ForecastEnsemble,
    obs: ObservationModel,
    mode: str = MODE_CORRECT,
    *,
    seed: int | None = None,
) -> AnalysisResult:
    """Run one analysis step: transformed perturbations plus the Kalman mean.

    The perturbation update only constrains the covariance; the analysis
    mean is the standard Kalman mean ``mean + K (y - H mean)``, taken from
    the same factors as the transform without forming ``K``:
    ``K d = Z C[:, :k] (s / (1 + s**2) * U_W.T inv(L) d)``, one whitening of
    the innovation and an ``m``-vector of weights (so in misordered mode too
    the mean is the exact Kalman mean). :func:`kalman_gain` gives ``K``.

    The result's ``covariance`` is not formed here; see :class:`AnalysisResult`.

    Raises ValueError when the analysis overflows float64 (the mean or the
    row sums of squares of ``Za``, the covariance diagonal, are not finite).
    """
    pert = perturbation_matrix(ens)
    adj = adjustment_matrix(pert, obs, mode, seed=seed)
    eig = adj.eig
    k = eig.obs_vectors.shape[1]
    innovation = obs.whiten(obs.observation - obs.operator @ ens.mean)
    weights = _gain_weights(eig.values[:k]) * (eig.obs_vectors.T @ innovation)
    mean_a = ens.mean + pert.matrix @ (eig.vectors[:, :k] @ weights)
    za = pert.matrix @ adj.transform
    # Z @ T annihilates the ones vector in exact arithmetic; remove the
    # matmul rounding residue so the centering invariant holds exactly.
    za -= np.add.reduce(za, axis=1, keepdims=True) / pert.size
    return AnalysisResult(mean=mean_a, perturbations=za)
