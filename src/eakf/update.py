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
``R`` once and whitens), and so do the mean and the Kalman gain; one private
function builds the factors for every analysis. Nor is ``Za @ Za.T`` formed:
``AnalysisResult.covariance`` is a cached property, not a dataclass field,
formed the first time it is read (``dataclasses.replace`` does not read it),
from the row-major ``Za`` the result stores. So
:func:`analyze` costs ``O((n + p) m^2)`` time plus ``O(p n m)`` for a matrix
``H`` (a selection operator given as state indices is a gather, ``O(p m)``),
of which ``Z`` takes one ``O(n m^2)`` QR and an ``O(m^3)`` SVD, and
``O((n + p) m)`` memory.

The factorization of ``Z`` and the projection ``Y`` with ``H x_f`` depend
on ``Z`` alone, not on each other. For a matrix ``H`` with ``p n m`` at
least :data:`_OVERLAP_MIN_WORK` (``2**22``), in a process that may run on
more than one CPU, the projection runs on one persistent worker thread
while the caller's thread runs :func:`eakf.linalg.svd_full`; numpy
releases the GIL in the BLAS and LAPACK calls, so the two proceed in
parallel. In every other case (state indices, a smaller problem, one CPU)
the same calls run one after the other on the caller's thread. The worker
returns ``H x_f`` unwhitened, and the caller whitens the innovation after
the join, so each analysis whitens as often on either path. Both paths make
the same calls on the same arrays, and a BLAS or LAPACK kernel gives the
same bits on whichever thread calls it, so the paths give the same bits.
An error is raised in the serial order: ``svd_full``'s first, else the
projection's, unchanged. The worker runs only private functions and
:class:`ObservationModel` methods, in the caller's context (its
``np.errstate``). It is started on first use; a forked child drops its
parent's worker and starts its own.

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

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import _all_finite, _as_float64, center_rows, require_centered
from .ensemble import ForecastEnsemble, ObservationModel, PerturbationMatrix, perturbation_matrix
from .linalg import OrderedEigen, SvdFactors, ordered_eig_psd, svd_full

# Smallest p * n * m (the multiply-adds of H Z) for which a matrix H is
# applied on the worker thread while Z is factored. Measured with one BLAS
# thread on a 2-CPU machine at m = 40, the overlap was 4-6% slower at
# p n m = 2.0e6 and 2.5e6 with n = 500 and 5% faster at 2.4e6 with
# n = 1000, 0-6% faster at 4e6 and 8-19% faster from 6e6 to 2e7: the
# thread hand-off only pays when H Z is large.
_OVERLAP_MIN_WORK = 2**22

_worker = None  # the ThreadPoolExecutor, made on first use
_worker_lock = threading.Lock()


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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "perturbations", perturbations)
        self.__post_init__(covariance)

    def __post_init__(self, covariance):
        mean = _as_float64(self.mean, "analysis mean")
        za = _as_float64(self.perturbations, "analysis perturbations")
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
    return _observed(pert.matrix, None, obs)[0]


def _observed(z: np.ndarray, mean: np.ndarray | None, obs: ObservationModel):
    """``Y = inv(L) H Z`` and the unwhitened ``H x_f`` (None without a mean).

    It runs on the worker thread, so it calls :class:`ObservationModel`
    methods and no public function of the package: ``bench/tracer.py`` keeps
    one span stack for all threads.
    """
    return obs.whiten(obs.apply(z)), None if mean is None else obs.apply(mean)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _overlaps(z: np.ndarray, obs: ObservationModel) -> bool:
    """Whether ``H`` is applied on the worker while ``Z`` is factored."""
    op = obs.operator
    # the size test comes first, so a small analysis makes no system call
    return op.ndim == 2 and op.size * z.shape[1] >= _OVERLAP_MIN_WORK and _cpus() > 1


def _executor():
    """The one worker thread, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="eakf-projection")
        return _worker


def _forget_executor() -> None:
    # A forked child has only the thread that forked: the parent's worker,
    # and a lock another thread may have held, do not carry over.
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _gain_weights(g: np.ndarray) -> np.ndarray:
    """``s / (1 + s**2)`` for the observed eigenvalues ``g = s**2``."""
    return np.sqrt(g) / (1.0 + g)


def _analysis_factors(ens: ForecastEnsemble, obs: ObservationModel, with_mean: bool = True):
    """The factors every analysis reads: ``(pert, svd, eig, hx)``.

    ``pert`` holds the one ``Z`` of the analysis, ``svd`` is its
    :func:`eakf.linalg.svd_full`, ``eig`` the :func:`eakf.linalg.ordered_eig_psd`
    result for ``Y = inv(L) H Z = U_W diag(s) C[:, :k].T`` and ``hx`` the
    unwhitened ``H x_f`` (None when ``with_mean`` is false). ``Y`` and ``hx``
    are made on the worker thread while ``svd_full`` runs when
    :func:`_overlaps` says so, else after it; the calls are the same either way.
    """
    pert = perturbation_matrix(ens)
    z, mean = pert.matrix, ens.mean if with_mean else None
    if not _overlaps(z, obs):
        svd = svd_full(z)
        y, hx = _observed(z, mean, obs)
    else:
        # in the caller's context, so that its np.errstate holds on the worker
        future = _executor().submit(contextvars.copy_context().run, _observed, z, mean, obs)
        try:
            svd = svd_full(z)
        except BaseException:
            # the serial order raises svd_full's error; the worker's is dropped
            future.exception()
            raise
        y, hx = future.result()
    return pert, svd, ordered_eig_psd(y, svd), hx


def kalman_gain(ens: ForecastEnsemble, obs: ObservationModel) -> np.ndarray:
    """Kalman gain ``P_f H.T inv(H P_f H.T + R)`` from the analysis factors.

    ``K = Z C[:, :k] diag(s / (1 + s**2)) U_W.T inv(L)``: one whitening of
    ``(p, k)`` right-hand sides (a triangular solve, or a row scale for a
    diagonal ``R``), no ``(p, p)`` system. :func:`analyze` does not call it.
    """
    pert, _, eig, _ = _analysis_factors(ens, obs, with_mean=False)
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


def _transformed(ens: ForecastEnsemble, obs: ObservationModel, factors, transform) -> AnalysisResult:
    """The Kalman mean and the perturbations ``Z @ transform(svd, eig)``.

    ``factors`` is what :func:`_analysis_factors` returns for ``ens`` and
    ``obs``; ``transform`` is :func:`adjustment_matrix`, or the pitfall's cut
    in :mod:`eakf.demo`. The perturbation update only constrains the
    covariance; the mean is the standard Kalman mean ``mean + K (y - H
    mean)``, taken from the same factors without forming ``K``:
    ``K d = Z C[:, :k] (s / (1 + s**2) * U_W.T inv(L) d)``, one whitening of
    the innovation and an ``m``-vector of weights.
    """
    pert, svd, eig, hx = factors
    k = eig.obs_vectors.shape[1]
    innovation = obs.whiten(obs.observation - hx)
    weights = _gain_weights(eig.values[:k]) * (eig.obs_vectors.T @ innovation)
    mean_a = ens.mean + pert.matrix @ (eig.vectors[:, :k] @ weights)
    za = pert.matrix @ transform(svd, eig)
    # Z @ T annihilates the ones vector in exact arithmetic; remove the
    # matmul rounding residue so the centering invariant holds exactly.
    center_rows(za)
    return AnalysisResult(mean=mean_a, perturbations=za)


def analyze(ens: ForecastEnsemble, obs: ObservationModel) -> AnalysisResult:
    """Run one analysis step: transformed perturbations plus the Kalman mean.

    The factors come from :func:`_analysis_factors`, the mean and the
    perturbations ``Z @ adjustment_matrix(svd, eig)`` from
    :func:`_transformed`; ``covariance`` is formed on first read.

    Raises ValueError when the analysis overflows float64 (the mean or the
    row sums of squares of ``Za``, the covariance diagonal, are not finite).
    """
    return _transformed(ens, obs, _analysis_factors(ens, obs), adjustment_matrix)
