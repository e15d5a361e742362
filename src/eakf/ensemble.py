"""Ensemble and observation-model value types plus perturbation scaling.

Conventions: state dimension ``n``, ensemble size ``m``, observation
dimension ``p``. Ensembles are stored as ``(n, m)`` arrays with one member
per column. The scaled perturbation matrix divides member deviations by
``sqrt(m - 1)`` so the forecast covariance is exactly ``Z @ Z.T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (
    _all_finite, _lapack, center_rows, frobenius, require_centered, require_matrix, require_vector, symmetrize,
)


@dataclass(frozen=True)
class ForecastEnsemble:
    """Forecast ensemble: members (n, m), one per column, and their mean (n,).

    The mean is derived, never given: it is the members' row average,
    computed once at construction; a row whose sum overflows is summed
    scaled down by a power of two, so an average that fits float64 is
    accepted.
    Members are stored row-major: a row sum, and with it the analysis, would
    otherwise change in its last bits with the memory layout the caller
    happened to use.
    """

    members: np.ndarray
    mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        members = np.ascontiguousarray(require_matrix(self.members, "members"))
        m = members.shape[1]
        if m < 2:
            raise ValueError("ensemble too small: need at least 2 members")
        object.__setattr__(self, "members", members)
        # sum / m is what ndarray.mean computes for float64, without its
        # wrapper. A row whose sum overflows is summed scaled by the power of
        # two 2**k >= m, exactly, so that the sum fits; the other rows keep
        # the bits of sum / m.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.add.reduce(members, axis=1)
            mean /= m
            if not _all_finite(mean):
                overflowed = ~np.isfinite(mean)
                scale = 2.0 ** (m - 1).bit_length()
                mean[overflowed] = np.add.reduce(members[overflowed] / scale, axis=1) / m * scale
                require_vector(mean, "members' average")
        object.__setattr__(self, "mean", mean)

    @classmethod
    def from_members(cls, members) -> "ForecastEnsemble":
        """The same as ``ForecastEnsemble(members)``."""
        return cls(members)

    @property
    def state_dim(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class PerturbationMatrix:
    """Scaled member deviations, (n, m); every row sums to zero.

    Because the columns are deviations from the ensemble mean, the matrix
    annihilates the ones vector and its rank is at most ``m - 1``. It is
    stored row-major, like the ensemble's members.
    """

    matrix: np.ndarray
    scale_members: int

    def __post_init__(self):
        arr = np.ascontiguousarray(require_matrix(self.matrix, "perturbation matrix"))
        object.__setattr__(self, "matrix", arr)
        if self.scale_members < 2:
            raise ValueError("ensemble too small: need at least 2 members")
        if arr.shape[1] != self.scale_members:
            raise ValueError("column count does not match scale_members")
        require_centered(arr, 1e-13, "perturbations not centered: rows must sum to zero")

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ObservationModel:
    """Observation operator ``H``, SPD error covariance ``R``, observation (p,).

    ``operator`` takes one of two forms, and the model only ever applies it
    (:meth:`apply`), so neither is expanded:

    * a ``(p, n)`` float matrix, stored row-major, like the ensemble's
      members, so that the analysis does not depend on the caller's memory
      layout; or
    * a 1-D integer array of ``p`` state indices, for an operator that
      selects state entries: ``H x`` is ``x[operator]``. Indices may repeat
      (one variable observed twice) and come in any order; a negative index
      or a boolean mask is refused, and a 1-D float array is refused as a
      matrix that is not 2-D. The index form stores no ``(p, n)`` array, and
      applying it costs ``O(p m)`` instead of ``O(p n m)``.

    An index does not fix ``n``, so the state dimension is checked where
    ``H`` is applied, against the array it is applied to. A general linear
    operator (a callable) is not accepted.

    ``covariance`` is a (p, p) matrix, or a length-p vector of variances for
    a diagonal ``R``, which is kept as given and never expanded. A matrix
    must be symmetric to a relative 1e-10 in the Frobenius norm and is then
    kept symmetrized, as ``(R + R.T) / 2``: a given ``[[2, 1e-12], [0, 3]]``
    is stored with 5e-13 on both sides of the diagonal. ``cholesky`` is
    the lower factor ``L`` of ``R = L @ L.T``, computed once at construction
    (which validates positive definiteness): the (p,) standard deviations for
    a vector, otherwise LAPACK's ``potrf`` factor, a (p, p) matrix in Fortran
    order with zeros above the diagonal. :meth:`whiten` applies ``inv(L)``,
    through LAPACK's ``trtrs`` for a matrix. Both routines are called
    directly: at small ``p`` scipy's wrappers cost several times the solve.
    scipy is imported only for a matrix ``R``; a model with variances never
    loads it.
    """

    operator: np.ndarray
    covariance: np.ndarray
    observation: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        operator = _operator(self.operator)
        observation = require_vector(self.observation, "observation")
        p = operator.shape[0]
        # the raw input reaches the checks, so a complex R raises, not casts
        if np.ndim(self.covariance) == 1:
            cov = require_vector(self.covariance, "observation error variances")
        else:
            cov = require_matrix(self.covariance, "observation error covariance")
        if cov.shape != (p,) * cov.ndim:
            raise ValueError(
                f"observation error covariance must be {p} x {p} or {p} variances, got {cov.shape}"
            )
        if observation.shape != (p,):
            raise ValueError(f"observation length {observation.shape[0]} does not match p={p}")
        if cov.ndim == 2:
            if frobenius(cov - cov.T) > 1e-10 * frobenius(cov):
                raise ValueError("observation error covariance not symmetric")
            cov = symmetrize(cov)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "cholesky", _error_factor(cov))

    @property
    def obs_dim(self) -> int:
        return self.operator.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``H @ x`` for a state vector ``(n,)`` or perturbations ``(n, m)``.

        ``x[operator]`` for state indices, which gives the bits of the
        one-hot product (but keeps a ``-0.0`` the product turns into
        ``+0.0``), else ``operator @ x``. This is where the state dimension
        ``n = x.shape[0]`` is checked.
        """
        op, n = self.operator, x.shape[0]
        if op.ndim == 1:
            # the gather checks the range itself; no index is negative
            try:
                return x[op]
            except IndexError:
                raise ValueError(
                    f"observation operator index {op.max()} out of range for state dimension {n}"
                ) from None
        if op.shape[1] != n:
            raise ValueError(f"observation operator has {op.shape[1]} state columns, expected {n}")
        return op @ x

    def whiten(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """``inv(L) @ rhs``, or ``inv(L).T @ rhs`` with ``trans="T"``.

        A row scale for a diagonal ``R``, otherwise a triangular solve.
        """
        factor = self.cholesky
        if factor.ndim == 1:
            return rhs / (factor[:, None] if rhs.ndim == 2 else factor)
        if not factor.size:
            # LAPACK rejects an empty triangle; p = 0 leaves nothing to solve
            return np.empty_like(rhs)
        # info is nonzero only for a zero on the diagonal, which potrf rules out
        solved, _ = _lapack().dtrtrs(factor, rhs, lower=1, trans=("N", "T").index(trans))
        return solved


def _operator(operator) -> np.ndarray:
    """``H`` as state indices (a 1-D integer array) or a row-major float matrix."""
    name = "observation operator"
    if np.ndim(operator) == 1:
        index = np.asarray(operator)
        if index.dtype == np.bool_:
            raise ValueError(f"{name}: a boolean mask is not accepted; pass the state indices it selects")
        if index.dtype.kind in "iu":
            index = np.ascontiguousarray(index, dtype=np.intp)
            # the ufunc reduction, without ndarray.min's wrapper
            if index.size and np.minimum.reduce(index) < 0:
                raise ValueError(f"{name}: state index {np.minimum.reduce(index)} is negative")
            return index
    return np.ascontiguousarray(require_matrix(operator, name))


def _error_factor(cov: np.ndarray) -> np.ndarray:
    """Lower factor of ``R``: standard deviations for variances, else Cholesky."""
    message = "observation error covariance R not positive definite"
    if cov.ndim == 1:
        if not np.logical_and.reduce(cov > 0.0):
            raise np.linalg.LinAlgError(message)
        return np.sqrt(cov)
    factor, info = _lapack().dpotrf(cov, lower=1, clean=1)
    if info:
        raise np.linalg.LinAlgError(message)
    return factor


def perturbation_matrix(ens: ForecastEnsemble) -> PerturbationMatrix:
    """Scaled perturbations: column i is ``(member_i - mean) / sqrt(m - 1)``.

    The deviations are re-centered before they are scaled. Their row sums
    then hold only the rounding residue of the mean, and a row of identical
    members, whose deviations are one constant of a few ulps, becomes
    exactly zero; scaling first would turn that constant into noise that the
    re-centering could not cancel.
    """
    m = ens.size
    scaled = ens.members - ens.mean[:, None]
    center_rows(scaled)
    scaled /= math.sqrt(m - 1)
    return PerturbationMatrix(matrix=scaled, scale_members=m)


def forecast_cov(pert: PerturbationMatrix) -> np.ndarray:
    """Ensemble forecast covariance ``Z @ Z.T``, exactly symmetric since ``Z`` is row-major."""
    return pert.matrix @ pert.matrix.T


def reconstruct_members(mean, perturbations) -> ForecastEnsemble:
    """Invert the perturbation scaling: member i is ``mean + sqrt(m-1) * col_i``.

    The perturbation rows must sum to zero within 1e-12 relative to the
    Frobenius norm, otherwise the result would not have ``mean`` as its
    ensemble mean.
    """
    mean_arr = require_vector(mean, "mean")
    za = require_matrix(perturbations, "perturbations")
    n, m = za.shape
    if mean_arr.shape != (n,):
        raise ValueError(f"mean length {mean_arr.shape[0]} does not match state dimension {n}")
    if m < 2:
        raise ValueError("ensemble too small: need at least 2 members")
    require_centered(za, 1e-12, "perturbations not centered")
    members = mean_arr[:, None] + np.sqrt(m - 1) * za
    return ForecastEnsemble(members)
