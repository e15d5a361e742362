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
from scipy.linalg.lapack import dpotrf, dtrtrs

from ._arrays import frobenius, require_matrix, require_vector, symmetrize


@dataclass(frozen=True)
class ForecastEnsemble:
    """Forecast ensemble: members (n, m) with the cached column mean (n,).

    The mean is stored at construction rather than recomputed so it cannot
    drift from the deviations derived from it. Members are stored row-major:
    a row sum, and with it the analysis, would otherwise change in its last
    bits with the memory layout the caller happened to use.
    """

    members: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        members = np.ascontiguousarray(require_matrix(self.members, "members"))
        mean = require_vector(self.mean, "mean")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mean", mean)
        n, m = members.shape
        if m < 2:
            raise ValueError("ensemble too small: need at least 2 members")
        if mean.shape != (n,):
            raise ValueError(f"mean length {mean.shape[0]} does not match state dimension {n}")
        # sum / m is what ndarray.mean computes for float64, without its wrapper
        actual = np.add.reduce(members, axis=1) / m
        if frobenius(mean - actual) > 1e-14 * frobenius(members):
            raise ValueError("mean is not the row-wise average of the members")

    @classmethod
    def from_members(cls, members) -> "ForecastEnsemble":
        arr = np.ascontiguousarray(require_matrix(members, "members"))
        return cls(members=arr, mean=np.add.reduce(arr, axis=1) / arr.shape[1])

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
    annihilates the ones vector and its rank is at most ``m - 1``.
    """

    matrix: np.ndarray
    scale_members: int

    def __post_init__(self):
        arr = require_matrix(self.matrix, "perturbation matrix")
        object.__setattr__(self, "matrix", arr)
        if self.scale_members < 2:
            raise ValueError("ensemble too small: need at least 2 members")
        if arr.shape[1] != self.scale_members:
            raise ValueError("column count does not match scale_members")
        row_sums = np.add.reduce(arr, axis=1)
        if frobenius(row_sums) > 1e-13 * frobenius(arr):
            raise ValueError("perturbations not centered: rows must sum to zero")

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ObservationModel:
    """Observation operator (p, n), SPD error covariance, observation (p,).

    ``covariance`` is kept as given: a (p, p) matrix, or a length-p vector of
    variances for a diagonal ``R``, which is never expanded. ``cholesky`` is
    the lower factor ``L`` of ``R = L @ L.T``, computed once at construction
    (which validates positive definiteness): the (p,) standard deviations for
    a vector, otherwise LAPACK's ``potrf`` factor, a (p, p) matrix in Fortran
    order with zeros above the diagonal. :meth:`whiten` applies ``inv(L)``,
    through LAPACK's ``trtrs`` for a matrix. Both routines are called
    directly: at small ``p`` scipy's wrappers cost several times the solve.
    ``operator`` is stored row-major, like the ensemble's members, so that
    the analysis does not depend on the caller's memory layout.
    """

    operator: np.ndarray
    covariance: np.ndarray
    observation: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        operator = np.ascontiguousarray(require_matrix(self.operator, "observation operator"))
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
            if frobenius(cov - cov.T) > 1e-10 * max(frobenius(cov), 1e-300):
                raise ValueError("observation error covariance not symmetric")
            cov = symmetrize(cov)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "cholesky", _error_factor(cov))

    @property
    def obs_dim(self) -> int:
        return self.operator.shape[0]

    @property
    def state_dim(self) -> int:
        return self.operator.shape[1]

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
        solved, _ = dtrtrs(factor, rhs, lower=1, trans=("N", "T").index(trans))
        return solved


def _error_factor(cov: np.ndarray) -> np.ndarray:
    """Lower factor of ``R``: standard deviations for variances, else Cholesky."""
    message = "observation error covariance R not positive definite"
    if cov.ndim == 1:
        if not np.logical_and.reduce(cov > 0.0):
            raise np.linalg.LinAlgError(message)
        return np.sqrt(cov)
    factor, info = dpotrf(cov, lower=1, clean=1)
    if info:
        raise np.linalg.LinAlgError(message)
    return factor


def perturbation_matrix(ens: ForecastEnsemble) -> PerturbationMatrix:
    """Scaled perturbations: column i is ``(member_i - mean) / sqrt(m - 1)``."""
    m = ens.size
    scaled = ens.members - ens.mean[:, None]
    scaled /= math.sqrt(m - 1)
    # Remove the rounding residue of subtracting the cached mean so the
    # zero-row-sum invariant holds exactly at construction.
    scaled -= np.add.reduce(scaled, axis=1, keepdims=True) / m
    return PerturbationMatrix(matrix=scaled, scale_members=m)


def forecast_cov(pert: PerturbationMatrix) -> np.ndarray:
    """Ensemble forecast covariance ``Z @ Z.T``, exactly symmetric."""
    # numpy takes a symmetric rank-k update, not a general product, only for
    # a contiguous operand (C or Fortran order)
    z = np.ascontiguousarray(pert.matrix)
    return z @ z.T


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
    row_sums = np.add.reduce(za, axis=1)
    if frobenius(row_sums) > 1e-12 * frobenius(za):
        raise ValueError("perturbations not centered")
    members = mean_arr[:, None] + np.sqrt(m - 1) * za
    return ForecastEnsemble.from_members(members)
