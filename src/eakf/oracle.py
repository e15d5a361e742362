"""Reference Kalman posterior covariances and comparison reports.

Three algebraically equivalent routes to the exact posterior covariance are
provided: the textbook gain form, the reduced perturbation-space form, and
the Woodbury form

    P_a = (I - K H) P_f
        = Z [I - V (V.T V + R)^-1 V.T] Z.T
        = Z [I + V R^-1 V.T]^-1 Z.T         with V = (H Z).T

These serve as the oracle for the adjustment-based update, so this module
deliberately shares no decomposition code with :mod:`eakf.update`: every
route works through plain Cholesky solves on the matrices as written,
LAPACK's ``potrf`` and ``potrs`` called directly. An oracle that reused the
SVD/eigendecomposition pipeline could inherit the very ordering bug it is
supposed to catch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ._arrays import REL_NORM_FLOOR, frobenius, require_matrix, symmetrize
from .ensemble import ObservationModel, PerturbationMatrix


@dataclass(frozen=True)
class ComparisonReport:
    """Covariance comparison summary.

    ``frobenius_rel`` is ``frobenius_abs / max(||rhs||_F, floor)`` with a
    tiny absolute floor so two zero matrices compare as equal. A positive
    ``trace_deficit`` (``trace_rhs - trace_lhs``) means the left-hand side is
    under-dispersed relative to the reference.
    """

    frobenius_abs: float
    frobenius_rel: float
    trace_lhs: float
    trace_rhs: float
    trace_deficit: float
    max_abs_entry_diff: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


# The message of scipy's ``check_finite`` error
_NOT_FINITE = "array must not contain infs or NaNs"


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """``inv(matrix) @ rhs`` by Cholesky; ``what`` names the matrix in errors.

    A matrix or right-hand side that overflowed float64 raises ValueError
    before it reaches LAPACK, which may factor an inf without complaint or
    report a nan as an indefinite matrix.
    """
    matrix = symmetrize(matrix)
    if not np.isfinite(matrix).all():
        raise ValueError(_NOT_FINITE)
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info:
        raise np.linalg.LinAlgError(f"{what} not positive definite")
    if not np.isfinite(rhs).all():
        raise ValueError(_NOT_FINITE)
    if not rhs.size:
        # LAPACK rejects an empty system; p = 0 leaves nothing to solve
        return np.empty_like(rhs)
    solved, _ = dpotrs(factor, rhs, lower=1)
    return solved


def _dense_error_cov(obs: ObservationModel) -> np.ndarray:
    """``R`` as a ``(p, p)`` matrix; the model keeps a diagonal ``R`` as variances."""
    r = obs.covariance
    return np.diag(r) if r.ndim == 1 else r


def posterior_cov_direct(forecast_cov, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``(I - K H) P_f`` with the standard gain."""
    pf = require_matrix(forecast_cov, "forecast covariance")
    n = pf.shape[0]
    if pf.shape != (n, n):
        raise ValueError("forecast covariance must be square")
    if obs.state_dim != n:
        raise ValueError("observation operator inconsistent with forecast covariance")
    h = obs.operator
    hpf = h @ pf
    innovation_cov = hpf @ h.T + _dense_error_cov(obs)
    # K.T = inv(H P_f H.T + R) @ H @ P_f
    gain_t = _spd_solve(innovation_cov, hpf, "innovation covariance")
    return symmetrize(pf - gain_t.T @ hpf)


def posterior_cov_reduced(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``Z [I - V (V.T V + R)^-1 V.T] Z.T``."""
    z = pert.matrix
    if obs.state_dim != z.shape[0]:
        raise ValueError("observation operator inconsistent with perturbations")
    v = (obs.operator @ z).T
    solved = _spd_solve(v.T @ v + _dense_error_cov(obs), v.T, "reduced-form innovation covariance")
    middle = np.eye(pert.size) - v @ solved
    return symmetrize(z @ middle @ z.T)


def posterior_cov_woodbury(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``Z [I + V R^-1 V.T]^-1 Z.T``."""
    z = pert.matrix
    if obs.state_dim != z.shape[0]:
        raise ValueError("observation operator inconsistent with perturbations")
    v = (obs.operator @ z).T
    r_inv_vt = _spd_solve(_dense_error_cov(obs), v.T, "observation error covariance R")
    middle = np.eye(pert.size) + v @ r_inv_vt
    solved = _spd_solve(middle, z.T, "ensemble-space Woodbury matrix")
    return symmetrize(z @ solved)


def compare_cov(lhs, rhs, tolerance: float = 1e-10) -> ComparisonReport:
    """Compare two covariance matrices of identical shape."""
    a = require_matrix(lhs, "lhs")
    b = require_matrix(rhs, "rhs")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    diff = a - b
    fro_abs = frobenius(diff)
    fro_rel = fro_abs / max(frobenius(b), REL_NORM_FLOOR)
    trace_lhs = float(a.trace())
    trace_rhs = float(b.trace())
    return ComparisonReport(
        frobenius_abs=fro_abs,
        frobenius_rel=fro_rel,
        trace_lhs=trace_lhs,
        trace_rhs=trace_rhs,
        trace_deficit=trace_rhs - trace_lhs,
        max_abs_entry_diff=float(np.abs(diff).max()) if diff.size else 0.0,
        tolerance=tolerance,
        passed=bool(fro_rel <= tolerance),
    )
