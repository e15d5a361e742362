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
supposed to catch. Nor does it apply ``H`` through the observation model:
each route multiplies by ``H`` as a matrix, and expands a selection operator
given as state indices into its one-hot rows, ``np.eye(n)[idx]``, as it
expands a variance vector into ``diag(r)``. scipy is imported on the first
call, so importing this module does not load it.

:func:`compare_cov` compares two dense ``(n, n)`` covariances.
:func:`compare_factored` judges an analysis ``Za`` against the Woodbury
posterior without forming either: with ``W = [I + V R^-1 V.T]^-1`` and one
QR of ``[Za | Z] = Q [R_a | R_z]``, ``Q`` has orthonormal columns, so

    ||Za Za.T - Z W Z.T||_F = ||R_a R_a.T - R_z W R_z.T||_F

and likewise for the reference norm and both traces, all from ``2m x 2m``
matrices in ``O(n m^2)`` time and ``O(n m)`` memory (Tippett et al. 2003;
Golub & Van Loan, *Matrix Computations*, §5.2). The QR serves only to take
norms, so nothing it yields enters ``W``, and it is LAPACK's ``geqrf``
called here, not the QR of :func:`eakf.linalg.svd_full`: the two share no
code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._arrays import REL_NORM_FLOOR, _all_finite, _lapack, frobenius, require_matrix, symmetrize
from .ensemble import ObservationModel, PerturbationMatrix

# The exactness contract: the largest relative Frobenius error of an analysis
# covariance against the Kalman posterior.
TOLERANCE = 1e-10

# Workspace of geqrf per column of its input; the default, 3 per column, is
# too small for the blocked algorithm, and LAPACK then runs the unblocked one
_QR_WORK_PER_COLUMN = 64


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
    if not _all_finite(matrix):
        raise ValueError(_NOT_FINITE)
    # the symmetrized copy is exactly symmetric and ours: its transpose is
    # Fortran-ordered, so potrf factors it in place instead of copying it
    factor, info = _lapack().dpotrf(matrix.T, lower=1, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"{what} not positive definite")
    if not _all_finite(rhs):
        raise ValueError(_NOT_FINITE)
    if not rhs.size:
        # LAPACK rejects an empty system; p = 0 leaves nothing to solve
        return np.empty_like(rhs)
    solved, _ = _lapack().dpotrs(factor, rhs, lower=1)
    return solved


def _dense_error_cov(obs: ObservationModel) -> np.ndarray:
    """``R`` as a ``(p, p)`` matrix; the model keeps a diagonal ``R`` as variances."""
    r = obs.covariance
    return np.diag(r) if r.ndim == 1 else r


def _dense_operator(obs: ObservationModel, n: int, against: str) -> np.ndarray:
    """``H`` as a ``(p, n)`` matrix; state indices become the rows ``np.eye(n)[idx]``.

    ``against`` names what ``n`` was read from, in the error raised when the
    operator does not fit it.
    """
    h = obs.operator
    message = f"observation operator inconsistent with {against}"
    if h.ndim == 2:
        if h.shape[1] != n:
            raise ValueError(message)
        return h
    # the one-hot rows, without forming the n x n identity; the assignment
    # checks the range of the indices, none of which is negative
    dense = np.zeros((h.size, n))
    try:
        dense[np.arange(h.size), h] = 1.0
    except IndexError:
        raise ValueError(message) from None
    return dense


def posterior_cov_direct(forecast_cov, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``(I - K H) P_f`` with the standard gain."""
    pf = require_matrix(forecast_cov, "forecast covariance")
    n = pf.shape[0]
    if pf.shape != (n, n):
        raise ValueError("forecast covariance must be square")
    h = _dense_operator(obs, n, "forecast covariance")
    hpf = h @ pf
    innovation_cov = hpf @ h.T + _dense_error_cov(obs)
    # K.T = inv(H P_f H.T + R) @ H @ P_f
    gain_t = _spd_solve(innovation_cov, hpf, "innovation covariance")
    return symmetrize(pf - gain_t.T @ hpf)


def posterior_cov_reduced(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``Z [I - V (V.T V + R)^-1 V.T] Z.T``."""
    z = pert.matrix
    v = (_dense_operator(obs, z.shape[0], "perturbations") @ z).T
    solved = _spd_solve(v.T @ v + _dense_error_cov(obs), v.T, "reduced-form innovation covariance")
    middle = np.eye(pert.size) - v @ solved
    return symmetrize(z @ middle @ z.T)


def _woodbury_matrix(z: np.ndarray, obs: ObservationModel) -> np.ndarray:
    """The ensemble-space Woodbury matrix ``I + V R^-1 V.T``, ``V = (H Z).T``."""
    v = (_dense_operator(obs, z.shape[0], "perturbations") @ z).T
    r_inv_vt = _spd_solve(_dense_error_cov(obs), v.T, "observation error covariance R")
    return np.eye(z.shape[1]) + v @ r_inv_vt


def posterior_cov_woodbury(pert: PerturbationMatrix, obs: ObservationModel) -> np.ndarray:
    """Posterior covariance ``Z [I + V R^-1 V.T]^-1 Z.T``."""
    z = pert.matrix
    solved = _spd_solve(_woodbury_matrix(z, obs), z.T, "ensemble-space Woodbury matrix")
    return symmetrize(z @ solved)


def _report(lhs: np.ndarray, rhs: np.ndarray, tolerance: float, exponent: int = 0) -> ComparisonReport:
    """Compare ``lhs`` with ``rhs``, both scaled by ``2**-exponent``.

    The relative error does not depend on the scale; the absolute error and
    the traces are reported at the scale of the covariances themselves.
    """
    fro_abs = frobenius(lhs - rhs)
    fro_rel = fro_abs / max(frobenius(rhs), REL_NORM_FLOOR)
    trace_lhs = float(np.ldexp(lhs.trace(), exponent))
    trace_rhs = float(np.ldexp(rhs.trace(), exponent))
    return ComparisonReport(
        frobenius_abs=float(np.ldexp(fro_abs, exponent)),
        frobenius_rel=fro_rel,
        trace_lhs=trace_lhs,
        trace_rhs=trace_rhs,
        trace_deficit=trace_rhs - trace_lhs,
        tolerance=tolerance,
        passed=bool(fro_rel <= tolerance),
    )


def compare_cov(lhs, rhs, tolerance: float = TOLERANCE) -> ComparisonReport:
    """Compare two covariance matrices of identical shape.

    ``passed`` is ``frobenius_rel <= tolerance``; every command judges at the
    :data:`TOLERANCE` contract, a tighter value is for tests only, and a
    looser one raises.
    """
    a = require_matrix(lhs, "lhs")
    b = require_matrix(rhs, "rhs")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not 0.0 < tolerance <= TOLERANCE:
        raise ValueError(f"tolerance must be positive and at most {TOLERANCE:g}, got {tolerance!r}")
    return _report(a, b, tolerance)


def compare_factored(za, pert: PerturbationMatrix, obs: ObservationModel) -> ComparisonReport:
    """Compare ``Za @ Za.T`` with the Kalman posterior ``Z W Z.T``, forming neither.

    ``W = [I + V R^-1 V.T]^-1`` (``V = (H Z).T``) is the Woodbury route's
    ``(m, m)`` middle factor, applied by Cholesky solves, and ``Z`` the
    forecast perturbations ``pert.matrix``. One QR of ``[Za | Z]``, scaled by
    the power of two that brings its largest entry into ``[1/2, 1)``, gives
    the triangle ``[R_a | R_z]``; the report compares ``R_a R_a.T`` with
    ``R_z W R_z.T``, which have the Frobenius norms and traces of the
    ``(n, n)`` covariances. The scaling is exact and is applied after ``W``
    is formed, so an ensemble whose covariance underflows float64 is still
    judged, and ``frobenius_abs`` and the traces are reported unscaled.
    Judged at :data:`TOLERANCE`, in ``O(n m^2)`` time and ``O(n m)`` memory.
    """
    z = pert.matrix
    a = require_matrix(za, "analysis perturbations")
    if a.shape != z.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {z.shape}")
    middle = _woodbury_matrix(z, obs)
    n, m = z.shape
    stacked = np.empty((n, 2 * m), order="F")
    stacked[:, :m], stacked[:, m:] = a, z
    # max|[Za | Z]| in [2**(e-1), 2**e), taken from the extremes so no second
    # (n, 2m) array is formed; 2**-e is applied by ldexp, since as a float it
    # overflows for a subnormal maximum
    high = np.maximum.reduce(stacked, axis=None, initial=0.0)
    low = np.minimum.reduce(stacked, axis=None, initial=0.0)
    _, exponent = np.frexp(max(high, -low))
    np.ldexp(stacked, -exponent, out=stacked)
    # info is nonzero only for an illegal argument
    factored, _, _, _ = _lapack().dgeqrf(stacked, lwork=_QR_WORK_PER_COLUMN * 2 * m, overwrite_a=1)
    triangle = np.triu(factored[: 2 * m])
    r_a, r_z = triangle[:, :m], triangle[:, m:]
    reference = r_z @ _spd_solve(middle, r_z.T, "ensemble-space Woodbury matrix")
    return _report(r_a @ r_a.T, reference, TOLERANCE, 2 * exponent)
