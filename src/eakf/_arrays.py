"""Array validation and small norm helpers shared across the package.

The analyses these helpers guard are small (``verify`` draws ``n <= 20``,
``m <= 12``), so a numpy call's fixed cost outweighs its arithmetic. Each
guard therefore makes as few numpy calls as it can: ``ndarray.all``,
``np.mean`` and ``np.linalg.norm`` each add a Python-level wrapper around
the same C loops.
"""

from __future__ import annotations

import math

import numpy as np

# Floor used when turning an absolute difference into a relative one, so that
# comparisons against an exactly zero reference are well defined.
REL_NORM_FLOOR = 1e-300

# Smallest normal float64, 2.2e-308
_TINY = float(np.finfo(np.float64).tiny)

# Smallest norm whose squared entries sum without underflow error
_MIN_UNSCALED_NORM = math.sqrt(_TINY / np.finfo(np.float64).eps)


def _as_float64(a, name: str) -> np.ndarray:
    """``a`` as a float64 array; a float64 ndarray is returned as is."""
    if type(a) is np.ndarray and a.dtype == np.float64:
        return a
    if np.iscomplexobj(a):
        raise ValueError(f"{name}: complex input not supported")
    return np.asarray(a, dtype=np.float64)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite (true for an empty array)."""
    # count_nonzero has a fast path for booleans; a ufunc reduction costs
    # about twice as much at these sizes
    return np.count_nonzero(np.isfinite(a)) == a.size


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a finite float64 2-D array, raising ValueError otherwise."""
    arr = _as_float64(a, name)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def require_vector(a, name: str = "vector") -> np.ndarray:
    """Return ``a`` as a finite float64 1-D array, raising ValueError otherwise."""
    arr = _as_float64(a, name)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def _unscaled_norm(a: np.ndarray) -> float:
    # what np.linalg.norm computes for a real array, without its dispatch
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``; raises ValueError if it does not fit in float64.

    Squares overflow once entries pass about 1e154, and a guard ``x > tol * inf``
    then checks nothing; they lose precision to underflow once the norm falls
    below ``sqrt(tiny / eps)``, about 1e-146, and read 0 near 1e-162. Only then
    is the norm recomputed on ``a`` scaled by its largest entry (numpy's
    overflow warning is left unsuppressed).
    """
    norm = _unscaled_norm(a)
    # count_nonzero keeps the common exact zero (a centered residual) cheap
    if (norm == math.inf or norm < _MIN_UNSCALED_NORM) and np.count_nonzero(a):
        scale = float(np.abs(a).max())
        norm = scale * _unscaled_norm(a / scale)
    # a nan norm would pass every guard ``x > tol * y`` unnoticed
    if not math.isfinite(norm):
        raise ValueError("Frobenius norm is not finite in float64")
    return norm


def center_rows(a: np.ndarray) -> None:
    """Subtract each row's average from ``a``, in place."""
    a -= np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def require_centered(a: np.ndarray, tol: float, message: str) -> None:
    """Raise ValueError(``message``) unless ``||row sums|| <= tol * ||a||``.

    Below the normal range rounding is absolute, 4.9e-324 a step, and the
    message then names the norm.
    """
    row_sums = np.add.reduce(a, axis=1)
    norm = frobenius(a)
    if frobenius(row_sums) > tol * norm:
        if norm < _TINY:
            message += (
                f"; their norm {norm:.2g} is below the smallest normal float64, "
                f"{_TINY:.2g}, where rounding cannot center them"
            )
        raise ValueError(message)


def symmetrize(a: np.ndarray) -> np.ndarray:
    out = a + a.T
    out *= 0.5
    return out
