"""Array validation and small norm helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np

# Floor used when turning an absolute difference into a relative one, so that
# comparisons against an exactly zero reference are well defined.
REL_NORM_FLOOR = 1e-300


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a finite float64 2-D array, raising ValueError otherwise."""
    if np.iscomplexobj(a):
        raise ValueError(f"{name}: complex input not supported")
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def require_vector(a, name: str = "vector") -> np.ndarray:
    """Return ``a`` as a finite float64 1-D array, raising ValueError otherwise."""
    if np.iscomplexobj(a):
        raise ValueError(f"{name}: complex input not supported")
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``; raises ValueError if it does not fit in float64.

    Squares overflow once entries pass about 1e154, and a guard ``x > tol * inf``
    then checks nothing, so only then is the norm recomputed on ``a`` scaled by
    its largest entry (numpy's overflow warning is left unsuppressed).
    """
    norm = float(np.linalg.norm(a))
    if norm == np.inf:
        scale = float(np.max(np.abs(a)))
        norm = scale * float(np.linalg.norm(a / scale))
    # a nan norm would pass every guard ``x > tol * y`` unnoticed
    if not math.isfinite(norm):
        raise ValueError("Frobenius norm is not finite in float64")
    return norm


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)
