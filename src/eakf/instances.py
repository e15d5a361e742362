"""Seeded random assimilation instances covering the degenerate regimes.

Categories:

* ``generic``: dense random observation operator, n and m independent.
* ``zero_spread``: identical members, so the scaled perturbations vanish
  exactly, although the derived mean may differ from the member value in
  its last bit.
* ``rank_deficient``: forces ``n >= m`` so the perturbations cannot span
  the state space (``rank <= m - 1 < n``).
* ``partial_obs``: coordinate-selection operator with fewer rows than the
  perturbation rank, so the observed Gram matrix has extra null directions
  inside the row space. It is kept as its ``p`` sorted, distinct state
  indices (see :class:`eakf.ensemble.ObservationModel`), not as one-hot rows.
* ``zero_h``: zero observation operator (no information in the update).

Sizes are fixed: ``n`` in 1-20 (``m``-20 for ``rank_deficient``), ``m`` in
2-12 and ``p`` in 1-``n``. Each instance is fully determined by its seed and
category: all draws come from one ``numpy`` generator in a fixed order
(sizes, members, operator, error covariance, observation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import ForecastEnsemble, ObservationModel

GENERIC = "generic"
ZERO_SPREAD = "zero_spread"
RANK_DEFICIENT = "rank_deficient"
PARTIAL_OBS = "partial_obs"
ZERO_H = "zero_h"

ALL_CATEGORIES = (GENERIC, ZERO_SPREAD, RANK_DEFICIENT, PARTIAL_OBS, ZERO_H)

_MAX_R_CONDITION = 1e4
# Inclusive bounds of the drawn state dimension and ensemble size
_MAX_N = 20
_MIN_M, _MAX_M = 2, 12


@dataclass(frozen=True)
class RandomInstance:
    ensemble: ForecastEnsemble
    observation: ObservationModel
    category: str
    seed: int


def _draw_spd(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random SPD matrix ``D + L L.T`` with condition number capped at 1e4."""
    low = rng.standard_normal((p, p))
    base = low @ low.T + np.diag(rng.uniform(0.1, 1.0, p))
    eigvals = np.linalg.eigvalsh(base)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    shift = max(0.0, (hi - _MAX_R_CONDITION * lo) / (_MAX_R_CONDITION - 1.0))
    return base + shift * np.eye(p)


def random_instance(seed: int, category: str = GENERIC) -> RandomInstance:
    """Draw a reproducible instance of the requested category.

    ``n`` is drawn from 1-20 (``m``-20 for ``rank_deficient``), ``m`` from
    2-12 and ``p`` from 1-``n``. For ``partial_obs`` the state and ensemble
    sizes are raised to at least (2, 3) and ``p`` is drawn below the expected
    perturbation rank instead.
    """
    if category not in ALL_CATEGORIES:
        raise ValueError(f"unknown instance category {category!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, _MAX_N + 1))
    m = int(rng.integers(_MIN_M, _MAX_M + 1))

    if category == PARTIAL_OBS:
        n, m = max(n, 2), max(m, 3)
        # p below the expected perturbation rank min(n, m - 1)
        p = int(rng.integers(1, min(n, m - 1)))
    else:
        if category == RANK_DEFICIENT:
            n = int(rng.integers(m, _MAX_N + 1))
        p = int(rng.integers(1, n + 1))

    if category == ZERO_SPREAD:
        members = np.repeat(rng.standard_normal(n)[:, None], m, axis=1)
    else:
        members = rng.standard_normal((n, m))
    ensemble = ForecastEnsemble(members)

    if category == ZERO_H:
        operator = np.zeros((p, n))
    elif category == PARTIAL_OBS:
        operator = np.sort(rng.choice(n, size=p, replace=False))
    else:
        operator = rng.standard_normal((p, n))

    if rng.random() < 0.5:
        covariance = np.diag(rng.uniform(0.1, 10.0, p))
    else:
        covariance = _draw_spd(rng, p)
    observation = rng.standard_normal(p)

    model = ObservationModel(operator=operator, covariance=covariance, observation=observation)
    return RandomInstance(ensemble=ensemble, observation=model, category=category, seed=seed)
