"""Cycled twin experiment with linear-Gaussian dynamics.

Truth evolves as ``x_{k+1} = DYNAMICS_DECAY * x_k + w_k`` with Gaussian
model noise of variance ``MODEL_NOISE_VAR``; the full state is observed at
every step with independent Gaussian errors of variance ``OBS_NOISE_VAR``,
through the selection operator ``np.arange(n)`` (``H = I`` given as state
indices, so ``H Z`` is a row gather, not a product with an ``n x n``
identity) and a vector of variances (so no cycle loads scipy).
The ensemble is propagated with the same dynamics plus independent
per-member noise and analyzed with :func:`eakf.update.analyze`. What a run
checks today is that the cycle stays well posed: every analysis passes the
guards of :class:`eakf.update.AnalysisResult` (finite, centered), and the
report's ``all_finite`` says whether every RMSE and spread stayed finite.
Nothing compares the cycle with the exact Kalman filter: the member noise
is stochastic, so the forecast covariance is only a sample estimate. The
dynamics and the noise levels are fixed; a run varies only in its length,
its sizes and its seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import ForecastEnsemble, ObservationModel
from .update import analyze

SCHEMA_VERSION = 2

DYNAMICS_DECAY = 0.95
MODEL_NOISE_VAR = 0.04
OBS_NOISE_VAR = 1.0


@dataclass(frozen=True)
class TwinConfig:
    steps: int = 500
    n: int = 3
    m: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 2:
            raise ValueError("m must be >= 2")


def run_twin(cfg: TwinConfig) -> dict:
    """Run the experiment; returns the JSON-ready metrics with the series."""
    rng = np.random.default_rng(cfg.seed)
    model_std = np.sqrt(MODEL_NOISE_VAR)
    obs_std = np.sqrt(OBS_NOISE_VAR)
    operator = np.arange(cfg.n)
    obs_variances = np.full(cfg.n, OBS_NOISE_VAR)

    truth = rng.standard_normal(cfg.n)
    members = rng.standard_normal((cfg.n, cfg.m))

    series = []
    for step in range(1, cfg.steps + 1):
        truth = DYNAMICS_DECAY * truth + model_std * rng.standard_normal(cfg.n)
        members = DYNAMICS_DECAY * members + model_std * rng.standard_normal((cfg.n, cfg.m))
        observation = truth + obs_std * rng.standard_normal(cfg.n)
        model = ObservationModel(
            operator=operator, covariance=obs_variances, observation=observation
        )
        result = analyze(ForecastEnsemble(members), model)
        members = result.members()
        rmse = float(np.linalg.norm(result.mean - truth) / np.sqrt(cfg.n))
        # trace(Za @ Za.T) without forming the (n, n) covariance
        spread = float(np.sqrt(np.sum(result.perturbations**2) / cfg.n))
        series.append({"step": step, "rmse": rmse, "spread": spread})

    # the steps past steps // 2; every step is analyzed, so row i is step i + 1
    tail = series[cfg.steps // 2 :]
    rmse_mean = float(np.mean([row["rmse"] for row in tail]))
    spread_mean = float(np.mean([row["spread"] for row in tail]))
    ratio = spread_mean / rmse_mean if rmse_mean > 0.0 else float("inf")
    finite = bool(np.all(np.isfinite([[row["rmse"], row["spread"]] for row in series])))
    return {
        "schema": SCHEMA_VERSION,
        "command": "twin",
        "config": asdict(cfg),
        "analyses": len(series),
        "rmse_mean_last_half": rmse_mean,
        "spread_mean_last_half": spread_mean,
        "spread_rmse_ratio": ratio,
        "rmse_final": series[-1]["rmse"],
        "all_finite": finite,
        "series": series,
    }


def series_csv_lines(report: dict) -> list[str]:
    lines = ["step,rmse,spread"]
    for row in report["series"]:
        lines.append(f"{row['step']},{row['rmse']:.17g},{row['spread']:.17g}")
    return lines
