"""Cycled twin experiment with linear-Gaussian dynamics.

Truth evolves as ``x_{k+1} = decay * x_k + w_k`` with Gaussian model noise;
the full state is observed every ``obs_every`` steps with independent
Gaussian errors. The ensemble is propagated with the same dynamics plus
independent per-member noise and analyzed with the correct-mode update.
Linear dynamics keep this an exactness check of the cycling machinery, not
a chaos benchmark.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import ForecastEnsemble, ObservationModel
from .update import MODE_CORRECT, analyze

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TwinConfig:
    steps: int = 500
    n: int = 3
    m: int = 12
    dynamics_decay: float = 0.95
    model_noise_var: float = 0.04
    obs_every: int = 1
    obs_noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.obs_every < 1:
            raise ValueError("obs_every must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if not 0.0 < self.dynamics_decay <= 1.0:
            raise ValueError("dynamics_decay must be in (0, 1]")
        if self.model_noise_var < 0.0:
            raise ValueError("model_noise_var must be >= 0")
        if self.obs_noise_var <= 0.0:
            raise ValueError("obs_noise_var must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


def run_twin(cfg: TwinConfig) -> dict:
    """Run the experiment; returns the JSON-ready metrics with the series."""
    rng = np.random.default_rng(cfg.seed)
    model_std = np.sqrt(cfg.model_noise_var)
    obs_std = np.sqrt(cfg.obs_noise_var)
    operator = np.eye(cfg.n)
    obs_variances = np.full(cfg.n, cfg.obs_noise_var)

    truth = rng.standard_normal(cfg.n)
    members = rng.standard_normal((cfg.n, cfg.m))

    series: list[tuple[int, float, float]] = []
    for step in range(1, cfg.steps + 1):
        truth = cfg.dynamics_decay * truth + model_std * rng.standard_normal(cfg.n)
        members = cfg.dynamics_decay * members + model_std * rng.standard_normal(
            (cfg.n, cfg.m)
        )
        if step % cfg.obs_every:
            continue
        observation = truth + obs_std * rng.standard_normal(cfg.n)
        model = ObservationModel(
            operator=operator, covariance=obs_variances, observation=observation
        )
        result = analyze(ForecastEnsemble.from_members(members), model, MODE_CORRECT)
        members = result.members()
        rmse = float(np.linalg.norm(result.mean - truth) / np.sqrt(cfg.n))
        # trace(Za @ Za.T) without forming the (n, n) covariance
        spread = float(np.sqrt(np.sum(result.perturbations**2) / cfg.n))
        series.append((step, rmse, spread))

    if not series:
        raise ValueError("no analysis steps executed; lower obs_every or raise steps")

    half_start = cfg.steps // 2
    tail = [(s, r, sp) for s, r, sp in series if s > half_start]
    if not tail:
        tail = series[-1:]
    rmse_mean = float(np.mean([r for _, r, _ in tail]))
    spread_mean = float(np.mean([sp for _, _, sp in tail]))
    ratio = spread_mean / rmse_mean if rmse_mean > 0.0 else float("inf")
    finite = bool(np.all(np.isfinite([v for row in series for v in row[1:]])))
    return {
        "schema": SCHEMA_VERSION,
        "command": "twin",
        "config": cfg.to_dict(),
        "analyses": len(series),
        "rmse_mean_last_half": rmse_mean,
        "spread_mean_last_half": spread_mean,
        "spread_rmse_ratio": ratio,
        "rmse_final": series[-1][1],
        "all_finite": finite,
        "series": [
            {"step": s, "rmse": r, "spread": sp} for s, r, sp in series
        ],
    }


def series_csv_lines(report: dict) -> list[str]:
    lines = ["step,rmse,spread"]
    for row in report["series"]:
        lines.append(f"{row['step']},{row['rmse']:.17g},{row['spread']:.17g}")
    return lines
