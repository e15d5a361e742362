"""Reproducible demonstration of the eigenvector-ordering pitfall.

Runs the hand-checkable scalar instance and one random rank-deficient
instance in both correct and misordered modes and reports the analysis
covariance trace of each against the exact Kalman posterior trace. The
misordered run must lose trace (under-dispersion) while the correct run
must match the oracle; anything else is a failure of the demonstration.
"""

from __future__ import annotations

import numpy as np

from .ensemble import ForecastEnsemble, ObservationModel, forecast_cov, perturbation_matrix
from .instances import RANK_DEFICIENT, random_instance
from .oracle import TOLERANCE, compare_cov, posterior_cov_direct
from .update import MODE_CORRECT, MODE_MISORDERED, analyze

SCHEMA_VERSION = 1


def scalar_instance() -> tuple[ForecastEnsemble, ObservationModel]:
    """Members [1, -1], H = [1], R = [2], y = 1: oracle posterior trace is 1."""
    ensemble = ForecastEnsemble.from_members(np.array([[1.0, -1.0]]))
    model = ObservationModel(
        operator=np.array([[1.0]]),
        covariance=np.array([[2.0]]),
        observation=np.array([1.0]),
    )
    return ensemble, model


def run_pitfall_demo(seed: int) -> dict:
    """Return the JSON-ready demo report (no timestamp)."""
    instances = [("scalar", *scalar_instance())]
    random_inst = random_instance(seed, RANK_DEFICIENT)
    instances.append(
        (
            f"rank_deficient(n={random_inst.ensemble.state_dim}, "
            f"m={random_inst.ensemble.size}, p={random_inst.observation.obs_dim})",
            random_inst.ensemble,
            random_inst.observation,
        )
    )

    rows = []
    all_ok = True
    for name, ensemble, model in instances:
        pert = perturbation_matrix(ensemble)
        oracle_cov = posterior_cov_direct(forecast_cov(pert), model)
        correct = analyze(ensemble, model, MODE_CORRECT)
        misordered = analyze(ensemble, model, MODE_MISORDERED, seed=seed)
        correct_cmp = compare_cov(correct.covariance, oracle_cov)
        deficit = float(np.trace(oracle_cov) - np.trace(misordered.covariance))
        ok = correct_cmp.passed and deficit > 0.0
        all_ok = all_ok and ok
        rows.append(
            {
                "name": name,
                "oracle_trace": float(np.trace(oracle_cov)),
                "correct_trace": float(np.trace(correct.covariance)),
                "misordered_trace": float(np.trace(misordered.covariance)),
                "deficit": deficit,
                "correct_passed": correct_cmp.passed,
                "passed": ok,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "command": "demo-pitfall",
        "seed": seed,
        "tolerance": TOLERANCE,
        "instances": rows,
        "passed": all_ok,
    }


def format_pitfall_report(report: dict) -> str:
    lines = [
        f"{'instance':<40} {'oracle':>12} {'correct':>12} {'misordered':>12} {'deficit':>12}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['name']:<40} {row['oracle_trace']:>12.6g} {row['correct_trace']:>12.6g} "
            f"{row['misordered_trace']:>12.6g} {row['deficit']:>12.6g}"
        )
    verdict = "reproduced" if report["passed"] else "NOT reproduced"
    lines.append(f"under-dispersion pitfall {verdict} (seed={report['seed']})")
    return "\n".join(lines)
