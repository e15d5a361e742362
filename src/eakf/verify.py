"""Random-instance verification sweep against the dense Kalman oracle.

Every trial draws a seeded instance of the fixed sizes in
:mod:`eakf.instances`, cycling through every category in the order of
:data:`eakf.instances.ALL_CATEGORIES`, runs the analysis, and checks two
things at the 1e-10 contract (:data:`eakf.oracle.TOLERANCE`): the analysis
covariance against the direct Kalman posterior, and the mutual agreement of
the three oracle routes (direct, reduced, Woodbury) on the same instance,
all built from the analysis' own ``Z`` (:func:`eakf.update._analyses`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .ensemble import forecast_cov
from .instances import ALL_CATEGORIES, PARTIAL_OBS, RANK_DEFICIENT, ZERO_H, random_instance
from .oracle import (
    TOLERANCE,
    compare_cov,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from .update import _analyses, adjustment_matrix

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class VerifyConfig:
    """A sweep over every category of ``ALL_CATEGORIES``. Each ``include_*``
    field can drop one; no command sets them, and they stay only because the
    benchmark's workloads pass them."""

    trials: int = 1000
    seed: int = 0
    include_rank_deficient: bool = True
    include_partial_obs: bool = True
    include_zero_h: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def run_verify(cfg: VerifyConfig) -> dict:
    """Run the sweep and return the JSON-ready report (no timestamp)."""
    kept = {RANK_DEFICIENT: cfg.include_rank_deficient, PARTIAL_OBS: cfg.include_partial_obs,
            ZERO_H: cfg.include_zero_h}
    pool = [category for category in ALL_CATEGORIES if kept.get(category, True)]
    trials = []
    for index in range(cfg.trials):
        category = pool[index % len(pool)]
        inst = random_instance(cfg.seed + index, category)
        pert, result = _analyses(inst.ensemble, inst.observation, adjustment_matrix)
        direct = posterior_cov_direct(forecast_cov(pert), inst.observation)

        analysis_cmp = compare_cov(result.covariance, direct)
        reduced_cmp = compare_cov(posterior_cov_reduced(pert, inst.observation), direct)
        woodbury_cmp = compare_cov(posterior_cov_woodbury(pert, inst.observation), direct)

        trials.append(
            {
                "trial": index,
                "seed": inst.seed,
                "category": category,
                "n": inst.ensemble.state_dim,
                "m": inst.ensemble.size,
                "p": inst.observation.obs_dim,
                "analysis_vs_direct": analysis_cmp.frobenius_rel,
                "reduced_vs_direct": reduced_cmp.frobenius_rel,
                "woodbury_vs_direct": woodbury_cmp.frobenius_rel,
                "passed": analysis_cmp.passed and reduced_cmp.passed and woodbury_cmp.passed,
            }
        )
    failed = sum(not row["passed"] for row in trials)
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": asdict(cfg),
        "tolerance": TOLERANCE,
        "categories": dict(sorted(Counter(row["category"] for row in trials).items())),
        "trials_total": cfg.trials,
        "trials_failed": failed,
        "max_rel_err": max(row["analysis_vs_direct"] for row in trials),
        "oracle_chain_max_rel_err": max(
            max(row["reduced_vs_direct"], row["woodbury_vs_direct"]) for row in trials
        ),
        "passed": failed == 0,
        "trials": trials,
    }
