"""Random-instance verification sweep against the dense Kalman oracle.

Every trial draws a seeded instance of the fixed sizes in
:mod:`eakf.instances`, runs the analysis, and checks two things
at the 1e-10 contract (:data:`eakf.oracle.TOLERANCE`): the analysis
covariance against the direct Kalman posterior, and the mutual agreement of
the three oracle routes (direct, reduced, Woodbury) on the same instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .ensemble import forecast_cov, perturbation_matrix
from .instances import ALL_CATEGORIES, random_instance
from .oracle import (
    TOLERANCE,
    compare_cov,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from .update import analyze

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class VerifyConfig:
    trials: int = 1000
    seed: int = 0
    include_rank_deficient: bool = False
    include_partial_obs: bool = False
    include_zero_h: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def run_verify(cfg: VerifyConfig) -> dict:
    """Run the sweep and return the JSON-ready report (no timestamp)."""
    # generic and zero_spread always run; the flags add the other three
    flags = (True, True, cfg.include_rank_deficient, cfg.include_partial_obs, cfg.include_zero_h)
    pool = [category for category, on in zip(ALL_CATEGORIES, flags) if on]
    trials = []
    for index in range(cfg.trials):
        category = pool[index % len(pool)]
        inst = random_instance(cfg.seed + index, category)
        pert = perturbation_matrix(inst.ensemble)
        direct = posterior_cov_direct(forecast_cov(pert), inst.observation)
        result = analyze(inst.ensemble, inst.observation)

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
