"""Random-instance verification sweep against the dense Kalman oracle.

Every trial draws a seeded instance of the fixed sizes in
:mod:`eakf.instances`, runs the correct-mode analysis, and checks two things
at the 1e-10 contract (:data:`eakf.oracle.TOLERANCE`): the analysis
covariance against the direct Kalman posterior, and the mutual agreement of
the three oracle routes (direct, reduced, Woodbury) on the same instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .ensemble import forecast_cov, perturbation_matrix
from .instances import category_pool, random_instance
from .oracle import (
    TOLERANCE,
    compare_cov,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from .update import MODE_CORRECT, analyze

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
    pool = category_pool(
        include_rank_deficient=cfg.include_rank_deficient,
        include_partial_obs=cfg.include_partial_obs,
        include_zero_h=cfg.include_zero_h,
    )
    trials = []
    categories: dict[str, int] = {}
    max_rel = 0.0
    chain_max_rel = 0.0
    failed = 0
    for index in range(cfg.trials):
        category = pool[index % len(pool)]
        inst = random_instance(cfg.seed + index, category)
        pert = perturbation_matrix(inst.ensemble)
        direct = posterior_cov_direct(forecast_cov(pert), inst.observation)
        result = analyze(inst.ensemble, inst.observation, MODE_CORRECT)

        analysis_cmp = compare_cov(result.covariance, direct)
        reduced_cmp = compare_cov(posterior_cov_reduced(pert, inst.observation), direct)
        woodbury_cmp = compare_cov(posterior_cov_woodbury(pert, inst.observation), direct)

        ok = analysis_cmp.passed and reduced_cmp.passed and woodbury_cmp.passed
        failed += 0 if ok else 1
        max_rel = max(max_rel, analysis_cmp.frobenius_rel)
        chain_max_rel = max(chain_max_rel, reduced_cmp.frobenius_rel, woodbury_cmp.frobenius_rel)
        categories[category] = categories.get(category, 0) + 1
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
                "passed": ok,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": asdict(cfg),
        "tolerance": TOLERANCE,
        "categories": dict(sorted(categories.items())),
        "trials_total": cfg.trials,
        "trials_failed": failed,
        "max_rel_err": max_rel,
        "oracle_chain_max_rel_err": chain_max_rel,
        "passed": failed == 0,
        "trials": trials,
    }
