"""Each command's report is what its rows say.

The summary fields of the ``verify``, ``demo-pitfall`` and ``twin`` reports
are derived from the rows each report carries; these tests recompute them
from the rows, including on runs forced to fail.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import eakf.demo
import eakf.twin
import eakf.verify
from eakf.demo import run_pitfall_demo
from eakf.instances import (
    ALL_CATEGORIES,
    GENERIC,
    PARTIAL_OBS,
    RANK_DEFICIENT,
    ZERO_H,
    ZERO_SPREAD,
)
from eakf.twin import TwinConfig, run_twin
from eakf.update import AnalysisResult
from eakf.verify import VerifyConfig, run_verify

# (rank_deficient, partial_obs, zero_h) and the categories of a 7-trial sweep
FLAG_SETS = {
    "none": ((False, False, False), {GENERIC: 4, ZERO_SPREAD: 3}),
    "rank_deficient": ((True, False, False), {GENERIC: 3, ZERO_SPREAD: 2, RANK_DEFICIENT: 2}),
    "partial_obs": ((False, True, False), {GENERIC: 3, ZERO_SPREAD: 2, PARTIAL_OBS: 2}),
    "zero_h": ((False, False, True), {GENERIC: 3, ZERO_SPREAD: 2, ZERO_H: 2}),
    "all": (
        (True, True, True),
        {GENERIC: 2, ZERO_SPREAD: 2, RANK_DEFICIENT: 1, PARTIAL_OBS: 1, ZERO_H: 1},
    ),
}


def verify_config(trials, flags, seed=0):
    rank_deficient, partial_obs, zero_h = flags
    return VerifyConfig(
        trials=trials,
        seed=seed,
        include_rank_deficient=rank_deficient,
        include_partial_obs=partial_obs,
        include_zero_h=zero_h,
    )


@pytest.mark.parametrize("name", FLAG_SETS)
def test_verify_categories_follow_all_categories(name):
    flags, counts = FLAG_SETS[name]
    report = run_verify(verify_config(7, flags))
    # the enabled categories, cycled in the order of ALL_CATEGORIES
    pool = [category for category in ALL_CATEGORIES if category in counts]
    assert [row["category"] for row in report["trials"]] == [pool[i % len(pool)] for i in range(7)]
    assert report["categories"] == counts
    assert list(report["categories"]) == sorted(counts)


def test_verify_summary_is_derived_from_trials(monkeypatch):
    # trials 5 and 9 are generic. Trial 5's analysis has twice the spread,
    # four times the covariance; trial 9's Woodbury route is 1.5 times its
    # covariance, so that route, not the reduced one, gives the chain's max.
    analyze, woodbury = eakf.verify.analyze, eakf.verify.posterior_cov_woodbury
    analyses, woodburys = [], []

    def one_wrong_analyze(ens, obs):
        analyses.append(None)
        result = analyze(ens, obs)
        if len(analyses) == 6:
            return AnalysisResult(mean=result.mean, perturbations=2.0 * result.perturbations)
        return result

    def one_wrong_woodbury(pert, obs):
        woodburys.append(None)
        return woodbury(pert, obs) * (1.5 if len(woodburys) == 10 else 1.0)

    monkeypatch.setattr(eakf.verify, "analyze", one_wrong_analyze)
    monkeypatch.setattr(eakf.verify, "posterior_cov_woodbury", one_wrong_woodbury)
    report = run_verify(verify_config(25, (True, True, True), seed=3))
    trials = report["trials"]
    assert [row["trial"] for row in trials if not row["passed"]] == [5, 9]
    assert report["trials_total"] == len(trials) == 25
    assert report["trials_failed"] == 2
    assert report["passed"] is False
    assert report["max_rel_err"] == max(row["analysis_vs_direct"] for row in trials)
    assert report["max_rel_err"] == trials[5]["analysis_vs_direct"] > 1.0
    assert report["oracle_chain_max_rel_err"] == max(
        max(row["reduced_vs_direct"], row["woodbury_vs_direct"]) for row in trials
    )
    assert report["oracle_chain_max_rel_err"] == trials[9]["woodbury_vs_direct"] > 0.1
    assert report["categories"] == {
        GENERIC: 5, PARTIAL_OBS: 5, RANK_DEFICIENT: 5, ZERO_H: 5, ZERO_SPREAD: 5,
    }


def test_pitfall_demo_fails_when_one_instance_fails(monkeypatch):
    # on the first (scalar) instance the "misordered" cut is the correct one
    # with twice the spread, so it gains trace and only that row fails
    misordered = eakf.demo._misordered_transform
    calls = []

    def first_inflated(svd, eig):
        calls.append(None)
        if len(calls) == 1:
            return 2.0 * eakf.demo.adjustment_matrix(svd, eig)
        return misordered(svd, eig)

    monkeypatch.setattr(eakf.demo, "_misordered_transform", first_inflated)
    report = run_pitfall_demo(0)
    assert [row["passed"] for row in report["instances"]] == [False, True]
    assert report["instances"][0]["deficit"] < 0.0
    assert report["passed"] is False


@pytest.mark.parametrize("steps", [1, 2, 41])
def test_twin_summary_is_derived_from_series(steps):
    report = run_twin(TwinConfig(steps=steps, n=4, m=6, seed=5))
    series = report["series"]
    assert [row["step"] for row in series] == list(range(1, steps + 1))
    tail = series[steps // 2 :]
    assert report["analyses"] == len(series)
    assert report["rmse_mean_last_half"] == float(np.mean([row["rmse"] for row in tail]))
    assert report["spread_mean_last_half"] == float(np.mean([row["spread"] for row in tail]))
    assert report["spread_rmse_ratio"] == (
        report["spread_mean_last_half"] / report["rmse_mean_last_half"]
    )
    assert report["rmse_final"] == series[-1]["rmse"]
    assert report["all_finite"] is True


def test_twin_is_not_all_finite_when_one_row_is_not(monkeypatch):
    # AnalysisResult rejects an infinite mean, so the last analysis is a
    # stand-in with the attributes run_twin reads
    analyze = eakf.twin.analyze
    cfg = TwinConfig(steps=6, n=3, m=5, seed=1)
    calls = []

    def last_infinite(ens, obs):
        result = analyze(ens, obs)
        calls.append(None)
        if len(calls) == cfg.steps:
            mean = np.full_like(result.mean, np.inf)
            return SimpleNamespace(
                mean=mean, perturbations=result.perturbations, members=result.members
            )
        return result

    monkeypatch.setattr(eakf.twin, "analyze", last_infinite)
    report = run_twin(cfg)
    series = report["series"]
    assert all(np.isfinite(row["rmse"]) for row in series[:-1])
    assert series[-1]["rmse"] == np.inf
    assert report["rmse_final"] == np.inf
    assert report["all_finite"] is False
