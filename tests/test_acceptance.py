"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and must not be loosened.
"""

import json
import time
from pathlib import Path

import numpy as np

from eakf.cli import main as cli_main
from eakf.demo import misordered_analysis
from eakf.ensemble import ForecastEnsemble, ObservationModel, forecast_cov, perturbation_matrix
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.linalg import ordered_eig_psd, svd_full
from eakf.oracle import (
    compare_cov,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from eakf.twin import TwinConfig, run_twin
from eakf.update import analyze, project_observations

SWEEP_TRIALS = 1000
CONSISTENCY_TOL = 1e-10
CHAIN_TOL = 1e-10
PITFALL_ABS_TOL = 1e-12
ZERO_H_TOL = 1e-12
MEAN_TOL = 1e-10
ROW_SUM_TOL = 1e-12
SVD_RECON_TOL = 1e-12
EIG_RECON_TOL = 1e-10
# Spread/RMSE band for the twin run, frozen from the pre-build reference
# (ratio 0.91..1.07 over seeds 0..7 at 500 steps, 0.97 at 5000 steps).
TWIN_RATIO_BAND = (0.5, 2.0)


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def sweep():
    for index in range(SWEEP_TRIALS):
        yield random_instance(index, ALL_CATEGORIES[index % len(ALL_CATEGORIES)])


def operator_matrix(obs, n):
    """``H`` as a ``(p, n)`` matrix: a selection operator's indices become one-hot rows."""
    h = obs.operator
    return np.eye(n)[h] if h.ndim == 1 else h


def scalar_case():
    ens = ForecastEnsemble.from_members(np.array([[1.0, -1.0]]))
    obs = ObservationModel(operator=[[1.0]], covariance=[[2.0]], observation=[1.0])
    return ens, obs


def test_criterion_1_exact_consistency():
    start = time.perf_counter()
    worst = 0.0
    failures = []
    categories = set()
    for inst in sweep():
        pert = perturbation_matrix(inst.ensemble)
        oracle = posterior_cov_direct(forecast_cov(pert), inst.observation)
        result = analyze(inst.ensemble, inst.observation)
        report = compare_cov(result.covariance, oracle, CONSISTENCY_TOL)
        worst = max(worst, report.frobenius_rel)
        categories.add(inst.category)
        if not report.passed:
            failures.append((inst.seed, inst.category, report.frobenius_rel))
    elapsed = time.perf_counter() - start
    covered = categories >= {"generic", "zero_spread", "rank_deficient", "partial_obs", "zero_h"}
    ok = not failures and covered and elapsed < 60.0
    announce(1, ok, f"{SWEEP_TRIALS} instances, max_rel_err={worst:.3e}, {elapsed:.1f}s")
    assert covered, "sweep must include all degenerate categories"
    assert elapsed < 60.0
    assert not failures, failures[:5]


def test_criterion_2_derivation_chain_equality():
    worst = 0.0
    failures = []
    for inst in sweep():
        pert = perturbation_matrix(inst.ensemble)
        direct = posterior_cov_direct(forecast_cov(pert), inst.observation)
        for name, other in (
            ("reduced", posterior_cov_reduced(pert, inst.observation)),
            ("woodbury", posterior_cov_woodbury(pert, inst.observation)),
        ):
            report = compare_cov(other, direct, CHAIN_TOL)
            worst = max(worst, report.frobenius_rel)
            if not report.passed:
                failures.append((inst.seed, name, report.frobenius_rel))
    ok = not failures
    announce(2, ok, f"max chain rel err {worst:.3e}")
    assert not failures, failures[:5]


def test_criterion_3_pitfall_reproduction():
    ens, obs = scalar_case()
    pert = perturbation_matrix(ens)
    oracle = posterior_cov_direct(forecast_cov(pert), obs)
    mis = misordered_analysis(ens, obs)
    scalar_trace = float(np.trace(mis.covariance))
    scalar_ok = (
        abs(scalar_trace) <= PITFALL_ABS_TOL
        and abs(float(np.trace(oracle)) - 1.0) <= PITFALL_ABS_TOL
    )

    deficit_failures = []
    displaced_count = 0
    for seed in range(100):
        inst = random_instance(seed, "rank_deficient")
        ipert = perturbation_matrix(inst.ensemble)
        # in ascending order the null vectors lead, so any rank >= 1 cuts a live column
        if svd_full(ipert.matrix).rank == 0:
            continue
        displaced_count += 1
        za = misordered_analysis(inst.ensemble, inst.observation).perturbations
        ioracle = posterior_cov_direct(forecast_cov(ipert), inst.observation)
        deficit = float(np.trace(ioracle) - np.trace(za @ za.T))
        if deficit <= 0.0:
            deficit_failures.append((seed, deficit))
    ok = scalar_ok and displaced_count > 0 and not deficit_failures
    announce(
        3,
        ok,
        f"scalar misordered trace {scalar_trace:.2e}, "
        f"{displaced_count} displaced instances all under-dispersed",
    )
    assert scalar_ok
    assert displaced_count > 0
    assert not deficit_failures, deficit_failures[:5]


def test_criterion_4_zero_operator_edge():
    worst = 0.0
    failures = []
    for seed in range(100):
        inst = random_instance(seed, "zero_h")
        pert = perturbation_matrix(inst.ensemble)
        pf = forecast_cov(pert)
        result = analyze(inst.ensemble, inst.observation)
        rel = np.linalg.norm(result.covariance - pf) / max(np.linalg.norm(pf), 1e-300)
        worst = max(worst, rel)
        if rel > ZERO_H_TOL:
            failures.append((seed, rel))
    ok = not failures
    announce(4, ok, f"H=0 on 100 instances, max rel err {worst:.3e}")
    assert not failures, failures[:5]


def test_criterion_5_mean_update():
    ens, obs = scalar_case()
    scalar_mean = analyze(ens, obs).mean
    scalar_ok = abs(float(scalar_mean[0]) - 0.5) <= 1e-12

    worst = 0.0
    failures = []
    for inst in sweep():
        pert = perturbation_matrix(inst.ensemble)
        pf = forecast_cov(pert)
        h, r, y = (
            operator_matrix(inst.observation, inst.ensemble.state_dim),
            inst.observation.covariance,
            inst.observation.observation,
        )
        # independent gain route: dense solve, no Cholesky plumbing shared
        # with the package
        gain = pf @ h.T @ np.linalg.inv(h @ pf @ h.T + r)
        reference = inst.ensemble.mean + gain @ (y - h @ inst.ensemble.mean)
        result = analyze(inst.ensemble, inst.observation)
        rel = np.linalg.norm(result.mean - reference) / max(np.linalg.norm(reference), 1.0)
        worst = max(worst, rel)
        if rel > MEAN_TOL:
            failures.append((inst.seed, rel))
    ok = scalar_ok and not failures
    announce(5, ok, f"scalar mean {float(scalar_mean[0])!r}, sweep max rel err {worst:.3e}")
    assert scalar_ok
    assert not failures, failures[:5]


def test_criterion_6_structural_invariants(tmp_path):
    rng = np.random.default_rng(2024)
    svd_worst = 0.0
    eig_worst = 0.0
    rows_worst = 0.0
    for index, inst in enumerate(sweep()):
        if index >= 200:
            break
        pert = perturbation_matrix(inst.ensemble)
        result = analyze(inst.ensemble, inst.observation)
        za = result.perturbations
        rows = np.linalg.norm(za.sum(axis=1)) / max(np.linalg.norm(za), 1e-300) if za.any() else 0.0
        rows_worst = max(rows_worst, rows)
        if pert.matrix.any():
            f = svd_full(pert.matrix)
            # Z B B.T = Z and Z B_null = 0: the factors read Z's row space
            # without a left factor
            b = f.row_space_basis()
            scale = np.linalg.norm(pert.matrix)
            svd_rel = max(
                np.linalg.norm(pert.matrix @ b @ b.T - pert.matrix),
                np.linalg.norm(pert.matrix @ f.null_space_basis()),
            ) / scale
            svd_worst = max(svd_worst, svd_rel)
            gram = (operator_matrix(inst.observation, pert.state_dim) @ pert.matrix).T
            s = gram @ np.linalg.solve(inst.observation.covariance, gram.T)
            s = 0.5 * (s + s.T)
            whitened = project_observations(pert, inst.observation)
            eig = ordered_eig_psd(whitened, f)
            rebuilt = (eig.vectors * eig.values) @ eig.vectors.T
            eig_rel = np.linalg.norm(rebuilt - s) / max(np.linalg.norm(s), 1e-300)
            eig_worst = max(eig_worst, eig_rel)

    argv = ["verify", "--trials", "25", "--seed", "1", "--out"]
    cli_main(argv + [str(tmp_path / "a.json")])
    cli_main(argv + [str(tmp_path / "b.json")])
    reports = []
    for name in ("a.json", "b.json"):
        data = json.loads(Path(tmp_path / name).read_text())
        data.pop("timestamp")
        reports.append(json.dumps(data, sort_keys=True))
    deterministic = reports[0] == reports[1]

    ok = (
        rows_worst <= ROW_SUM_TOL
        and svd_worst <= SVD_RECON_TOL
        and eig_worst <= EIG_RECON_TOL
        and deterministic
    )
    announce(
        6,
        ok,
        f"row sums {rows_worst:.2e}, svd recon {svd_worst:.2e}, "
        f"eig recon {eig_worst:.2e}, deterministic={deterministic}",
    )
    assert rows_worst <= ROW_SUM_TOL
    assert svd_worst <= SVD_RECON_TOL
    assert eig_worst <= EIG_RECON_TOL
    assert deterministic


def test_criterion_7_cycled_stability():
    report = run_twin(TwinConfig(steps=500, n=3, m=12, seed=0))
    ratio = report["spread_rmse_ratio"]
    finite = report["all_finite"]
    ok = finite and TWIN_RATIO_BAND[0] <= ratio <= TWIN_RATIO_BAND[1]
    announce(
        7,
        ok,
        f"rmse {report['rmse_mean_last_half']:.3f}, spread "
        f"{report['spread_mean_last_half']:.3f}, ratio {ratio:.3f}",
    )
    assert finite
    assert TWIN_RATIO_BAND[0] <= ratio <= TWIN_RATIO_BAND[1]
