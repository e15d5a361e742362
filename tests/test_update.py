import dataclasses
import tracemalloc

import numpy as np
import pytest

from eakf.ensemble import ForecastEnsemble, ObservationModel, forecast_cov, perturbation_matrix
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.linalg import SvdFactors, ordered_eig_psd, pinv_rect_diag, svd_full
from eakf.oracle import compare_cov, posterior_cov_direct
from eakf.update import (
    MODE_CORRECT,
    MODE_MISORDERED,
    AnalysisResult,
    adjustment_matrix,
    analyze,
    kalman_gain,
    project_observations,
)


def scalar_case():
    ens = ForecastEnsemble.from_members(np.array([[1.0, -1.0]]))
    obs = ObservationModel(operator=[[1.0]], covariance=[[2.0]], observation=[1.0])
    return ens, obs


def three_member_case():
    ens = ForecastEnsemble.from_members(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    obs = ObservationModel(operator=[[1.0, 0.0]], covariance=[[1.0]], observation=[1.0])
    return ens, obs


# ---------------------------------------------------------------- projection


def test_project_observations_scalar():
    ens, obs = scalar_case()
    y = project_observations(perturbation_matrix(ens), obs)
    np.testing.assert_allclose(y, [[1.0, -1.0]] / np.sqrt(2.0))
    np.testing.assert_allclose(y.T @ y, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_project_observations_zero_operator():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    y = project_observations(perturbation_matrix(ens), obs)
    np.testing.assert_array_equal(y, np.zeros((1, 3)))


def test_project_observations_three_members():
    ens, obs = three_member_case()
    y = project_observations(perturbation_matrix(ens), obs)
    expected = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(y.T @ y, expected, atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_project_observations_identity(seed):
    # algebraic identity: Y.T Y == Z.T H.T inv(R) H Z, checked with an
    # explicit inverse (cond(R) <= 1e4, so inv(R) is accurate enough)
    inst = random_instance(seed, "generic")
    pert = perturbation_matrix(inst.ensemble)
    y = project_observations(pert, inst.observation)
    h, r = inst.observation.operator, inst.observation.covariance
    explicit = pert.matrix.T @ h.T @ np.linalg.inv(r) @ h @ pert.matrix
    np.testing.assert_allclose(y.T @ y, explicit, rtol=0, atol=1e-11 * max(1.0, np.linalg.norm(explicit)))


def test_project_observations_shape_mismatch():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.ones((1, 3)), covariance=[[1.0]], observation=[0.0])
    with pytest.raises(ValueError, match="state columns"):
        project_observations(perturbation_matrix(ens), obs)


# ---------------------------------------------------------------------- gain


def gain(pert, obs):
    eig = ordered_eig_psd(project_observations(pert, obs), svd_full(pert.matrix))
    return kalman_gain(pert, obs, eig)


def test_kalman_gain_scalar():
    ens, obs = scalar_case()
    np.testing.assert_allclose(gain(perturbation_matrix(ens), obs), [[0.5]])


def test_kalman_gain_zero_operator():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    np.testing.assert_array_equal(gain(perturbation_matrix(ens), obs), np.zeros((2, 1)))


def test_kalman_gain_three_members():
    ens, obs = three_member_case()
    np.testing.assert_allclose(
        gain(perturbation_matrix(ens), obs), [[0.5], [-0.25]], atol=1e-15
    )


# ---------------------------------------------------------------- adjustment


def test_adjustment_scalar_value():
    ens, obs = scalar_case()
    pert = perturbation_matrix(ens)
    adj = adjustment_matrix(pert, obs)
    # the paper's adjustment is A = 1/sqrt(2), so Z T = A Z
    za = pert.matrix @ adj.transform
    np.testing.assert_allclose(za, pert.matrix / np.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(za @ za.T, [[1.0]], rtol=1e-14)


def test_adjustment_zero_operator_preserves_cov():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    pert = perturbation_matrix(ens)
    adj = adjustment_matrix(pert, obs)
    za = pert.matrix @ adj.transform
    np.testing.assert_allclose(za @ za.T, forecast_cov(pert), atol=1e-14)


def test_adjustment_zero_spread():
    ens = ForecastEnsemble.from_members(np.full((2, 3), 4.0))
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    adj = adjustment_matrix(perturbation_matrix(ens), obs)
    assert adj.svd.rank == 0
    np.testing.assert_array_equal(adj.transform, np.zeros((3, 3)))


def test_adjustment_misordered_scalar_kills_variance():
    ens, obs = scalar_case()
    pert = perturbation_matrix(ens)
    adj = adjustment_matrix(pert, obs, MODE_MISORDERED, seed=0)
    np.testing.assert_array_equal(adj.permutation, [1, 0])
    za = pert.matrix @ adj.transform
    assert abs(np.trace(za @ za.T)) <= 1e-12
    # trace deficit of 1 against the oracle posterior
    oracle = posterior_cov_direct(forecast_cov(pert), obs)
    assert np.trace(oracle) - np.trace(za @ za.T) == pytest.approx(1.0, abs=1e-12)


def test_adjustment_misordered_always_displaces():
    for seed in range(10):
        inst = random_instance(seed, "rank_deficient")
        pert = perturbation_matrix(inst.ensemble)
        adj = adjustment_matrix(pert, inst.observation, MODE_MISORDERED, seed=seed)
        r = adj.svd.rank
        assert adj.permutation is not None
        assert np.any(adj.permutation[:r] >= r)


def test_adjustment_misordered_zero_spread_is_noop():
    # rank 0 leaves nothing to displace; the permutation must degenerate
    # instead of looping, and the adjustment stays zero
    ens = ForecastEnsemble.from_members(np.full((2, 4), 1.5))
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    adj = adjustment_matrix(perturbation_matrix(ens), obs, MODE_MISORDERED, seed=5)
    np.testing.assert_array_equal(adj.permutation, np.arange(4))
    np.testing.assert_array_equal(adj.transform, np.zeros((4, 4)))


def test_adjustment_mode_errors():
    ens, obs = scalar_case()
    with pytest.raises(ValueError, match="unknown mode"):
        adjustment_matrix(perturbation_matrix(ens), obs, "sorted")
    with pytest.raises(ValueError, match="seed"):
        adjustment_matrix(perturbation_matrix(ens), obs, MODE_MISORDERED)


# ------------------------------------------------------------------- analyze


def test_analyze_scalar():
    ens, obs = scalar_case()
    res = analyze(ens, obs)
    np.testing.assert_allclose(res.mean, [0.5], atol=1e-15)
    np.testing.assert_allclose(res.covariance, [[1.0]], rtol=1e-14)


def test_analyze_zero_innovation_keeps_mean():
    ens, _ = three_member_case()
    obs = ObservationModel(
        operator=[[1.0, 0.0]], covariance=[[1.0]], observation=[float(ens.mean[0])]
    )
    res = analyze(ens, obs)
    np.testing.assert_allclose(res.mean, ens.mean, atol=1e-15)


def test_analyze_three_members():
    ens, obs = three_member_case()
    res = analyze(ens, obs)
    np.testing.assert_allclose(res.mean, [0.5, -0.25], atol=1e-14)
    np.testing.assert_allclose(
        res.covariance, [[0.5, -0.25], [-0.25, 0.875]], atol=1e-14
    )
    pert = perturbation_matrix(ens)
    adj = adjustment_matrix(pert, obs)
    np.testing.assert_allclose(kalman_gain(pert, obs, adj.eig), [[0.5], [-0.25]], atol=1e-14)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_analyze_consistency_by_category(category):
    for seed in range(25):
        inst = random_instance(seed, category)
        pert = perturbation_matrix(inst.ensemble)
        oracle = posterior_cov_direct(forecast_cov(pert), inst.observation)
        res = analyze(inst.ensemble, inst.observation)
        assert compare_cov(res.covariance, oracle, 1e-10).passed, (category, seed)


def test_analyze_row_sums():
    for seed in range(30):
        inst = random_instance(seed, "generic")
        res = analyze(inst.ensemble, inst.observation)
        za = res.perturbations
        assert np.linalg.norm(za.sum(axis=1)) <= 1e-12 * max(np.linalg.norm(za), 1.0)


@pytest.mark.parametrize("n, m, p", [(2000, 20, 200), (200, 20, 2000), (20000, 10, 100)])
def test_analyze_peak_memory(n, m, p):
    # analyze forms no n x n covariance, factor or adjustment, no n x p gain
    # and no p x p matrix, only a few (n + p) x m arrays
    rng = np.random.default_rng(0)
    ens = ForecastEnsemble.from_members(rng.standard_normal((n, m)))
    obs = ObservationModel(
        operator=rng.standard_normal((p, n)) / np.sqrt(n),
        covariance=rng.uniform(0.5, 2.0, p),
        observation=rng.standard_normal(p),
    )
    tracemalloc.start()
    try:
        res = analyze(ens, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + p) * m * 8, peak
    # at n = 20000 the covariance would take 3.2 GB: only the small cases read it
    if n <= 2000:
        np.testing.assert_array_equal(res.covariance, res.covariance.T)


def test_analyze_covariance_formed_on_read():
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    za = res.perturbations
    cov = res.covariance
    np.testing.assert_array_equal(cov, za @ za.T)
    np.testing.assert_array_equal(cov, cov.T)
    assert res.covariance is cov
    given = np.zeros_like(cov)
    assert dataclasses.replace(res, covariance=given).covariance is given
    with pytest.raises(ValueError, match="not finite"):
        dataclasses.replace(res, covariance=np.full_like(cov, np.inf))


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_analyze_mean_matches_gain_form(category):
    # the ensemble-space weights give the mean of the explicit gain
    worst = 0.0
    for seed in range(100):
        inst = random_instance(seed, category)
        ens, obs = inst.ensemble, inst.observation
        pert = perturbation_matrix(ens)
        adj = adjustment_matrix(pert, obs)
        increment = kalman_gain(pert, obs, adj.eig) @ (obs.observation - obs.operator @ ens.mean)
        expected = ens.mean + increment
        err = np.linalg.norm(analyze(ens, obs).mean - expected)
        worst = max(worst, err / max(np.linalg.norm(expected), 1e-300))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_analyze_variance_vector_matches_diagonal_matrix(category):
    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    for seed in range(20):
        inst = random_instance(seed, category)
        model = inst.observation
        variances = np.random.default_rng(seed).uniform(0.1, 10.0, model.obs_dim)
        vector, dense = (
            analyze(inst.ensemble, ObservationModel(model.operator, r, model.observation))
            for r in (variances, np.diag(variances))
        )
        assert rel(vector.mean, dense.mean) <= 1e-13, (category, seed)
        assert rel(vector.perturbations, dense.perturbations) <= 1e-13, (category, seed)
        assert rel(vector.covariance, dense.covariance) <= 1e-13, (category, seed)


@pytest.mark.parametrize("covariance", [np.eye(2), np.ones(2)], ids=["dense", "vector"])
def test_analyze_raises_on_overflow(covariance):
    # unobserved variances near 1e320 do not fit in float64
    members = np.random.default_rng(0).standard_normal((4, 6)) * 1e160
    obs = ObservationModel(operator=np.eye(4)[:2], covariance=covariance, observation=np.ones(2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="analysis mean or covariance not finite"):
        analyze(ForecastEnsemble.from_members(members), obs)


@pytest.mark.parametrize("covariance", [np.eye(4), np.ones(4)], ids=["dense", "vector"])
def test_analyze_raises_when_observed_spread_overflows(covariance):
    # fully observed: the exact posterior (covariance about R, mean about y)
    # fits in float64, but g = s**2 overflows and x_f + Z w would cancel;
    # until both are mended the analysis must fail loudly
    members = np.random.default_rng(0).standard_normal((4, 6)) * 1e160
    obs = ObservationModel(operator=np.eye(4), covariance=covariance, observation=np.ones(4))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        analyze(ForecastEnsemble.from_members(members), obs)


@pytest.mark.parametrize("scale", [1e-14, 1e-100, 1e-170])
def test_analysis_result_rejects_uncentered_below_unit_scale(scale):
    with pytest.raises(ValueError, match="sum to zero"):
        AnalysisResult(mean=np.zeros(1), perturbations=np.array([[scale, scale]]))


@pytest.mark.parametrize("scale", [0.0, 1e-14, 1e-100, 1e-170])
def test_analyze_tiny_spread(scale):
    # against R = I the observations carry a share of about scale**2 of the
    # information, so the posterior is the prior up to rounding
    members = np.random.default_rng(0).standard_normal((4, 6)) * scale
    ens = ForecastEnsemble.from_members(members)
    obs = ObservationModel(operator=np.eye(4)[:2], covariance=np.eye(2), observation=np.zeros(2))
    result = analyze(ens, obs)
    unit = scale or 1.0
    # the covariances at unit scale, since at 1e-170 their entries underflow
    za = result.perturbations / unit
    z = perturbation_matrix(ens).matrix / unit
    np.testing.assert_allclose(za @ za.T, z @ z.T, rtol=0, atol=1e-13)
    np.testing.assert_allclose(result.mean / unit, ens.mean / unit, rtol=0, atol=1e-13)


def test_analyze_deterministic():
    inst = random_instance(123, "generic")
    a = analyze(inst.ensemble, inst.observation)
    b = analyze(inst.ensemble, inst.observation)
    np.testing.assert_array_equal(a.perturbations, b.perturbations)
    np.testing.assert_array_equal(a.mean, b.mean)
    m1 = analyze(inst.ensemble, inst.observation, MODE_MISORDERED, seed=7)
    m2 = analyze(inst.ensemble, inst.observation, MODE_MISORDERED, seed=7)
    np.testing.assert_array_equal(m1.perturbations, m2.perturbations)


def test_analyze_does_not_depend_on_the_input_layout():
    # a transposed array is column-major: the guards pass it through as is
    for seed in range(20):
        inst = random_instance(seed, "generic")
        members, obs = inst.ensemble.members, inst.observation
        operator = np.ascontiguousarray(obs.operator.T).T
        transposed = np.ascontiguousarray(members.T).T
        assert not transposed.flags.c_contiguous or min(members.shape) == 1
        a = analyze(
            ForecastEnsemble.from_members(transposed),
            ObservationModel(operator=operator, covariance=obs.covariance, observation=obs.observation),
        )
        b = analyze(ForecastEnsemble.from_members(members), obs)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.perturbations, b.perturbations)


def test_analysis_ensemble_does_not_depend_on_the_lapack_signs(monkeypatch):
    # Another LAPACK build may return any singular pair negated. Both SVDs of
    # the analysis must undo that, or Za changes while its covariance does not.
    instances = [random_instance(seed, "generic") for seed in range(200)]
    expected = [analyze(inst.ensemble, inst.observation) for inst in instances]
    svd = np.linalg.svd

    def alternate_pairs_negated(a, full_matrices=True):
        u, s, vt = svd(a, full_matrices=full_matrices)
        u[:, : s.size : 2] *= -1.0
        vt[: s.size : 2] *= -1.0
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", alternate_pairs_negated)
    for inst, base in zip(instances, expected):
        got = analyze(inst.ensemble, inst.observation)
        za = base.perturbations
        assert np.abs(got.perturbations - za).max() <= 1e-14 * np.abs(za).max(), inst.seed
        assert np.abs(got.mean - base.mean).max() <= 1e-14 * np.abs(base.mean).max(), inst.seed


# ------------------------------------------------------------------ theorems


def rect_sigma(factors):
    """The paper's rectangular (r, m) singular-value factor of an SvdFactors."""
    sig = np.zeros((factors.rank, factors.right.shape[0]))
    sig[np.arange(factors.rank), np.arange(factors.rank)] = factors.singular_values
    return sig


def test_truncation_identity():
    # with the ordering contract in force, appending the rank truncation
    # pinv(sig) @ sig changes nothing: the truncated columns are already zero
    for seed in range(10):
        inst = random_instance(seed, "rank_deficient")
        pert = perturbation_matrix(inst.ensemble)
        if not pert.matrix.any():
            continue
        f = svd_full(pert.matrix)
        y = project_observations(pert, inst.observation)
        eig = ordered_eig_psd(y, f)
        scaled = pert.matrix @ (eig.vectors / np.sqrt(1.0 + eig.values)[None, :])
        sig = rect_sigma(f)
        truncation = pinv_rect_diag(sig) @ sig
        np.testing.assert_allclose(
            scaled @ truncation, scaled, atol=1e-12 * max(np.linalg.norm(scaled), 1.0)
        )


@pytest.mark.parametrize("mode", [MODE_CORRECT, MODE_MISORDERED])
def test_rank_cut_equals_pinv_product(mode):
    # the transform keeps the leading rank columns of the (permuted) scaled
    # eigenvectors, which is exactly what pinv(sig) @ sig does
    for seed in range(40):
        inst = random_instance(seed, ALL_CATEGORIES[seed % len(ALL_CATEGORIES)])
        pert = perturbation_matrix(inst.ensemble)
        adj = adjustment_matrix(pert, inst.observation, mode, seed=seed)
        f = adj.svd
        sig = rect_sigma(f)
        truncation = pinv_rect_diag(sig) @ sig
        # (1 / s) * s is 1 only to rounding
        projector = np.diag(np.arange(pert.size) < f.rank)
        np.testing.assert_allclose(truncation, projector, rtol=0, atol=1e-15)
        perm = np.arange(pert.size) if adj.permutation is None else adj.permutation
        scaled = adj.eig.vectors[:, perm] / np.sqrt(1.0 + adj.eig.values[perm])
        expected = scaled @ truncation @ f.right.T
        atol = 1e-14 * max(np.linalg.norm(expected), 1.0)
        np.testing.assert_allclose(adj.transform, expected, rtol=0, atol=atol)


def test_misordering_under_disperses():
    for seed in range(30):
        inst = random_instance(seed, "generic")
        correct = analyze(inst.ensemble, inst.observation, MODE_CORRECT)
        mis = analyze(inst.ensemble, inst.observation, MODE_MISORDERED, seed=seed)
        t_correct = np.trace(correct.covariance)
        t_mis = np.trace(mis.covariance)
        assert t_mis <= t_correct + 1e-10 * max(t_correct, 1.0)
        pert = perturbation_matrix(inst.ensemble)
        adj = adjustment_matrix(pert, inst.observation, MODE_MISORDERED, seed=seed)
        displaced = adj.permutation is not None and np.any(
            adj.permutation[: adj.svd.rank] >= adj.svd.rank
        )
        if displaced and adj.svd.rank > 0:
            assert t_mis < t_correct


def test_sign_convention_invariance_of_posterior():
    # flipping the sign of any matched (left, right) singular-vector pair, or
    # of any trailing null vector, is still a valid SVD; the analysis
    # covariance must not change
    for seed in range(8):
        inst = random_instance(seed, "generic")
        pert = perturbation_matrix(inst.ensemble)
        y = project_observations(pert, inst.observation)
        f = svd_full(pert.matrix)
        if f.rank == 0:
            continue
        rng = np.random.default_rng(seed + 1000)
        left = f.left.copy()
        right = f.right.copy()
        for j in range(f.rank):
            if rng.random() < 0.5:
                left[:, j] *= -1.0
                right[:, j] *= -1.0
        for j in range(f.rank, right.shape[1]):
            if rng.random() < 0.5:
                right[:, j] *= -1.0
        flipped = SvdFactors(left=left, singular_values=f.singular_values, right=right)

        def posterior(factors):
            eig = ordered_eig_psd(y, factors)
            scaled = eig.vectors / np.sqrt(1.0 + eig.values)[None, :]
            sig = rect_sigma(factors)
            t = scaled @ pinv_rect_diag(sig) @ sig @ factors.right.T
            za = pert.matrix @ t
            return za @ za.T

        base = posterior(f)
        alt = posterior(flipped)
        assert np.linalg.norm(alt - base) <= 1e-10 * max(np.linalg.norm(base), 1e-300)
