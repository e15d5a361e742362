import dataclasses
import tracemalloc

import numpy as np
import pytest

import eakf.demo
import eakf.update
from eakf.demo import misordered_analysis, run_pitfall_demo
from eakf.ensemble import (
    ForecastEnsemble,
    ObservationModel,
    PerturbationMatrix,
    forecast_cov,
    perturbation_matrix,
)
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.linalg import SvdFactors, ordered_eig_psd, pinv_rect_diag, svd_full
from eakf.oracle import compare_cov, posterior_cov_direct, posterior_cov_woodbury
from eakf.update import (
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


def factors(pert, obs):
    """The SVD of ``Z`` and the ordered eigendecomposition built on it, as ``analyze`` forms them."""
    svd = svd_full(pert.matrix)
    return svd, ordered_eig_psd(project_observations(pert, obs), svd)


def ascending_order(pert):
    """The rank of ``Z`` and the order of the columns of ``C`` that ``misordered_analysis`` cuts.

    An eigensolver returning ascending eigenvalues reverses the ordered ``C``:
    the null vectors lead.
    """
    return svd_full(pert.matrix).rank, np.arange(pert.size)[::-1]


@pytest.mark.parametrize(
    "run, svds",
    [
        (lambda inst: analyze(inst.ensemble, inst.observation), 1),
        (lambda inst: kalman_gain(inst.ensemble, inst.observation), 1),
        (lambda inst: misordered_analysis(inst.ensemble, inst.observation), 1),
        (lambda inst: run_pitfall_demo(0), 2),
    ],
    ids=["analyze", "kalman_gain", "misordered_analysis", "run_pitfall_demo"],
)
def test_each_analysis_factors_z_once(monkeypatch, run, svds):
    # svd_full is the only caller of qr, so each call is one SVD of Z; the
    # pitfall demo runs two instances both ways, one SVD per instance
    calls, qr = [], np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    run(random_instance(0, "rank_deficient"))
    assert len(calls) == svds


@pytest.mark.parametrize(
    "run, whitenings",
    [
        (lambda inst: analyze(inst.ensemble, inst.observation), 2),
        (lambda inst: kalman_gain(inst.ensemble, inst.observation), 2),
    ],
    ids=["analyze", "kalman_gain"],
)
def test_whitenings_per_analysis(monkeypatch, run, whitenings):
    # both whiten H Z once; analyze whitens the innovation for the mean and
    # kalman_gain its (p, k) right-hand sides, and neither does both
    calls, whiten = [], ObservationModel.whiten

    def counted(self, *args, **kwargs):
        calls.append(args)
        return whiten(self, *args, **kwargs)

    monkeypatch.setattr(ObservationModel, "whiten", counted)
    run(random_instance(0, "generic"))
    assert len(calls) == whitenings


@pytest.mark.parametrize(
    "run, cuts",
    [
        (lambda inst: analyze(inst.ensemble, inst.observation), 1),
        (lambda inst: misordered_analysis(inst.ensemble, inst.observation), 1),
        (lambda inst: run_pitfall_demo(0), 4),
    ],
    ids=["analyze", "misordered_analysis", "run_pitfall_demo"],
)
def test_both_orders_go_through_one_cut(monkeypatch, run, cuts):
    # the pitfall differs from the analysis only in the order of C, so both
    # transforms are the one rank-r cut; the demo cuts two instances both ways
    calls, cut = [], eakf.update._cut

    def counted(*args):
        calls.append(args)
        return cut(*args)

    monkeypatch.setattr(eakf.update, "_cut", counted)
    monkeypatch.setattr(eakf.demo, "_cut", counted)
    run(random_instance(0, "rank_deficient"))
    assert len(calls) == cuts


def test_pitfall_demo_builds_one_z_per_instance(monkeypatch):
    # both cuts and the judge of each of the two instances read the Z that
    # the analysis factors were built from
    calls, post_init = [], PerturbationMatrix.__post_init__

    def counted(self):
        calls.append(self)
        return post_init(self)

    monkeypatch.setattr(PerturbationMatrix, "__post_init__", counted)
    run_pitfall_demo(0)
    assert len(calls) == 2


def test_kalman_gain_scalar():
    ens, obs = scalar_case()
    np.testing.assert_allclose(kalman_gain(ens, obs), [[0.5]])


def test_kalman_gain_zero_operator():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    np.testing.assert_array_equal(kalman_gain(ens, obs), np.zeros((2, 1)))


def test_kalman_gain_three_members():
    ens, obs = three_member_case()
    np.testing.assert_allclose(kalman_gain(ens, obs), [[0.5], [-0.25]], atol=1e-15)


# ---------------------------------------------------------------- adjustment


def test_adjustment_scalar_value():
    ens, obs = scalar_case()
    pert = perturbation_matrix(ens)
    # the paper's adjustment is A = 1/sqrt(2), so Z T = A Z
    za = pert.matrix @ adjustment_matrix(*factors(pert, obs))
    np.testing.assert_allclose(za, pert.matrix / np.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(za @ za.T, [[1.0]], rtol=1e-14)


def test_adjustment_zero_operator_preserves_cov():
    ens, _ = three_member_case()
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    pert = perturbation_matrix(ens)
    za = pert.matrix @ adjustment_matrix(*factors(pert, obs))
    np.testing.assert_allclose(za @ za.T, forecast_cov(pert), atol=1e-14)


def test_adjustment_zero_spread():
    ens = ForecastEnsemble.from_members(np.full((2, 3), 4.0))
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    svd, eig = factors(perturbation_matrix(ens), obs)
    assert svd.rank == 0
    np.testing.assert_array_equal(adjustment_matrix(svd, eig), np.zeros((3, 3)))


def test_analyze_identical_members_from_members():
    # the members' average is 0.1 off by an ulp, so their deviations are a
    # constant of rounding noise; the analysis must still leave them at zero
    ens = ForecastEnsemble.from_members(np.full((1, 12), 0.1))
    result = analyze(ens, ObservationModel([[1.0]], [1.0], [0.0]))
    np.testing.assert_array_equal(result.perturbations, np.zeros((1, 12)))
    np.testing.assert_array_equal(result.mean, ens.mean)


def test_adjustment_misordered_scalar_kills_variance():
    ens, obs = scalar_case()
    pert = perturbation_matrix(ens)
    np.testing.assert_array_equal(ascending_order(pert)[1], [1, 0])
    za = misordered_analysis(ens, obs).perturbations
    assert abs(np.trace(za @ za.T)) <= 1e-12
    # trace deficit of 1 against the oracle posterior
    oracle = posterior_cov_direct(forecast_cov(pert), obs)
    assert np.trace(oracle) - np.trace(za @ za.T) == pytest.approx(1.0, abs=1e-12)


def test_adjustment_misordered_always_displaces():
    # the leading column of the ascending order is a null vector of Z, so a
    # live column is cut whenever the rank is at least 1
    for seed in range(10):
        inst = random_instance(seed, "rank_deficient")
        pert = perturbation_matrix(inst.ensemble)
        r, order = ascending_order(pert)
        assert r >= 1
        assert np.any(order[:r] >= r)
        _, eig = factors(pert, inst.observation)
        null = pert.matrix @ eig.vectors[:, order[0]]
        assert np.linalg.norm(null) <= 1e-13 * np.linalg.norm(pert.matrix)


def test_adjustment_misordered_zero_spread_is_noop():
    # rank 0 leaves nothing to displace: the cut keeps no column, and the
    # adjustment stays zero
    ens = ForecastEnsemble.from_members(np.full((2, 4), 1.5))
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    r, order = ascending_order(perturbation_matrix(ens))
    assert r == 0 and order[:r].size == 0
    np.testing.assert_array_equal(misordered_analysis(ens, obs).perturbations, np.zeros((2, 4)))


def test_misordered_analysis_keeps_the_mean_and_its_own_covariance():
    # only the perturbations are misordered: the mean is the Kalman mean of
    # analyze, and the covariance is formed from the misordered Za, not
    # carried over from the correct analysis
    for seed in range(20):
        inst = random_instance(seed, ALL_CATEGORIES[seed % len(ALL_CATEGORIES)])
        correct = analyze(inst.ensemble, inst.observation)
        mis = misordered_analysis(inst.ensemble, inst.observation)
        np.testing.assert_array_equal(mis.mean, correct.mean)
        za = mis.perturbations
        np.testing.assert_array_equal(mis.covariance, za @ za.T)


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
    np.testing.assert_allclose(kalman_gain(ens, obs), [[0.5], [-0.25]], atol=1e-14)


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


def _one_hot(obs, n):
    """The model with its state indices expanded to the dense one-hot ``H``."""
    return ObservationModel(np.eye(n)[obs.operator], obs.covariance, obs.observation)


def _assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_index_operator_gives_the_bits_of_the_one_hot_product():
    # the gather x[idx] and the product with one-hot rows give the same
    # bits in H Z and H x_f, so the analysis does too
    for seed in range(2000):
        inst = random_instance(seed, "partial_obs")
        ens, obs = inst.ensemble, inst.observation
        gathered, multiplied = analyze(ens, obs), analyze(ens, _one_hot(obs, ens.state_dim))
        _assert_same_bits(gathered.mean, multiplied.mean)
        _assert_same_bits(gathered.perturbations, multiplied.perturbations)


def test_index_identity_gives_the_bits_of_the_identity_matrix():
    n, m = 200, 40
    rng = np.random.default_rng(0)
    ens = ForecastEnsemble(rng.standard_normal((n, m)))
    variances, y = rng.uniform(0.5, 2.0, n), rng.standard_normal(n)
    gathered = analyze(ens, ObservationModel(np.arange(n), variances, y))
    multiplied = analyze(ens, ObservationModel(np.eye(n), variances, y))
    _assert_same_bits(gathered.mean, multiplied.mean)
    _assert_same_bits(gathered.perturbations, multiplied.perturbations)


def test_repeated_unsorted_indices_match_their_one_hot_rows():
    rng = np.random.default_rng(1)
    ens = ForecastEnsemble(rng.standard_normal((6, 5)))
    obs = ObservationModel([4, 1, 4, 0], rng.uniform(0.5, 2.0, 4), rng.standard_normal(4))
    gathered, multiplied = analyze(ens, obs), analyze(ens, _one_hot(obs, 6))
    _assert_same_bits(gathered.mean, multiplied.mean)
    _assert_same_bits(gathered.perturbations, multiplied.perturbations)


def test_index_operator_without_observations_returns_the_forecast():
    ens = ForecastEnsemble(np.random.default_rng(2).standard_normal((4, 3)))
    gathered = analyze(ens, ObservationModel(np.arange(0), np.zeros(0), []))
    multiplied = analyze(ens, ObservationModel(np.zeros((0, 4)), np.zeros(0), []))
    assert np.array_equal(gathered.mean, ens.mean)
    _assert_same_bits(gathered.perturbations, multiplied.perturbations)


def test_analyze_rejects_an_index_past_the_state():
    ens = ForecastEnsemble(np.random.default_rng(3).standard_normal((4, 3)))
    obs = ObservationModel([1, 4], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="^observation operator index 4 out of range for state dimension 4$"):
        analyze(ens, obs)


def test_index_operator_peak_memory():
    # building the model and analysing hold no p x n array: the peak stays
    # below one dense float64 H of 160 MB (and below a few (n + p) x m arrays)
    n, m, p = 20000, 40, 1000
    rng = np.random.default_rng(4)
    ens = ForecastEnsemble(rng.standard_normal((n, m)))
    index, variances, y = rng.choice(n, p, replace=False), rng.uniform(0.5, 2.0, p), rng.standard_normal(p)
    tracemalloc.start()
    try:
        analyze(ens, ObservationModel(index, variances, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * n * 8, peak
    assert peak < 8 * (n + p) * m * 8, peak


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


def test_analysis_fields_are_mean_and_perturbations():
    assert [f.name for f in dataclasses.fields(AnalysisResult)] == ["mean", "perturbations"]


@pytest.mark.parametrize(
    "walk",
    [repr, dataclasses.asdict, dataclasses.astuple, lambda res: res == res],
    ids=["repr", "asdict", "astuple", "eq"],
)
def test_walking_the_fields_forms_no_covariance(walk):
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    walk(res)
    assert "covariance" not in vars(res)


def test_analysis_repr_forms_no_covariance():
    n, m, p = 5000, 20, 50
    rng = np.random.default_rng(0)
    ens = ForecastEnsemble.from_members(rng.standard_normal((n, m)))
    obs = ObservationModel(
        operator=rng.standard_normal((p, n)) / np.sqrt(n),
        covariance=rng.uniform(0.5, 2.0, p),
        observation=rng.standard_normal(p),
    )
    res = analyze(ens, obs)
    tracemalloc.start()
    try:
        repr(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, n) float64 covariance would take 200 MB
    assert peak < n * n * 8 / 4, peak


def test_replace_forms_the_covariance_of_the_new_perturbations():
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    za = 2 * res.perturbations
    np.testing.assert_allclose(dataclasses.replace(res, perturbations=za).covariance, za @ za.T)


def test_replace_forms_no_covariance():
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    moved = dataclasses.replace(res, mean=res.mean + 1.0)
    assert "covariance" not in vars(res)
    assert "covariance" not in vars(moved)


def centered_layouts(rng, n, m):
    """The same centered ``(n, m)`` perturbations in C, Fortran and strided layouts."""
    z = perturbation_matrix(ForecastEnsemble.from_members(rng.standard_normal((n, m)))).matrix
    wide = np.repeat(z, 2, axis=1)
    return np.ascontiguousarray(z), np.asfortranarray(z), wide[:, ::2]


def test_analysis_covariance_symmetric_for_any_layout():
    rng = np.random.default_rng(5)
    # numpy's general product on a strided (500, 40) view is not symmetric
    for n, m in [*rng.integers((1, 2), (12, 10), size=(10, 2)), (500, 40)]:
        for za in centered_layouts(rng, n, m):
            cov = AnalysisResult(mean=np.zeros(n), perturbations=za).covariance
            assert np.array_equal(cov, cov.T)


@pytest.mark.parametrize("layout", [1, 2], ids=["fortran", "strided"])
def test_analysis_result_stores_row_major(layout):
    za = centered_layouts(np.random.default_rng(0), 6, 4)[layout]
    mean = np.arange(12.0)[::2]
    res = AnalysisResult(mean=mean, perturbations=za)
    assert res.mean.flags.c_contiguous and res.perturbations.flags.c_contiguous
    np.testing.assert_array_equal(res.perturbations, za)
    np.testing.assert_array_equal(res.mean, mean)


@pytest.mark.parametrize(
    "mean, za, covariance, match",
    [
        (np.zeros(1), np.zeros((3, 2)), None, "analysis mean"),
        (np.zeros((3, 3)), np.zeros((3, 2)), None, "analysis mean"),
        (np.zeros(3), np.zeros(3), None, "analysis perturbations"),
        (np.zeros(3), np.zeros((3, 2)), np.zeros((2, 2)), "analysis covariance"),
    ],
    ids=["mean-length-1", "mean-2d", "perturbations-1d", "covariance-2x2"],
)
def test_analysis_result_rejects_shapes(mean, za, covariance, match):
    with pytest.raises(ValueError, match=match):
        AnalysisResult(mean, za, covariance)


def test_analysis_result_accepts_lists():
    res = AnalysisResult(mean=[1.0, 2.0], perturbations=[[1.0, -1.0], [0.5, -0.5]])
    assert res.mean.dtype == np.float64 and res.perturbations.dtype == np.float64
    np.testing.assert_array_equal(res.members(), [[2.0, 0.0], [2.5, 1.5]])


def test_analysis_result_rejects_complex_perturbations():
    with pytest.raises(ValueError, match="complex"):
        AnalysisResult(mean=np.zeros(1), perturbations=np.array([[1.0 + 1.0j, -1.0 - 1.0j]]))


def test_given_covariance_is_checked_off_the_diagonal():
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    cov = res.covariance.copy()
    cov[0, 1] = np.nan
    with pytest.raises(ValueError, match="analysis mean or covariance not finite in float64"):
        dataclasses.replace(res, covariance=cov)


def test_infinite_perturbations_raise_with_a_given_covariance():
    inst = random_instance(5, "generic")
    res = analyze(inst.ensemble, inst.observation)
    za = res.perturbations.copy()
    za[0, :2] = np.inf, -np.inf
    with pytest.raises(ValueError, match="analysis mean or covariance not finite in float64"):
        AnalysisResult(res.mean, za, res.covariance)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_analyze_mean_matches_gain_form(category):
    # the ensemble-space weights give the mean of the explicit gain
    worst = 0.0
    for seed in range(100):
        inst = random_instance(seed, category)
        ens, obs = inst.ensemble, inst.observation
        # partial_obs keeps H as state indices: expand them to one-hot rows
        h = obs.operator if obs.operator.ndim == 2 else np.eye(ens.state_dim)[obs.operator]
        increment = kalman_gain(ens, obs) @ (obs.observation - h @ ens.mean)
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


def test_analysis_below_the_normal_range_names_its_scale():
    # the forecast perturbations pass their 1e-13 centering guard, but Z @ T
    # rounds to a fixed step of 4.9e-324 that re-centering cannot remove
    members = np.random.default_rng(62).standard_normal((3, 5)) * 1e-312
    obs = ObservationModel(operator=np.eye(3), covariance=np.ones(3), observation=np.zeros(3))
    with pytest.raises(ValueError, match=r"rows must sum to zero.*norm .* is below .* 2\.2e-308"):
        analyze(ForecastEnsemble(members), obs)


def test_analyze_deterministic():
    inst = random_instance(123, "generic")
    a = analyze(inst.ensemble, inst.observation)
    b = analyze(inst.ensemble, inst.observation)
    np.testing.assert_array_equal(a.perturbations, b.perturbations)
    np.testing.assert_array_equal(a.mean, b.mean)
    m1 = misordered_analysis(inst.ensemble, inst.observation)
    m2 = misordered_analysis(inst.ensemble, inst.observation)
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
    # Another LAPACK build may return any singular pair negated, and any row
    # of the QR triangle of Z with its Householder reflector. Both SVDs of the
    # analysis must undo that, or Za changes while its covariance does not.
    instances = [random_instance(seed, "generic") for seed in range(200)]
    expected = [analyze(inst.ensemble, inst.observation) for inst in instances]
    svd, qr = np.linalg.svd, np.linalg.qr

    def alternate_pairs_negated(a, full_matrices=True):
        u, s, vt = svd(a, full_matrices=full_matrices)
        u[:, : s.size : 2] *= -1.0
        vt[: s.size : 2] *= -1.0
        return u, s, vt

    def alternate_rows_negated(a, mode="reduced"):
        r = qr(a, mode=mode)
        r[::2] *= -1.0
        return r

    patches = [("svd", alternate_pairs_negated), ("qr", alternate_rows_negated)]
    for patched in (patches[:1], patches[1:], patches):
        with monkeypatch.context() as context:
            for name, replacement in patched:
                context.setattr(np.linalg, name, replacement)
            for inst, base in zip(instances, expected):
                got = analyze(inst.ensemble, inst.observation)
                za = base.perturbations
                where = (inst.seed, [name for name, _ in patched])
                assert np.abs(got.perturbations - za).max() <= 1e-14 * np.abs(za).max(), where
                assert np.abs(got.mean - base.mean).max() <= 1e-14 * np.abs(base.mean).max(), where


def _woodbury_and_gain_mean(ens, obs):
    """The Woodbury posterior covariance and the mean through an explicit gain.

    The gain ``Z V (V.T V + R)^-1`` with ``V = (H Z).T`` and a variance-vector
    ``R`` is formed densely, without the package's factors.
    """
    pert = perturbation_matrix(ens)
    hz = obs.operator @ pert.matrix
    innovation = obs.observation - obs.operator @ ens.mean
    increment = pert.matrix @ (hz.T @ np.linalg.solve(hz @ hz.T + np.diag(obs.covariance), innovation))
    return posterior_cov_woodbury(pert, obs), ens.mean + increment


@pytest.mark.parametrize("directions", [None, 10], ids=["full-rank", "rank-10"])
def test_analyze_is_exact_where_the_qr_shrinks_the_input(directions):
    # n = 2000 rows reduce to a 40 x 40 triangle; in the rank-10 ensemble the
    # rank threshold cuts 30 of the triangle's 40 singular values
    n, m, p = 2000, 40, 100
    rng = np.random.default_rng(13)
    if directions is None:
        members = rng.standard_normal((n, m))
    else:
        members = rng.standard_normal((n, directions)) @ rng.standard_normal((directions, m))
    ens = ForecastEnsemble(members)
    obs = ObservationModel(
        operator=rng.standard_normal((p, n)) / np.sqrt(n),
        covariance=rng.uniform(0.5, 2.0, p),
        observation=rng.standard_normal(p),
    )
    rank = m - 1 if directions is None else directions
    assert svd_full(perturbation_matrix(ens).matrix).rank == rank
    res = analyze(ens, obs)
    cov, mean = _woodbury_and_gain_mean(ens, obs)
    assert compare_cov(res.covariance, cov, 1e-10).passed
    assert np.linalg.norm(res.mean - mean) <= 1e-10 * np.linalg.norm(mean)


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


@pytest.mark.parametrize("ordering", ["correct", "misordered"])
def test_rank_cut_equals_pinv_product(ordering):
    # the transform keeps the leading rank columns of the (ordered or
    # reversed) scaled eigenvectors, which is exactly what pinv(sig) @ sig does
    for seed in range(40):
        inst = random_instance(seed, ALL_CATEGORIES[seed % len(ALL_CATEGORIES)])
        pert = perturbation_matrix(inst.ensemble)
        f, eig = factors(pert, inst.observation)
        sig = rect_sigma(f)
        truncation = pinv_rect_diag(sig) @ sig
        # (1 / s) * s is 1 only to rounding
        projector = np.diag(np.arange(pert.size) < f.rank)
        np.testing.assert_allclose(truncation, projector, rtol=0, atol=1e-15)
        if ordering == "correct":
            perm = np.arange(pert.size)
        else:
            perm = ascending_order(pert)[1]
        scaled = eig.vectors[:, perm] / np.sqrt(1.0 + eig.values[perm])
        expected = scaled @ truncation @ f.right.T
        if ordering == "correct":
            atol = 1e-14 * max(np.linalg.norm(expected), 1.0)
            np.testing.assert_allclose(adjustment_matrix(f, eig), expected, rtol=0, atol=atol)
        else:
            # the misordered transform is applied, not returned: compare Z @ T
            za = misordered_analysis(inst.ensemble, inst.observation).perturbations
            expected = pert.matrix @ expected
            atol = 1e-14 * max(np.linalg.norm(expected), 1.0)
            np.testing.assert_allclose(za, expected, rtol=0, atol=atol)


def test_misordering_under_disperses():
    # every category: a cut that drops a live column (any rank >= 1, since
    # rank < m) loses trace against the oracle; at rank 0 (zero_spread)
    # nothing is cut
    for seed in range(60):
        inst = random_instance(seed, ALL_CATEGORIES[seed % len(ALL_CATEGORIES)])
        ens, obs = inst.ensemble, inst.observation
        pert = perturbation_matrix(ens)
        correct = analyze(ens, obs)
        mis = misordered_analysis(ens, obs)
        t_oracle = np.trace(posterior_cov_direct(forecast_cov(pert), obs))
        t_mis = np.trace(mis.covariance)
        r, order = ascending_order(pert)
        assert r < pert.size
        if r == 0:
            np.testing.assert_array_equal(mis.perturbations, correct.perturbations)
            np.testing.assert_array_equal(mis.mean, correct.mean)
        else:
            assert np.any(order[:r] >= r)
            assert t_mis < t_oracle
            assert t_mis < np.trace(correct.covariance)


def test_sign_convention_invariance_of_posterior():
    # flipping the sign of any column of the right factor, row space or null
    # space, is still a valid SVD (with the unformed left column flipped to
    # match); the analysis covariance must not change
    for seed in range(8):
        inst = random_instance(seed, "generic")
        pert = perturbation_matrix(inst.ensemble)
        y = project_observations(pert, inst.observation)
        f = svd_full(pert.matrix)
        if f.rank == 0:
            continue
        rng = np.random.default_rng(seed + 1000)
        right = f.right * np.where(rng.random(f.right.shape[1]) < 0.5, -1.0, 1.0)
        flipped = SvdFactors(singular_values=f.singular_values, right=right)

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
