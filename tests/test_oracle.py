import numpy as np
import pytest
import scipy.linalg as sla

from eakf._arrays import symmetrize
from eakf.ensemble import (
    ForecastEnsemble,
    ObservationModel,
    PerturbationMatrix,
    forecast_cov,
    perturbation_matrix,
)
from eakf.demo import misordered_analysis
from eakf.instances import ALL_CATEGORIES, ZERO_SPREAD, random_instance
from eakf.oracle import (
    _spd_solve,
    compare_cov,
    compare_factored,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from eakf.update import analyze


def scalar_pieces():
    pert = PerturbationMatrix(matrix=np.array([[1.0, -1.0]]), scale_members=2)
    obs = ObservationModel(operator=[[1.0]], covariance=[[2.0]], observation=[1.0])
    return pert, obs


def test_direct_scalar():
    pert, obs = scalar_pieces()
    np.testing.assert_allclose(posterior_cov_direct(forecast_cov(pert), obs), [[1.0]])


def test_direct_zero_operator():
    pf = np.array([[1.0, -0.5], [-0.5, 1.0]])
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    np.testing.assert_array_equal(posterior_cov_direct(pf, obs), pf)


def test_direct_two_dim():
    pf = np.array([[1.0, -0.5], [-0.5, 1.0]])
    obs = ObservationModel(operator=[[1.0, 0.0]], covariance=[[1.0]], observation=[1.0])
    np.testing.assert_allclose(
        posterior_cov_direct(pf, obs), [[0.5, -0.25], [-0.25, 0.875]], atol=1e-15
    )


def test_reduced_and_woodbury_scalar():
    pert, obs = scalar_pieces()
    np.testing.assert_allclose(posterior_cov_reduced(pert, obs), [[1.0]], rtol=1e-14)
    np.testing.assert_allclose(posterior_cov_woodbury(pert, obs), [[1.0]], rtol=1e-14)


def test_reduced_zero_projection_returns_forecast():
    z = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]) / np.sqrt(2.0)
    pert = PerturbationMatrix(matrix=z, scale_members=3)
    obs = ObservationModel(operator=np.zeros((1, 2)), covariance=[[1.0]], observation=[0.0])
    np.testing.assert_allclose(posterior_cov_reduced(pert, obs), forecast_cov(pert), atol=1e-15)
    np.testing.assert_allclose(posterior_cov_woodbury(pert, obs), forecast_cov(pert), atol=1e-15)


@pytest.mark.parametrize("seed", range(40))
def test_triple_equality(seed):
    inst = random_instance(seed, "generic")
    pert = perturbation_matrix(inst.ensemble)
    direct = posterior_cov_direct(forecast_cov(pert), inst.observation)
    scale = max(np.linalg.norm(direct), 1e-300)
    assert np.linalg.norm(posterior_cov_reduced(pert, inst.observation) - direct) <= 1e-10 * scale
    assert np.linalg.norm(posterior_cov_woodbury(pert, inst.observation) - direct) <= 1e-10 * scale


def test_monotone_contraction_and_symmetry():
    for seed in range(20):
        inst = random_instance(seed, "generic")
        pert = perturbation_matrix(inst.ensemble)
        pf = forecast_cov(pert)
        post = posterior_cov_direct(pf, inst.observation)
        assert np.trace(post) <= np.trace(pf) + 1e-12 * max(np.trace(pf), 1.0)
        assert np.linalg.norm(post - post.T) <= 1e-13 * max(np.linalg.norm(post), 1e-300)


def test_direct_shape_errors():
    _, obs = scalar_pieces()
    with pytest.raises(ValueError, match="square"):
        posterior_cov_direct(np.ones((1, 2)), obs)
    with pytest.raises(ValueError, match="inconsistent"):
        posterior_cov_direct(np.eye(3), obs)


def test_compare_identical():
    a = np.array([[1.0, 0.2], [0.2, 2.0]])
    rep = compare_cov(a, a.copy(), 1e-10)
    assert rep.passed
    assert rep.frobenius_rel == 0.0
    assert rep.trace_deficit == 0.0


def test_compare_under_dispersed():
    rep = compare_cov(np.array([[0.0]]), np.array([[1.0]]), 1e-10)
    assert not rep.passed
    assert rep.trace_deficit == 1.0
    assert rep.frobenius_abs == 1.0


def test_compare_zero_vs_zero_passes():
    rep = compare_cov(np.zeros((2, 2)), np.zeros((2, 2)), 1e-10)
    assert rep.passed
    assert rep.frobenius_rel == 0.0


def test_compare_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        compare_cov(np.zeros((2, 2)), np.zeros((3, 3)), 1e-10)
    with pytest.raises(ValueError, match="tolerance"):
        compare_cov(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


def test_compare_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        compare_cov(np.zeros((2, 2)), np.zeros((2, 2)), float("nan"))


@pytest.mark.parametrize("tolerance", [np.inf, 10.0, 2e-10])
def test_compare_rejects_a_tolerance_looser_than_the_contract(tolerance):
    # at 10.0 and at inf a five-fold covariance would pass
    with pytest.raises(ValueError, match="tolerance must be positive and at most 1e-10"):
        compare_cov(np.eye(2), 5 * np.eye(2), tolerance)


def test_compare_accepts_a_tighter_tolerance():
    rep = compare_cov(np.eye(2), np.eye(2), 1e-12)
    assert rep.passed and rep.tolerance == 1e-12


def test_report_round_trips_to_dict():
    rep = compare_cov(np.array([[1.0]]), np.array([[1.0]]), 1e-10)
    d = rep.to_dict()
    assert set(d) == {
        "frobenius_abs",
        "frobenius_rel",
        "trace_lhs",
        "trace_rhs",
        "trace_deficit",
        "tolerance",
        "passed",
    }


@pytest.mark.parametrize("seed", range(20))
def test_routes_take_variance_vector_as_diagonal(seed):
    inst = random_instance(seed, "generic")
    pert = perturbation_matrix(inst.ensemble)
    model = inst.observation
    variances = np.random.default_rng(seed).uniform(0.1, 10.0, model.obs_dim)
    vector, dense = (
        ObservationModel(model.operator, r, model.observation) for r in (variances, np.diag(variances))
    )
    pf = forecast_cov(pert)
    for route in (
        lambda obs: posterior_cov_direct(pf, obs),
        lambda obs: posterior_cov_reduced(pert, obs),
        lambda obs: posterior_cov_woodbury(pert, obs),
    ):
        expected = route(dense)
        assert np.linalg.norm(route(vector) - expected) <= 1e-13 * max(np.linalg.norm(expected), 1e-300)


ROUTES = {
    "direct": lambda pert, obs: posterior_cov_direct(forecast_cov(pert), obs),
    "reduced": posterior_cov_reduced,
    "woodbury": posterior_cov_woodbury,
}


def swamped_pieces():
    # H Z Z.T H.T = 2**70 [[1, -1], [-1, 1]] absorbs R = I in rounding, so
    # every route's system is exactly singular in float64
    c = 2.0**34
    pert = PerturbationMatrix(matrix=np.array([[c, -c, c, -c], [-c, c, -c, c]]), scale_members=4)
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    return pert, obs


@pytest.mark.parametrize(
    ("route", "what"),
    [
        ("direct", "innovation covariance"),
        ("reduced", "reduced-form innovation covariance"),
        ("woodbury", "ensemble-space Woodbury matrix"),
    ],
)
def test_routes_name_the_matrix_that_is_not_positive_definite(route, what):
    pert, obs = swamped_pieces()
    with pytest.raises(np.linalg.LinAlgError, match=f"^{what} not positive definite$"):
        ROUTES[route](pert, obs)


def test_woodbury_names_an_indefinite_error_covariance():
    # the model validates R, so replace it after construction
    pert = perturbation_matrix(ForecastEnsemble.from_members(np.random.default_rng(0).standard_normal((2, 5))))
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    object.__setattr__(obs, "covariance", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="^observation error covariance R not positive definite$"):
        posterior_cov_woodbury(pert, obs)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_raise_on_overflow(route):
    pert = perturbation_matrix(ForecastEnsemble.from_members(np.random.default_rng(0).standard_normal((3, 5))))
    obs = ObservationModel(operator=1e200 * np.eye(3), covariance=np.eye(3), observation=np.zeros(3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        ROUTES[route](pert, obs)


def test_woodbury_raises_when_the_observed_perturbations_overflow():
    # H Z overflows while R stays finite: the right-hand side of the R solve
    # is what is not finite
    pert = PerturbationMatrix(matrix=np.array([[1e150, -1e150]]), scale_members=2)
    obs = ObservationModel(operator=[[1e200]], covariance=[[1.0]], observation=[0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        posterior_cov_woodbury(pert, obs)


@pytest.mark.parametrize("route", ["reduced", "woodbury"])
def test_ensemble_routes_reject_a_mismatched_state_dimension(route):
    pert, _ = scalar_pieces()
    obs = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    with pytest.raises(ValueError, match="^observation operator inconsistent with perturbations$"):
        ROUTES[route](pert, obs)


@pytest.mark.parametrize("covariance", [np.zeros((0, 0)), np.zeros(0)], ids=["dense", "vector"])
def test_routes_without_observations_return_the_forecast(covariance):
    pert = perturbation_matrix(ForecastEnsemble.from_members(np.random.default_rng(0).standard_normal((3, 5))))
    obs = ObservationModel(operator=np.zeros((0, 3)), covariance=covariance, observation=[])
    for route in ROUTES.values():
        assert np.array_equal(route(pert, obs), forecast_cov(pert))


@pytest.mark.parametrize("p", [1, 5, 20, 200])
def test_spd_solve_is_the_scipy_cholesky_solve(p):
    rng = np.random.default_rng(p)
    g = rng.standard_normal((p, p))
    matrix = symmetrize(g @ g.T) + p * np.eye(p)
    for rhs in (rng.standard_normal(p), rng.standard_normal((p, 7))):
        expected = sla.cho_solve(sla.cho_factor(matrix, lower=True), rhs)
        assert np.array_equal(_spd_solve(matrix, rhs, "matrix"), expected)


# ---------------------------------------------------- the factored judge


def test_factored_judge_scalar():
    # Z = [1, -1]: the posterior variance is 1, the misordered cut keeps none
    pert, obs = scalar_pieces()
    ens = ForecastEnsemble(np.array([[1.0, -1.0]]))
    correct = compare_factored(analyze(ens, obs).perturbations, pert, obs)
    assert correct.passed
    assert correct.trace_lhs == pytest.approx(1.0, abs=1e-15)
    assert correct.trace_rhs == pytest.approx(1.0, abs=1e-15)
    pitfall = compare_factored(misordered_analysis(ens, obs).perturbations, pert, obs)
    assert not pitfall.passed
    assert pitfall.trace_lhs == pytest.approx(0.0, abs=1e-15)
    assert pitfall.trace_deficit == pytest.approx(1.0, abs=1e-15)
    assert pitfall.frobenius_rel == pytest.approx(1.0, abs=1e-15)
    assert pitfall.frobenius_abs == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_factored_judge_agrees_with_the_dense_one(category):
    for seed in range(150):
        inst = random_instance(seed, category)
        pert = perturbation_matrix(inst.ensemble)
        direct = posterior_cov_direct(forecast_cov(pert), inst.observation)
        for analysis in (analyze, misordered_analysis):
            result = analysis(inst.ensemble, inst.observation)
            dense = compare_cov(result.covariance, direct)
            factored = compare_factored(result.perturbations, pert, inst.observation)
            where = (seed, analysis.__name__)
            assert factored.passed == dense.passed, where
            assert abs(factored.frobenius_rel - dense.frobenius_rel) <= 1e-13, where
            assert abs(factored.trace_deficit - dense.trace_deficit) <= 1e-13 * dense.trace_rhs, where
        # an analysis inflated by 1e-6 fails, unless Za = Z = 0
        za = analyze(inst.ensemble, inst.observation).perturbations * (1.0 + 1e-6)
        assert compare_factored(za, pert, inst.observation).passed == (category == ZERO_SPREAD), seed


def test_factored_judge_checks_underflowed_covariances():
    # at spread 1e-310 Za Za.T and the dense posterior underflow to zero, so
    # the dense comparison passes an analysis inflated by 0.1 %; the factored
    # judge scales Z and Za up by a power of two and sees it
    obs = ObservationModel(operator=np.eye(3), covariance=np.ones(3), observation=np.zeros(3))
    judged = []
    for seed in range(300):
        try:
            ens = ForecastEnsemble(np.random.default_rng(seed).standard_normal((3, 5)) * 1e-310)
            pert = perturbation_matrix(ens)
        except ValueError as exc:
            assert "below the smallest normal float64" in str(exc)
            continue
        za = analyze(ens, obs).perturbations
        inflated = za * 1.001
        dense = compare_cov(inflated @ inflated.T, posterior_cov_direct(forecast_cov(pert), obs))
        judged.append(
            (compare_factored(za, pert, obs), compare_factored(inflated, pert, obs), dense.passed)
        )
    assert len(judged) == 296
    assert all(exact.passed and exact.frobenius_rel <= 1e-12 for exact, _, _ in judged)
    assert not any(wrong.passed for _, wrong, _ in judged)
    assert all(dense_passed for _, _, dense_passed in judged)


def test_factored_judge_scales_by_the_larger_block():
    # Z at spread 1e-310 and Za at unit scale: scaled by max|Z| alone, Za
    # would overflow; scaled by max|[Za | Z]| it is judged, and fails
    obs = ObservationModel(operator=np.eye(3), covariance=np.ones(3), observation=np.zeros(3))
    pert = perturbation_matrix(ForecastEnsemble(np.random.default_rng(0).standard_normal((3, 5)) * 1e-310))
    report = compare_factored(np.tile([1.0, -1.0, 0.0, 0.0, 0.0], (3, 1)), pert, obs)
    assert not report.passed
    assert report.trace_lhs == pytest.approx(6.0, rel=1e-15)
    assert report.frobenius_abs == pytest.approx(6.0, rel=1e-15)


def test_factored_judge_does_not_use_the_analysis_qr(monkeypatch):
    # the update's SVD of Z starts from numpy's QR; the judge must not
    inst = random_instance(4, "rank_deficient")
    pert = perturbation_matrix(inst.ensemble)
    za = analyze(inst.ensemble, inst.observation).perturbations
    expected = compare_factored(za, pert, inst.observation)

    def forbidden(*args, **kwargs):
        raise AssertionError("the factored judge called numpy.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    assert compare_factored(za, pert, inst.observation) == expected
    assert expected.passed


def test_factored_judge_guards():
    pert, obs = scalar_pieces()
    with pytest.raises(ValueError, match=r"^shape mismatch: \(1, 3\) vs \(1, 2\)$"):
        compare_factored(np.zeros((1, 3)), pert, obs)
    with pytest.raises(ValueError, match="^analysis perturbations: entries must be finite"):
        compare_factored(np.array([[np.nan, 0.0]]), pert, obs)
    wide = ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(2))
    with pytest.raises(ValueError, match="^observation operator inconsistent with perturbations$"):
        compare_factored(pert.matrix, pert, wide)
    swamped, swamped_obs = swamped_pieces()
    with pytest.raises(np.linalg.LinAlgError, match="^ensemble-space Woodbury matrix not positive definite$"):
        compare_factored(swamped.matrix, swamped, swamped_obs)
    # H Z overflows while R stays finite
    huge = PerturbationMatrix(matrix=np.array([[1e150, -1e150]]), scale_members=2)
    overflowing = ObservationModel(operator=[[1e200]], covariance=[[1.0]], observation=[0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        compare_factored(huge.matrix, huge, overflowing)
