import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from eakf._arrays import frobenius, symmetrize
from eakf.ensemble import (
    ForecastEnsemble,
    ObservationModel,
    PerturbationMatrix,
    _error_factor,
    forecast_cov,
    perturbation_matrix,
    reconstruct_members,
)


def spd_matrix(p: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((p, p))
    return symmetrize(g @ g.T) + p * np.eye(p)


def test_perturbation_two_members():
    ens = ForecastEnsemble.from_members(np.array([[1.0, -1.0]]))
    pert = perturbation_matrix(ens)
    np.testing.assert_allclose(pert.matrix, [[1.0, -1.0]])
    assert pert.scale_members == 2


def test_perturbation_identical_members():
    ens = ForecastEnsemble.from_members(np.array([[3.0, 3.0, 3.0]]))
    pert = perturbation_matrix(ens)
    np.testing.assert_array_equal(pert.matrix, np.zeros((1, 3)))


def test_perturbation_identical_members_seeded():
    # a member value and the members' average differ in the last bit for
    # about one draw in six; the perturbations must be exactly zero all the same
    rng = np.random.default_rng(0)
    for _ in range(500):
        n, m = int(rng.integers(1, 21)), int(rng.integers(2, 13))
        center = rng.standard_normal(n) * 10.0 ** rng.integers(-100, 101)
        members = np.repeat(center[:, None], m, axis=1)
        pert = perturbation_matrix(ForecastEnsemble.from_members(members))
        assert not pert.matrix.any()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    constant_rows=st.lists(st.booleans(), min_size=1, max_size=20),
    identical=st.booleans(),
    m=st.integers(2, 12),
    k=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_perturbation_matrix_property(constant_rows, identical, m, k, seed):
    # each row holds one value repeated across the members or a spread of
    # values; with ``identical`` every row is constant and the members are equal
    constant = np.array(constant_rows) | identical
    rng = np.random.default_rng(seed)
    center = rng.standard_normal((len(constant), 1))
    spread = rng.standard_normal((len(constant), m))
    members = np.where(constant[:, None], center, spread) * 10.0**k
    pert = perturbation_matrix(ForecastEnsemble(members))
    assert not pert.matrix[constant].any()
    cov = forecast_cov(pert)
    assert np.array_equal(cov, cov.T)


def test_perturbation_three_members():
    members = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    pert = perturbation_matrix(ForecastEnsemble.from_members(members))
    np.testing.assert_allclose(pert.matrix, members / np.sqrt(2.0), atol=1e-15)


def test_perturbation_rows_sum_to_zero_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = rng.integers(1, 15), rng.integers(2, 12)
        # offset by a large mean to stress the centering
        members = rng.standard_normal((n, m)) + 1e6
        pert = perturbation_matrix(ForecastEnsemble.from_members(members))
        scale = max(np.linalg.norm(pert.matrix), 1.0)
        assert np.linalg.norm(pert.matrix.sum(axis=1)) <= 1e-13 * scale


def test_ensemble_too_small():
    with pytest.raises(ValueError, match="too small"):
        ForecastEnsemble.from_members(np.array([[1.0]]))


def test_ensemble_mean_mismatch():
    # the mean is derived from the members, so a mismatched one cannot be given
    with pytest.raises(TypeError, match="mean"):
        ForecastEnsemble(members=np.array([[1.0, -1.0]]), mean=np.array([5.0]))
    assert np.array_equal(ForecastEnsemble(np.array([[1.0, -1.0]])).mean, [0.0])


def test_mean_guard_rejects_an_offset_mean():
    # a mean 5e-15 off members of size 1e-20 once moved the analysis mean by
    # 4e-15 where the true mean is 2e-20; no mean but the members' own enters
    members = np.array([[1e-20, 3e-20], [2e-20, -2e-20]])
    with pytest.raises(TypeError, match="mean"):
        ForecastEnsemble(members=members, mean=np.array([5e-15, 0.0]))
    np.testing.assert_allclose(ForecastEnsemble(members).mean, [2e-20, 0.0], rtol=1e-15, atol=0.0)


def test_ensemble_mean_is_derived():
    members = np.random.default_rng(1).standard_normal((5, 7)) * 1e3 + 1e6
    with pytest.raises(TypeError, match="mean"):
        ForecastEnsemble(members=members, mean=members.mean(axis=1))
    ens = ForecastEnsemble(members)
    assert np.array_equal(ens.mean, members.mean(axis=1))
    assert np.array_equal(ForecastEnsemble.from_members(members).mean, ens.mean)


def test_perturbation_rejects_uncentered():
    with pytest.raises(ValueError, match="centered"):
        PerturbationMatrix(matrix=np.array([[1.0, 1.0]]), scale_members=2)


def test_perturbation_rejects_a_bad_member_count():
    with pytest.raises(ValueError, match="^ensemble too small: need at least 2 members$"):
        PerturbationMatrix(matrix=np.zeros((2, 1)), scale_members=1)
    with pytest.raises(ValueError, match="^column count does not match scale_members$"):
        PerturbationMatrix(matrix=np.array([[1.0, -1.0]]), scale_members=3)


def test_perturbation_below_the_normal_range_names_its_scale():
    # below 2.2e-308 the average and the re-centering round to a fixed step
    # of 4.9e-324, so such a spread cannot be centered to 1e-13 of its norm
    members = np.array([[1.0, 2.0, 4.0], [3.0, -1.0, 0.5]]) * 1e-315
    with pytest.raises(ValueError, match=r"not centered.*norm 2\.5e-315 is below .* 2\.2e-308"):
        perturbation_matrix(ForecastEnsemble(members))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_guards_hold_near_overflow():
    # squares of entries near 1e200 overflow; the norms in the guards must not
    assert frobenius(np.full(4, 1e200)) == pytest.approx(2e200, rel=1e-15)
    with pytest.raises(ValueError, match="centered"):
        PerturbationMatrix(matrix=np.array([[1e200, 1e200]]), scale_members=2)
    # the members' sum overflows, but their average fits: it is accepted,
    # exactly and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = ForecastEnsemble(np.full((1, 2), 1.5e308))
    assert ens.mean[0] == 1.5e308
    # at the largest float64 it is accepted within an ulp, at every size
    largest = np.finfo(np.float64).max
    for m in range(2, 13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = ForecastEnsemble(np.full((1, m), largest)).mean[0]
        assert np.nextafter(largest, 0.0) <= mean <= largest, m


def test_frobenius_raises_on_nan():
    with pytest.raises(ValueError, match="not finite"):
        frobenius(np.array([np.nan]))


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-14])
def test_frobenius_below_underflow(scale):
    # the squares of entries below about 1e-154 underflow
    assert frobenius(np.full((3, 4), scale)) == pytest.approx(scale * np.sqrt(12.0), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e-14, 1e-100, 1e-170])
def test_guards_are_relative_below_unit_scale(scale):
    with pytest.raises(ValueError, match="centered"):
        PerturbationMatrix(matrix=np.array([[scale, scale], [scale, -scale]]), scale_members=2)
    with pytest.raises(ValueError, match="not centered"):
        reconstruct_members(np.zeros(1), np.array([[scale, scale]]))


def test_guards_accept_zero_matrices():
    zeros = np.zeros((2, 3))
    assert not PerturbationMatrix(matrix=zeros, scale_members=3).matrix.any()
    assert not reconstruct_members(np.zeros(2), zeros).members.any()
    assert not ForecastEnsemble(zeros).mean.any()
    assert frobenius(np.zeros((0, 0))) == 0.0


def test_forecast_cov_examples():
    p1 = PerturbationMatrix(matrix=np.array([[1.0, -1.0]]), scale_members=2)
    np.testing.assert_allclose(forecast_cov(p1), [[2.0]])
    p0 = PerturbationMatrix(matrix=np.zeros((2, 3)), scale_members=3)
    np.testing.assert_array_equal(forecast_cov(p0), np.zeros((2, 2)))
    z = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]) / np.sqrt(2.0)
    p2 = PerturbationMatrix(matrix=z, scale_members=3)
    np.testing.assert_allclose(forecast_cov(p2), [[1.0, -0.5], [-0.5, 1.0]], atol=1e-15)


def test_forecast_cov_symmetric_psd():
    rng = np.random.default_rng(5)
    # numpy's general product on a strided (500, 40) view is not symmetric
    for n, m in [*rng.integers((1, 2), (12, 10), size=(10, 2)), (500, 40)]:
        z = perturbation_matrix(ForecastEnsemble.from_members(rng.standard_normal((n, m)))).matrix
        # the same matrix as a strided view
        wide = np.repeat(z, 2, axis=1)
        for matrix in (np.ascontiguousarray(z), np.asfortranarray(z), wide[:, ::2]):
            cov = forecast_cov(PerturbationMatrix(matrix=matrix, scale_members=m))
            assert np.array_equal(cov, cov.T)
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-12 * max(np.trace(cov), 1.0)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_perturbation_matrix_stores_row_major(layout):
    members = np.random.default_rng(0).standard_normal((6, 4))
    z = perturbation_matrix(ForecastEnsemble.from_members(members)).matrix
    matrix = {"fortran": np.asfortranarray(z), "strided": np.repeat(z, 2, axis=1)[:, ::2]}[layout]
    stored = PerturbationMatrix(matrix=matrix, scale_members=4).matrix
    assert stored.flags.c_contiguous
    np.testing.assert_array_equal(stored, z)


def test_reconstruct_examples():
    ens = reconstruct_members(np.zeros(1), np.array([[1.0, -1.0]]))
    np.testing.assert_allclose(ens.members, [[1.0, -1.0]])
    ens = reconstruct_members(np.array([5.0]), np.zeros((1, 2)))
    np.testing.assert_array_equal(ens.members, [[5.0, 5.0]])


def test_reconstruct_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, m = rng.integers(1, 10), rng.integers(2, 10)
        members = rng.standard_normal((n, m)) * 10.0
        ens = ForecastEnsemble.from_members(members)
        pert = perturbation_matrix(ens)
        back = reconstruct_members(ens.mean, pert.matrix)
        np.testing.assert_allclose(back.members, members, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(back.mean, ens.mean, rtol=1e-13, atol=1e-13)
        # and the inverse direction: mean/perturbations survive a rebuild
        pert2 = perturbation_matrix(back)
        np.testing.assert_allclose(pert2.matrix, pert.matrix, rtol=1e-13, atol=1e-13)


def test_reconstruct_rejects_uncentered():
    with pytest.raises(ValueError, match="not centered"):
        reconstruct_members(np.zeros(1), np.array([[1.0, 1.0]]))


def test_reconstruct_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^mean length 2 does not match state dimension 1$"):
        reconstruct_members(np.zeros(2), np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError, match="^ensemble too small: need at least 2 members$"):
        reconstruct_members(np.zeros(1), np.zeros((1, 1)))


def test_observation_model_diagonal_covariance():
    # variances stay a vector; the factor holds the standard deviations
    model = ObservationModel(
        operator=np.eye(2), covariance=np.array([2.0, 3.0]), observation=np.zeros(2)
    )
    np.testing.assert_array_equal(model.covariance, [2.0, 3.0])
    np.testing.assert_array_equal(model.cholesky, np.sqrt([2.0, 3.0]))
    assert model.obs_dim == 2


def test_observation_model_variance_errors():
    for variances in ([1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            ObservationModel(operator=np.eye(2), covariance=variances, observation=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        ObservationModel(operator=np.eye(2), covariance=[1.0, np.inf], observation=np.zeros(2))
    with pytest.raises(ValueError, match="covariance"):
        ObservationModel(operator=np.eye(2), covariance=np.ones(3), observation=np.zeros(2))


def test_observation_model_keeps_variances_small():
    # a diagonal R at p = 2000 holds p variances and p deviations, no p x p array
    rng = np.random.default_rng(0)
    operator, variances = rng.standard_normal((2000, 50)), rng.uniform(0.5, 2.0, 2000)
    tracemalloc.start()
    try:
        model = ObservationModel(operator=operator, covariance=variances, observation=np.zeros(2000))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1e6, retained
    assert model.covariance.shape == model.cholesky.shape == (2000,)


def test_observation_model_not_spd():
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        ObservationModel(
            operator=np.eye(2),
            covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),
            observation=np.zeros(2),
        )
    with pytest.raises(np.linalg.LinAlgError, match="^observation error covariance R not positive definite$"):
        ObservationModel(operator=np.eye(2), covariance=np.zeros((2, 2)), observation=np.zeros(2))


@pytest.mark.parametrize("covariance", [np.zeros((0, 0)), np.zeros(0)], ids=["dense", "vector"])
def test_observation_model_without_observations(covariance):
    model = ObservationModel(operator=np.zeros((0, 3)), covariance=covariance, observation=[])
    assert model.obs_dim == 0 and model.cholesky.shape == covariance.shape
    assert model.whiten(np.zeros((0, 4))).shape == (0, 4)
    assert model.whiten(np.zeros(0), trans="T").shape == (0,)


@pytest.mark.parametrize("p", [1, 5, 20, 200])
def test_error_factor_is_the_scipy_cholesky(p):
    cov = spd_matrix(p, p)
    factor = _error_factor(cov)
    assert np.array_equal(factor, sla.cholesky(cov, lower=True))
    assert factor.flags.f_contiguous
    assert not np.triu(factor, 1).any()


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("p", [1, 5, 20, 200])
def test_whiten_is_the_scipy_triangular_solve(p, trans):
    rng = np.random.default_rng(p)
    model = ObservationModel(operator=np.ones((p, 3)), covariance=spd_matrix(p, p), observation=np.zeros(p))
    for rhs in (rng.standard_normal(p), rng.standard_normal((p, 7))):
        expected = sla.solve_triangular(model.cholesky, rhs, lower=True, trans=trans)
        assert np.array_equal(model.whiten(rhs, trans=trans), expected)


@pytest.mark.parametrize(
    "covariance", [np.array([1 + 1j, 2.0]), np.diag([1 + 1j, 2.0])], ids=["vector", "dense"]
)
def test_observation_model_rejects_complex_covariance(covariance):
    with pytest.raises(ValueError, match="complex input not supported"):
        ObservationModel(operator=np.eye(2), covariance=covariance, observation=np.zeros(2))


def test_observation_model_not_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        ObservationModel(
            operator=np.eye(2),
            covariance=np.array([[1.0, 0.5], [0.0, 1.0]]),
            observation=np.zeros(2),
        )


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-305])
def test_observation_model_symmetry_guard_is_relative(scale):
    # an asymmetry of 1e-6 relative to R must raise at any scale of R
    with pytest.raises(ValueError, match="not symmetric"):
        ObservationModel(np.eye(2), np.array([[1.0, 1e-6], [0.0, 1.0]]) * scale, np.zeros(2))
    model = ObservationModel(np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]) * scale, np.zeros(2))
    assert np.array_equal(model.covariance, np.array([[1.0, 0.5], [0.5, 1.0]]) * scale)


def test_observation_model_shape_errors():
    with pytest.raises(ValueError, match="covariance"):
        ObservationModel(operator=np.eye(2), covariance=np.eye(3), observation=np.zeros(2))
    with pytest.raises(ValueError, match="observation length"):
        ObservationModel(operator=np.eye(2), covariance=np.eye(2), observation=np.zeros(3))


# ------------------------------------------------- the state-index operator


def test_index_operator_is_kept_as_indices():
    # repeated and unsorted: the same variable observed twice, in any order
    model = ObservationModel(operator=[2, 0, 2], covariance=[1.0, 2.0, 3.0], observation=np.zeros(3))
    assert model.operator.dtype == np.intp and model.operator.tolist() == [2, 0, 2]
    assert model.obs_dim == 3
    x = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(model.apply(x), x[[2, 0, 2]])
    assert np.array_equal(model.apply(x[:, 0]), [6.0, 0.0, 6.0])


def test_index_operator_accepts_unsigned_integers():
    index = np.array([1, 0], dtype=np.uint8)
    model = ObservationModel(operator=index, covariance=[1.0, 1.0], observation=[0.0, 0.0])
    assert model.operator.dtype == np.intp and model.operator.tolist() == [1, 0]


def test_index_operator_without_observations():
    model = ObservationModel(operator=np.arange(0), covariance=np.zeros(0), observation=[])
    assert model.obs_dim == 0
    assert model.apply(np.ones((5, 3))).shape == (0, 3)
    assert model.apply(np.ones(5)).shape == (0,)


def test_index_operator_refuses_a_negative_index():
    with pytest.raises(ValueError, match="^observation operator: state index -1 is negative$"):
        ObservationModel(operator=[0, -1], covariance=[1.0, 1.0], observation=np.zeros(2))


def test_index_operator_refuses_a_boolean_mask():
    message = "^observation operator: a boolean mask is not accepted; pass the state indices it selects$"
    with pytest.raises(ValueError, match=message):
        ObservationModel(operator=np.array([True, False]), covariance=[1.0], observation=np.zeros(1))


def test_index_operator_refuses_floats():
    # a 1-D float array is a matrix that is not 2-D, as before
    with pytest.raises(ValueError, match=r"^observation operator: expected a 2-D array, got shape \(2,\)$"):
        ObservationModel(operator=np.array([0.0, 1.0]), covariance=[1.0, 1.0], observation=np.zeros(2))


def test_apply_checks_the_state_dimension():
    model = ObservationModel(operator=[0, 3], covariance=[1.0, 1.0], observation=np.zeros(2))
    message = "^observation operator index 3 out of range for state dimension 3$"
    for x in (np.zeros((3, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match=message):
            model.apply(x)
    assert model.apply(np.arange(4.0)).tolist() == [0.0, 3.0]
    dense = ObservationModel(operator=np.ones((2, 3)), covariance=[1.0, 1.0], observation=np.zeros(2))
    with pytest.raises(ValueError, match="^observation operator has 3 state columns, expected 2$"):
        dense.apply(np.zeros((2, 4)))


def test_observation_model_has_no_state_dimension():
    # an index does not fix n; apply checks it against what H is applied to
    assert not hasattr(ObservationModel, "state_dim")
