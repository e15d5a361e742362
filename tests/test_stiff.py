"""Stiff regimes against an extended-precision Kalman posterior.

An explicit observation-space Gram matrix ``Z.T H.T inv(R) H Z`` squares the
conditioning of the analysis, so its small eigenvalues drown in the rounding
of its large ones once the ensemble spread far exceeds the observation error
or ``R`` is ill conditioned. The whitened square-root path must keep the
1e-10 contract there. The reference is the gain form of the posterior
evaluated in extended precision on the exact float64 inputs of the analysis
(the scaled perturbations, ``H`` and the symmetrized ``R``, or its variances).
The gain form adds ``R`` to ``H P_f H.T``, of size spread squared, so the
working precision grows with the spread: about ``2 log10(spread) + 40``
digits, and never fewer than 60.
"""

import math

import numpy as np
import pytest

from eakf.ensemble import ForecastEnsemble, ObservationModel, perturbation_matrix
from eakf.update import analyze

mpmath = pytest.importorskip("mpmath")

TOL = 1e-10

# the analysis mean x_f + Z w cancels once the spread dwarfs R; taking the
# mean in ensemble coordinates would avoid the subtraction
MEAN_CANCELS = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="the analysis mean cancels at large spread"
)


def exact_analysis(ens, obs):
    """Posterior covariance and mean in extended precision, rounded to float64.

    An operator given as state indices is expanded to its one-hot rows.
    """
    z = perturbation_matrix(ens).matrix
    spread = float(np.abs(z).max())
    digits = max(60, 40 + 2 * math.ceil(math.log10(max(spread, 1.0))))
    with mpmath.workdps(digits):
        r = obs.covariance if obs.covariance.ndim == 2 else np.diag(obs.covariance)
        h = obs.operator if obs.operator.ndim == 2 else np.eye(z.shape[0])[obs.operator]
        zm, h, r = (mpmath.matrix(a.tolist()) for a in (z, h, r))
        x, y = mpmath.matrix(ens.mean.tolist()), mpmath.matrix(obs.observation.tolist())
        hp = h * zm * zm.T
        gain_t = mpmath.inverse(hp * h.T + r) * hp
        cov = zm * zm.T - hp.T * gain_t
        mean = x + gain_t.T * (y - h * x)
        return np.array(cov.tolist(), dtype=float), np.array(mean.tolist(), dtype=float).ravel()


def assert_exact(ens, obs, check_mean=True):
    result = analyze(ens, obs)
    cov, mean = exact_analysis(ens, obs)
    cov_err = np.linalg.norm(result.covariance - cov) / np.linalg.norm(cov)
    mean_err = np.linalg.norm(result.mean - mean) / np.linalg.norm(mean)
    assert cov_err <= TOL, cov_err
    if check_mean:
        assert mean_err <= TOL, mean_err


@pytest.mark.parametrize("spread", [10.0**k for k in range(2, 9)])
def test_spread_far_above_observation_error(spread):
    # three of five state variables observed with unit error variance
    members = np.random.default_rng(0).standard_normal((5, 8)) * spread
    obs = ObservationModel(operator=np.eye(5)[:3], covariance=np.eye(3), observation=np.ones(3))
    assert_exact(ForecastEnsemble.from_members(members), obs)


@pytest.mark.parametrize("condition", [1e6, 1e9, 1e12])
def test_ill_conditioned_observation_error(condition):
    # dense H; R has eigenvalues logarithmically spaced from 1 down to 1/condition
    rng = np.random.default_rng(1)
    members = rng.standard_normal((5, 8))
    operator = rng.standard_normal((4, 5))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    covariance = (q * np.logspace(0, -np.log10(condition), 4)) @ q.T
    obs = ObservationModel(
        operator=operator, covariance=0.5 * (covariance + covariance.T), observation=rng.standard_normal(4)
    )
    assert_exact(ForecastEnsemble.from_members(members), obs)


def test_spread_far_above_widely_spread_variances():
    # R kept as a vector of variances from 1e-6 to 1e6, ensemble spread 1e8
    rng = np.random.default_rng(2)
    members = rng.standard_normal((6, 8)) * 1e8
    obs = ObservationModel(
        operator=rng.standard_normal((5, 6)), covariance=np.logspace(-6, 6, 5), observation=rng.standard_normal(5)
    )
    assert_exact(ForecastEnsemble.from_members(members), obs)


@pytest.mark.parametrize(
    "spread",
    [1e4, pytest.param(1e8, marks=MEAN_CANCELS), pytest.param(1e12, marks=MEAN_CANCELS),
     pytest.param(1e100, marks=MEAN_CANCELS)],
)
def test_fully_observed_spread_far_above_observation_error(spread):
    # every state variable observed with unit error: the posterior mean is
    # about y and the covariance about R. At 1e100 nothing raises; the mean
    # comes back wrong by about 1e84.
    members = np.random.default_rng(0).standard_normal((4, 6)) * spread
    obs = ObservationModel(operator=np.eye(4), covariance=np.eye(4), observation=np.ones(4))
    assert_exact(ForecastEnsemble(members), obs)


def fully_observed_once(shape, spread, variance, route):
    """Every state variable observed once, in shuffled order, with one variance.

    ``route`` gives ``H`` as state indices, which the analysis factors from
    one QR of ``Z``, or as the same one-hot rows, which it factors in general.
    """
    n = shape[0]
    members = np.random.default_rng(5).standard_normal(shape) * spread
    rng = np.random.default_rng(6)
    index, y = rng.permutation(n), rng.standard_normal(n)
    operator = index if route == "indices" else np.eye(n)[index]
    return ForecastEnsemble(members), ObservationModel(operator, np.full(n, variance), y)


ROUTES = ["indices", "one-hot"]
SHAPES = pytest.mark.parametrize("shape", [(5, 8), (6, 4)], ids=["full-rank", "rank-deficient"])
VARIANCES = pytest.mark.parametrize("variance", [1e-2, 1.0, 1e2])


@pytest.mark.parametrize("route", ROUTES)
@VARIANCES
@pytest.mark.parametrize("spread", [1e-6, 1e-2, 1.0, 1e2, 1e4])
@SHAPES
def test_every_variable_observed_once_with_one_variance(shape, spread, variance, route):
    assert_exact(*fully_observed_once(shape, spread, variance, route))


# the mean cancels from spreads of about 1e6 over the error (see MEAN_CANCELS)
@pytest.mark.parametrize("route", ROUTES)
@VARIANCES
@pytest.mark.parametrize("spread", [1e6, 1e8])
@SHAPES
def test_every_variable_observed_once_at_large_spread(shape, spread, variance, route):
    assert_exact(*fully_observed_once(shape, spread, variance, route), check_mean=False)


# The null-space guard of ordered_eig_psd (||Y B_null|| <= 1e-8 ||Y||) compares
# two rounding residues when H annihilates range(Z), and refuses valid input
NULL_GUARD_REFUSES = pytest.mark.xfail(
    raises=ValueError, strict=True, reason="the null-space guard refuses an H that annihilates range(Z)"
)


@NULL_GUARD_REFUSES
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_observed_total_that_every_member_conserves(n, seed):
    # every member sums to 10, so H = [1 ... 1] sees no spread: the
    # posterior is the forecast, and nothing about it is ill posed
    members = np.random.default_rng(seed).standard_normal((n, 6))
    members[-1] = 10.0 - members[:-1].sum(axis=0)
    obs = ObservationModel(operator=np.ones((1, n)), covariance=[0.5], observation=[10.2])
    assert_exact(ForecastEnsemble(members), obs)


def test_spread_below_the_rank_cut_seen_through_a_tiny_error():
    # row 1 spreads 1e-17 against row 0's 1, below the rank cut, yet R = 1e-30
    # makes it the best-observed direction. Dropping it misses the posterior
    # (mean off by 6e-4), so the analysis must be exact or refuse.
    rng = np.random.default_rng(3)
    n, m = 6, 5
    a, b = (row - row.mean() for row in (rng.standard_normal(m), rng.standard_normal(m)))
    members = np.zeros((n, m))
    members[0], members[1] = a, 1e-17 * b
    members += rng.standard_normal((n, 1))
    ens = ForecastEnsemble(members)
    obs = ObservationModel(operator=np.eye(n)[1:2], covariance=[1e-30], observation=[0.0])
    try:
        analyze(ens, obs)
    except ValueError:
        return
    assert_exact(ens, obs)
