"""Stiff regimes against a 60-digit Kalman posterior.

An explicit observation-space Gram matrix ``Z.T H.T inv(R) H Z`` squares the
conditioning of the analysis, so its small eigenvalues drown in the rounding
of its large ones once the ensemble spread far exceeds the observation error
or ``R`` is ill conditioned. The whitened square-root path must keep the
1e-10 contract there. The reference is the gain form of the posterior
evaluated in 60-digit arithmetic on the exact float64 inputs of the analysis
(the scaled perturbations, ``H`` and the symmetrized ``R``).
"""

import numpy as np
import pytest

from eakf.ensemble import ForecastEnsemble, ObservationModel, perturbation_matrix
from eakf.update import analyze

mpmath = pytest.importorskip("mpmath")

TOL = 1e-10


def exact_analysis(ens, obs):
    """Posterior covariance and mean to 60 digits, rounded to float64."""
    z = perturbation_matrix(ens).matrix
    with mpmath.workdps(60):
        zm, h, r = (mpmath.matrix(a.tolist()) for a in (z, obs.operator, obs.covariance))
        x, y = mpmath.matrix(ens.mean.tolist()), mpmath.matrix(obs.observation.tolist())
        hp = h * zm * zm.T
        gain_t = mpmath.inverse(hp * h.T + r) * hp
        cov = zm * zm.T - hp.T * gain_t
        mean = x + gain_t.T * (y - h * x)
        return np.array(cov.tolist(), dtype=float), np.array(mean.tolist(), dtype=float).ravel()


def assert_exact(ens, obs):
    result = analyze(ens, obs)
    cov, mean = exact_analysis(ens, obs)
    cov_err = np.linalg.norm(result.covariance - cov) / np.linalg.norm(cov)
    mean_err = np.linalg.norm(result.mean - mean) / np.linalg.norm(mean)
    assert cov_err <= TOL, cov_err
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
