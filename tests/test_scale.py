"""Exact scale equivariance of the analysis across float64's range.

Scaling the members and ``y`` by ``2**k`` and ``R`` by ``4**k`` is exact in
binary floating point, and the exact analysis then scales by ``2**k``.
Householder QR, the SVD, whitening, and weights read from the scale-free
singular values all commute with that scaling, so the analysis at ``2**k``
is ``2**k`` times the analysis at unit scale. This needs no reference
posterior. It holds bit for bit over most of the range; from about
``k = 460`` the results differ by rounding (within 2.1e-14 when measured),
where LAPACK's SVD most likely rescales its input.
"""

import numpy as np
import pytest

from eakf.ensemble import ForecastEnsemble, ObservationModel
from eakf.instances import ALL_CATEGORIES, random_instance
from eakf.update import analyze

# k at which the scaled analysis keeps the bits of the scaled unit analysis
BIT_IDENTICAL = [-440, -300, 0, 300, 400]
# k at which it agrees to rounding only
ROUNDED = [460, 500, 508, 510]


def _problems():
    """(members, H, R, y) of every instance the property is checked on.

    Seeds 0-19 of every category with a matrix ``R``; those whose ``R`` is
    diagonal once more with ``R`` as variances; and ``H = np.arange(n)``
    with one variance, the whole-state route, at three twin sizes.
    """
    problems = []
    for category in ALL_CATEGORIES:
        for seed in range(20):
            inst = random_instance(seed, category)
            obs = inst.observation
            given = inst.ensemble.members, obs.operator, obs.covariance, obs.observation
            problems.append(given)
            variances = np.diag(obs.covariance)
            if np.array_equal(obs.covariance, np.diag(variances)):
                problems.append((*given[:2], variances.copy(), given[3]))
    for n, m in [(3, 12), (20, 21), (200, 40)]:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            members, variance = rng.standard_normal((n, m)), rng.uniform(0.1, 10.0)
            problems.append((members, np.arange(n), np.full(n, variance), rng.standard_normal(n)))
    return problems


def _analysis(members, operator, covariance, y, k):
    """The analysis of the problem scaled by ``2**k``, or None if a scaled input overflows."""
    with np.errstate(over="ignore"):
        members, covariance, y = np.ldexp(members, k), np.ldexp(covariance, 2 * k), np.ldexp(y, k)
    if not all(np.isfinite(a).all() for a in (members, covariance, y)):
        return None
    return analyze(ForecastEnsemble(members), ObservationModel(operator, covariance, y))


@pytest.fixture(scope="module")
def unit_analyses():
    problems = _problems()
    return [(problem, _analysis(*problem, 0)) for problem in problems]


def test_the_problems_cover_every_form(unit_analyses):
    # 100 instances with a matrix R, the diagonal ones as variances too, 30 on the whole-state route
    assert len(unit_analyses) == 100 + 52 + 30


@pytest.mark.parametrize("k", BIT_IDENTICAL + ROUNDED)
def test_the_analysis_scales_with_its_inputs(unit_analyses, k):
    analysed = 0
    for problem, unit in unit_analyses:
        scaled = _analysis(*problem, k)
        if scaled is None:
            continue
        analysed += 1
        for got, base in ((scaled.mean, unit.mean), (scaled.perturbations, unit.perturbations)):
            if k in BIT_IDENTICAL:
                expected = np.ldexp(base, k)
                assert got.tobytes() == expected.tobytes()
            else:
                # judged at unit scale, where the norms cannot overflow
                error = np.linalg.norm(np.ldexp(got, -k) - base)
                assert error <= 1e-12 * np.linalg.norm(base)
    # only the largest k makes a scaled R overflow, and only some of them
    assert analysed == len(unit_analyses) or (k == ROUNDED[-1] and analysed >= len(unit_analyses) // 2)
