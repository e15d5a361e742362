"""Reproducible demonstration of the eigenvector-ordering pitfall.

The analysis keeps the leading ``r = rank(Z)`` columns of
``Z @ C @ diag(1/sqrt(1+g))`` and drops the trailing ``m - r``. That is
harmless exactly when those columns of ``C`` lie in the null space of ``Z``,
i.e. when the null-space eigenvectors are ordered last, which
:func:`eakf.linalg.ordered_eig_psd` guarantees. A symmetric eigensolver
that returns its eigenvalues in ascending order (``numpy.linalg.eigh``,
LAPACK ``dsyevd``) puts the zero eigenvalues of the null space first
instead, so the cut drops live columns and the analysis ensemble loses
variance it should have kept. :func:`misordered_analysis` reproduces that
failure on purpose: from the factors :func:`eakf.update.analyze` builds, it
takes the columns of ``C`` (and the eigenvalues with them) in ascending order
and cuts there.

:func:`run_pitfall_demo` runs the hand-checkable scalar instance and one
random rank-deficient instance both ways, from one factorization per
instance, and reports the analysis covariance trace of each against the
exact Kalman posterior trace, all read off
:func:`eakf.oracle.compare_factored` without an ``(n, n)`` matrix. The
misordered run must lose trace (under-dispersion) while the correct run
must match the oracle; anything else is a failure of the demonstration.
"""

from __future__ import annotations

import numpy as np

from .ensemble import ForecastEnsemble, ObservationModel, perturbation_matrix
from .instances import RANK_DEFICIENT, random_instance
from .linalg import OrderedEigen, SvdFactors
from .oracle import TOLERANCE, compare_factored
from .update import AnalysisResult, _analysis_factors, _transformed, adjustment_matrix

SCHEMA_VERSION = 1


def scalar_instance() -> tuple[ForecastEnsemble, ObservationModel]:
    """Members [1, -1], H = [1], R = [2], y = 1: oracle posterior trace is 1."""
    ensemble = ForecastEnsemble(np.array([[1.0, -1.0]]))
    model = ObservationModel(
        operator=np.array([[1.0]]),
        covariance=np.array([[2.0]]),
        observation=np.array([1.0]),
    )
    return ensemble, model


def _misordered_transform(svd: SvdFactors, eig: OrderedEigen) -> np.ndarray:
    """:func:`eakf.update.adjustment_matrix` with ``C`` in ascending-eigenvalue order."""
    r = svd.rank
    # ascending values cannot go through an OrderedEigen, so the columns
    # are indexed here
    vectors, values = eig.vectors[:, ::-1][:, :r], eig.values[::-1][:r]
    return (vectors / np.sqrt(1.0 + values)) @ svd.row_space_basis().T


def misordered_analysis(ens: ForecastEnsemble, obs: ObservationModel) -> AnalysisResult:
    """The analysis with the null-space eigenvectors misordered: the pitfall.

    Reads the factors and the Kalman mean that :func:`eakf.update.analyze`
    builds, reverses the columns of ``C`` into ascending-eigenvalue order, so
    that the ``m - r`` null vectors lead, and keeps the leading
    ``r = rank(Z)`` of them. For ``r >= 1`` that cuts at least one live
    column; at ``r = 0`` the result is the correct analysis. The mean is the
    exact Kalman mean; only the perturbations, and with them the covariance
    ``Za @ Za.T``, are wrong.
    """
    return _transformed(_analysis_factors(ens, obs), _misordered_transform)


def run_pitfall_demo(seed: int) -> dict:
    """Return the JSON-ready demo report (no timestamp)."""
    instances = [("scalar", *scalar_instance())]
    random_inst = random_instance(seed, RANK_DEFICIENT)
    instances.append(
        (
            f"rank_deficient(n={random_inst.ensemble.state_dim}, "
            f"m={random_inst.ensemble.size}, p={random_inst.observation.obs_dim})",
            random_inst.ensemble,
            random_inst.observation,
        )
    )

    rows = []
    for name, ensemble, model in instances:
        # one factorization serves both cuts
        factors = _analysis_factors(ensemble, model)
        pert = perturbation_matrix(ensemble)
        correct, misordered = (
            compare_factored(_transformed(factors, transform).perturbations, pert, model)
            for transform in (adjustment_matrix, _misordered_transform)
        )
        deficit = correct.trace_rhs - misordered.trace_lhs
        rows.append(
            {
                "name": name,
                "oracle_trace": correct.trace_rhs,
                "correct_trace": correct.trace_lhs,
                "misordered_trace": misordered.trace_lhs,
                "deficit": deficit,
                "correct_passed": correct.passed,
                "passed": correct.passed and deficit > 0.0,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "command": "demo-pitfall",
        "seed": seed,
        "tolerance": TOLERANCE,
        "instances": rows,
        "passed": all(row["passed"] for row in rows),
    }


def format_pitfall_report(report: dict) -> str:
    lines = [
        f"{'instance':<40} {'oracle':>12} {'correct':>12} {'misordered':>12} {'deficit':>12}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['name']:<40} {row['oracle_trace']:>12.6g} {row['correct_trace']:>12.6g} "
            f"{row['misordered_trace']:>12.6g} {row['deficit']:>12.6g}"
        )
    verdict = "reproduced" if report["passed"] else "NOT reproduced"
    lines.append(f"under-dispersion pitfall {verdict} (seed={report['seed']})")
    return "\n".join(lines)
