"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload has

* ``setup(seed, workdir)``: make the inputs and build what is built once (timed as
  part of ``setup_s``, together with one warm-up op);
* ``prepare_checks()``: compute the references the checks compare against
  (not timed);
* ``op(index)``: one timed call into the public ``eakf`` API;
* ``check(output)``: raise :class:`CheckFailed` unless the output is right,
  otherwise return the worst relative error seen (``0.0`` when the op has no
  covariance to compare).

Files go to the ``workdir`` given to ``setup``, which the caller removes.

The references never go through :mod:`eakf.update`: the mean is the gain
form and the covariance the Woodbury form of the Kalman posterior, both
written out here with ``numpy.linalg.solve``; the covariance is compared with
:func:`eakf.compare_cov`.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import eakf
import eakf.cli

TOLERANCE = 1e-10
# Op seeds of one run are spaced this far apart per benchmark seed so that
# runs with different seeds never share an instance.
SEED_STRIDE = 10**7
CHECK_ROWS = 100


class CheckFailed(AssertionError):
    """The output of an op is wrong."""


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), 1e-300))


def gain_form_mean(members, operator, variances, observation) -> np.ndarray:
    """Kalman analysis mean ``x + Z (HZ)^T (HZ (HZ)^T + R)^-1 (y - H x)``, R diagonal."""
    n, m = members.shape
    mean = members.mean(axis=1)
    z = (members - mean[:, None]) / np.sqrt(m - 1)
    hz = operator @ z
    innovation_cov = hz @ hz.T + np.diag(variances)
    weights = np.linalg.solve(innovation_cov, observation - operator @ mean)
    return mean + z @ (hz.T @ weights)


def woodbury_factors(members, operator, variances) -> tuple[np.ndarray, np.ndarray]:
    """``Z`` and ``M^-1 Z^T``, ``M = I + (HZ)^T R^-1 HZ``, R diagonal.

    Their product is the Kalman posterior covariance ``Z M^-1 Z^T`` (the
    Woodbury form of ``eakf.oracle.posterior_cov_woodbury``). Kept as factors,
    the reference holds no ``n x n`` array.
    """
    n, m = members.shape
    z = (members - members.mean(axis=1, keepdims=True)) / np.sqrt(m - 1)
    hz = operator @ z
    middle = np.eye(m) + hz.T @ (hz / variances[:, None])
    return z, np.linalg.solve(middle, z.T)


def _observed_problem(rng, n: int, m: int, p: int):
    """Members N(0, 1), dense ``H / sqrt(n)``, variances in [0.5, 2], y = H x + noise."""
    members = rng.standard_normal((n, m))
    operator = rng.standard_normal((p, n)) / np.sqrt(n)
    variances = rng.uniform(0.5, 2.0, p)
    observation = operator @ rng.standard_normal(n) + np.sqrt(variances) * rng.standard_normal(p)
    return members, operator, variances, observation


class VerifySweep:
    """``run_verify``, 50 trials over all five categories at the default ranges."""

    name = "verify_sweep"
    trials = 50
    analyses_per_op = trials

    def setup(self, seed: int, workdir: Path) -> None:
        self.base = seed * SEED_STRIDE

    def prepare_checks(self) -> None:
        pass

    def op(self, index: int) -> dict:
        cfg = eakf.VerifyConfig(
            trials=self.trials,
            seed=self.base + index * self.trials,
            include_rank_deficient=True,
            include_partial_obs=True,
            include_zero_h=True,
        )
        return eakf.run_verify(cfg)

    def check(self, report: dict) -> float:
        if not report["passed"] or report["trials_failed"] != 0:
            raise CheckFailed(f"verify: {report['trials_failed']} of {report['trials_total']} trials failed")
        if report["trials_total"] != self.trials:
            raise CheckFailed(f"verify ran {report['trials_total']} trials, expected {self.trials}")
        return max(report["max_rel_err"], report["oracle_chain_max_rel_err"])


class TwinCycle:
    """``run_twin`` with n = p = 200 (H = I, diagonal R), m = 40, 10 steps."""

    name = "twin_cycle"
    steps = 10
    analyses_per_op = steps

    def setup(self, seed: int, workdir: Path) -> None:
        self.base = seed * SEED_STRIDE

    def prepare_checks(self) -> None:
        pass

    def op(self, index: int) -> dict:
        return eakf.run_twin(eakf.TwinConfig(steps=self.steps, n=200, m=40, seed=self.base + index))

    def check(self, report: dict) -> float:
        if not report["all_finite"]:
            raise CheckFailed("twin: non-finite rmse or spread")
        if report["analyses"] != self.steps:
            raise CheckFailed(f"twin ran {report['analyses']} analyses, expected {self.steps}")
        return 0.0


class LargeState:
    """``analyze`` at n = 1000, m = 40, p = 250; the observation model is built once."""

    name = "large_state"
    n, m, p = 1000, 40, 250
    analyses_per_op = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.inputs = _observed_problem(np.random.default_rng(seed), self.n, self.m, self.p)
        members, operator, variances, observation = self.inputs
        self.ensemble = eakf.ForecastEnsemble.from_members(members)
        self.model = eakf.ObservationModel(operator=operator, covariance=variances, observation=observation)

    def prepare_checks(self) -> None:
        self.z, self.solved = woodbury_factors(*self.inputs[:3])
        self.ref_mean = gain_form_mean(*self.inputs)

    def op(self, index: int):
        return eakf.analyze(self.ensemble, self.model)

    def check(self, result) -> float:
        # Compared in row blocks of the reference, so the check holds no
        # n x n array of its own next to the op's, which peak_rss_mb shows.
        cov = result.covariance
        if cov.shape != (self.n, self.n):
            raise CheckFailed(f"large_state: covariance shape {cov.shape}")
        abs_sq = ref_sq = 0.0
        for start in range(0, self.n, CHECK_ROWS):
            rows = slice(start, start + CHECK_ROWS)
            ref = self.z[rows] @ self.solved
            abs_sq += eakf.compare_cov(cov[rows], ref, TOLERANCE).frobenius_abs ** 2
            ref_sq += float(np.sum(ref * ref))
        cov_err = float(np.sqrt(abs_sq / ref_sq))
        mean_err = _rel(result.mean - self.ref_mean, self.ref_mean)
        if not cov_err <= TOLERANCE:
            raise CheckFailed(f"large_state: covariance rel err {cov_err:.3e}")
        if not mean_err <= TOLERANCE:
            raise CheckFailed(f"large_state: mean rel err {mean_err:.3e}")
        return max(cov_err, mean_err)


class AssimilateCsv:
    """``eakf.cli.main(["assimilate", ...])`` on CSV files, n = 500, m = 40, p = 100."""

    name = "assimilate_csv"
    n, m, p = 500, 40, 100
    analyses_per_op = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.inputs = _observed_problem(np.random.default_rng(seed), self.n, self.m, self.p)
        self.argv = ["assimilate"]
        for flag, value in zip(("--ensemble", "--H", "--R", "--y"), self.inputs):
            # savetxt writes a 1-D array as one column, the CLI's vector format.
            path = workdir / f"{flag.strip('-')}.csv"
            np.savetxt(path, value, fmt="%.17g", delimiter=",")
            self.argv += [flag, str(path)]
        self.prefix = workdir / "out"
        self.argv += ["--out-prefix", str(self.prefix)]

    def prepare_checks(self) -> None:
        self.ref_mean = gain_form_mean(*self.inputs)
        self.outputs = [Path(f"{self.prefix}_{suffix}") for suffix in ("report.json", "members.csv", "mean.csv")]
        # The warm-up op's files go, so the first timed op must write its own.
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def op(self, index: int) -> int:
        with redirect_stdout(io.StringIO()):
            return eakf.cli.main(self.argv)

    def check(self, exit_code: int) -> float:
        if exit_code != 0:
            raise CheckFailed(f"assimilate exited with {exit_code}")
        outputs = self.outputs
        try:
            report = json.loads(outputs[0].read_text())
            members = np.loadtxt(outputs[1], delimiter=",", ndmin=2)
            mean = np.loadtxt(outputs[2], delimiter=",", ndmin=1)
        finally:
            # The next op must write its own files, not pass on these.
            for path in outputs:
                path.unlink(missing_ok=True)
        if not report["passed"]:
            raise CheckFailed(f"assimilate report failed: {report['comparison']}")
        if members.shape != (self.n, self.m) or mean.shape != (self.n,):
            raise CheckFailed(f"assimilate wrote members {members.shape} and mean {mean.shape}")
        mean_err = _rel(mean - self.ref_mean, self.ref_mean)
        if not mean_err <= TOLERANCE:
            raise CheckFailed(f"assimilate: mean rel err {mean_err:.3e}")
        return max(report["comparison"]["frobenius_rel"], mean_err)


WORKLOADS = {cls.name: cls for cls in (VerifySweep, TwinCycle, LargeState, AssimilateCsv)}
