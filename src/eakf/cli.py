"""Command-line interface: verify, demo-pitfall, assimilate, twin.

Exit codes: 0 pass, 1 verification/demonstration failure, 2 usage, input or
output error. ``verify``, ``demo-pitfall`` and ``assimilate`` judge every
analysis covariance at the fixed 1e-10 contract of
:data:`eakf.oracle.TOLERANCE`: ``verify`` against the dense direct
posterior, ``demo-pitfall`` and ``assimilate`` through
:func:`eakf.oracle.compare_factored`, which forms no ``(n, n)`` matrix. Each
judge reads the analysis' own ``Z``, so every instance forms ``Z`` once. All
commands are deterministic given their seed; reports carry a ``timestamp``
field that callers should ignore when comparing runs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .demo import _misordered_transform, format_pitfall_report, run_pitfall_demo
from .ensemble import ForecastEnsemble, ObservationModel
from .matio import MatrixFileError, read_matrix, read_vector, write_matrix, write_vector
from .oracle import compare_factored
from .twin import TwinConfig, run_twin, series_csv_lines
from .update import _analyses, adjustment_matrix
from .verify import VerifyConfig, run_verify


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _dump_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_directories(*paths) -> None:
    """Raise, before any work, the error that writing to a directory, or into a missing one, would."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eakf",
        description="Ensemble adjustment Kalman filter tools with an exact dense-KF oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="random-instance consistency sweep against the oracle")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", type=str, default=None, help="write the JSON report here")
    ver.set_defaults(handler=_cmd_verify)

    demo = sub.add_parser("demo-pitfall", help="reproduce the misordering under-dispersion pitfall")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--json", type=str, default=None, help="write the JSON report here")
    demo.set_defaults(handler=_cmd_demo)

    asm = sub.add_parser("assimilate", help="single analysis step from CSV matrix files")
    asm.add_argument("--ensemble", required=True, help="n x m member matrix (one member per column)")
    asm.add_argument("--H", required=True, help="p x n observation operator")
    asm.add_argument("--R", required=True, help="p x p covariance, or p x 1 variance column")
    asm.add_argument("--y", required=True, help="p x 1 observation column")
    asm.add_argument("--mode", choices=["correct", "misordered"], default="correct")
    asm.add_argument("--out-prefix", required=True)
    asm.set_defaults(handler=_cmd_assimilate)

    twin = sub.add_parser("twin", help="cycled linear-Gaussian twin experiment")
    twin.add_argument("--steps", type=int, default=500)
    twin.add_argument("--n", type=int, default=3)
    twin.add_argument("--m", type=int, default=12)
    twin.add_argument("--seed", type=int, default=0)
    twin.add_argument("--out", type=str, default=None, help="write the JSON metrics here")
    twin.add_argument("--series", type=str, default=None, help="write the step series CSV here")
    twin.set_defaults(handler=_cmd_twin)

    return parser


def _cmd_verify(args) -> int:
    _require_directories(args.out)
    report = run_verify(VerifyConfig(trials=args.trials, seed=args.seed))
    report["timestamp"] = _timestamp()
    if args.out:
        _dump_json(args.out, report)
        print(
            f"verify: {report['trials_total']} trials, {report['trials_failed']} failed, "
            f"max_rel_err={report['max_rel_err']:.3e} -> {args.out}"
        )
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def _cmd_demo(args) -> int:
    _require_directories(args.json)
    report = run_pitfall_demo(args.seed)
    report["timestamp"] = _timestamp()
    print(format_pitfall_report(report))
    if args.json:
        _dump_json(args.json, report)
    return 0 if report["passed"] else 1


def _cmd_assimilate(args) -> int:
    prefix = args.out_prefix
    _require_directories(f"{prefix}_members.csv", f"{prefix}_mean.csv", f"{prefix}_report.json")
    members = read_matrix(args.ensemble)
    n, m = members.shape
    if m < 2:
        raise MatrixFileError(
            f"{args.ensemble}: expected at least 2 member columns (n x m with m >= 2), got {m}"
        )
    operator = read_matrix(args.H)
    p = operator.shape[0]
    if operator.shape[1] != n:
        raise MatrixFileError(
            f"{args.H}: observation operator must be p x {n} to match the ensemble, "
            f"got {operator.shape[0]} x {operator.shape[1]}"
        )
    r_raw = read_matrix(args.R)
    if r_raw.shape == (p, p):
        covariance = r_raw
    elif r_raw.shape == (p, 1):
        covariance = r_raw[:, 0]
    else:
        # at p = 1 the covariance and the variance column are one shape
        shapes = f"{p} x {p} covariance or a {p} x 1 variance column" if p > 1 else "1 x 1 variance"
        raise MatrixFileError(f"{args.R}: expected a {shapes}, got {r_raw.shape[0]} x {r_raw.shape[1]}")
    observation = read_vector(args.y)
    if observation.shape != (p,):
        raise MatrixFileError(
            f"{args.y}: expected a {p} x 1 observation column, got {observation.shape[0]} rows"
        )

    ensemble = ForecastEnsemble(members)
    try:
        model = ObservationModel(operator=operator, covariance=covariance, observation=observation)
    except (ValueError, np.linalg.LinAlgError) as exc:
        # the shapes are checked above, so only R can be refused here
        raise MatrixFileError(f"{args.R}: {exc}") from None
    transform = _misordered_transform if args.mode == "misordered" else adjustment_matrix
    pert, result = _analyses(ensemble, model, transform)
    comparison = compare_factored(result.perturbations, pert, model)

    write_matrix(f"{prefix}_members.csv", result.members())
    write_vector(f"{prefix}_mean.csv", result.mean)
    report = {
        "schema": 2,
        "command": "assimilate",
        "mode": args.mode,
        "n": n,
        "m": m,
        "p": p,
        "comparison": comparison.to_dict(),
        "passed": comparison.passed,
        "timestamp": _timestamp(),
    }
    _dump_json(f"{prefix}_report.json", report)
    status = "pass" if comparison.passed else "FAIL"
    print(
        f"assimilate[{args.mode}]: rel_err={comparison.frobenius_rel:.3e} "
        f"trace_deficit={comparison.trace_deficit:.3e} ({status}) -> {prefix}_*.csv/.json"
    )
    return 0 if comparison.passed else 1


def _cmd_twin(args) -> int:
    _require_directories(args.out, args.series)
    report = run_twin(TwinConfig(steps=args.steps, n=args.n, m=args.m, seed=args.seed))
    if args.series:
        Path(args.series).write_text("\n".join(series_csv_lines(report)) + "\n")
    report.pop("series")
    report["timestamp"] = _timestamp()
    if args.out:
        _dump_json(args.out, report)
    print(
        f"twin: {report['analyses']} analyses, rmse={report['rmse_mean_last_half']:.4f}, "
        f"spread={report['spread_mean_last_half']:.4f}, ratio={report['spread_rmse_ratio']:.3f}"
    )
    return 0 if report["all_finite"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    # MatrixFileError is a ValueError; OSError covers unwritable output paths
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
