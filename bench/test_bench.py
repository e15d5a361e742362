"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
from tracer import Span, Tracer, discover, self_times
from workloads import WORKLOADS, LargeState, woodbury_factors

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach in a traced run.
REACHED = {
    "verify_sweep": ("verify", "instances", "ensemble", "linalg", "update", "oracle", "arrays"),
    "twin_cycle": ("twin", "ensemble", "linalg", "update", "arrays"),
    "large_state": ("ensemble", "linalg", "update", "arrays"),
    "assimilate_csv": ("cli", "matio", "ensemble", "linalg", "update", "oracle", "arrays"),
}


def _run(*args, cwd=ROOT, env=None, argv=None):
    cmd = argv or [sys.executable, str(RUN), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _short_run(*args):
    """``run.py`` with ``args`` in a fresh process that stops after 4 ops."""
    env = dict(os.environ, **{var: "1" for var in harness.THREAD_VARS})
    code = (
        f"import runpy, sys; sys.path.insert(0, {str(RUN.parent)!r}); import harness; harness.MIN_OPS = 4; "
        f"sys.argv = ['run.py', *{list(args)!r}]; runpy.run_path({str(RUN)!r}, run_name='__main__')"
    )
    return _run(argv=[sys.executable, "-c", code], env=env)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_registry_lists_every_workload():
    assert [w["name"] for w in REGISTRY["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    result = _result(_short_run("--workload", workload, "--seed", "3", "--seconds", "0"))
    assert result["attempted"] == 4 and result["failed"] == 0 and result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in REGISTRY["end_to_end"]}
    assert metrics["passed_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    result = _result(_short_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in REGISTRY["per_layer"]}
    assert metrics["failed_frac"]["value"] == 0.0
    for layer in REACHED[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}.errors"]["value"] == 0, layer
        if layer != "arrays":
            assert metrics[f"{layer}.self_ms"]["value"] > 0, layer
    trace = json.loads((harness.OUT_DIR / f"trace-{workload}.json").read_text())
    assert trace["workload"] == workload and trace["spans"]
    assert trace["env"]["threads"] == {var: "1" for var in harness.THREAD_VARS}


def test_self_time_of_synthetic_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, False),
        Span(0, "a", 1.0, 4.0, 0, False),
        Span(0, "b", 3.0, 6.0, 0, False),  # overlaps a: the overlap is covered once
        Span(0, "c", 4.0, 5.0, 2, False),
        Span(0, "d", 9.0, 12.0, 0, False),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 2.0, 1.0, 3.0])


def _fake_package():
    """A module ``fake.core`` with nested calls, a counted helper and a validating class."""
    core = types.ModuleType("fake.core")
    helpers = types.ModuleType("fake.helpers")
    exec("def check(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n", helpers.__dict__)
    core.check = helpers.check
    exec(
        "class Box:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "        self.__post_init__()\n"
        "    def __post_init__(self):\n"
        "        check(self.x)\n"
        "def inner(x):\n"
        "    return Box(check(x)).x\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n",
        core.__dict__,
    )
    alias = types.ModuleType("fake.alias")
    alias.inner = core.inner  # imported by name into another module
    return core, helpers, alias


def test_tracer_records_parents_and_restores_originals():
    core, helpers, alias = _fake_package()
    originals = (core.inner, core.outer, core.check, alias.inner, core.Box.__post_init__)
    targets = discover({"core": core, "helpers": helpers}, {"core": ("Box",)}, counted=("helpers",))
    assert {t.key for t in targets} == {"core.inner", "core.outer", "core.Box", "helpers.check"}
    tracer = Tracer(targets, [core, helpers, alias], probes=())

    tracer.install(op=7)
    try:
        assert core.outer(2) == 4
        assert alias.inner(1) == 1
        with pytest.raises(ValueError):
            core.inner(-1)
    finally:
        tracer.uninstall()
    assert (core.inner, core.outer, core.check, alias.inner, core.Box.__post_init__) == originals

    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [
        ("core.outer", -1, False),
        ("core.inner", 0, False),
        ("core.Box", 1, False),
        ("core.inner", 0, False),
        ("core.Box", 3, False),
        ("core.inner", -1, False),
        ("core.Box", 5, False),
        ("core.inner", -1, True),
    ]
    assert all(s.op == 7 for s in tracer.spans)
    assert tracer.counts["helpers.check"] == 7 and tracer.count_errors["helpers.check"] == 1

    summary = tracer.summary(ops=1)
    assert summary["core.inner.calls"] == 4 and summary["core.Box.calls"] == 3
    assert summary["core.calls"] == 8 and summary["core.errors"] == 1
    assert summary["helpers.calls"] == 7 and summary["helpers.errors"] == 1
    # The self times of a call tree add up to the duration of its root.
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)[:5]) == pytest.approx(root.end - root.start, rel=1e-9)


def test_large_state_reference_matches_the_woodbury_oracle(tmp_path):
    workload = LargeState()
    workload.setup(seed=5, workdir=tmp_path)
    members, operator, variances, _ = workload.inputs
    z, solved = woodbury_factors(members, operator, variances)
    oracle = harness.eakf.posterior_cov_woodbury(
        harness.eakf.PerturbationMatrix(matrix=z, scale_members=workload.m), workload.model
    )
    assert harness.eakf.compare_cov(z @ solved, oracle, 1e-12).passed


def test_wrong_covariance_counts_as_failed(monkeypatch, tmp_path):
    workload = LargeState()
    workload.setup(seed=5, workdir=tmp_path)
    workload.prepare_checks()
    right = workload.op

    def wrong(index):
        result = right(index)
        return dataclasses.replace(result, covariance=result.covariance * (1.0 + 1e-6))

    monkeypatch.setattr(workload, "op", wrong)
    tracer = Tracer(*harness.eakf_targets(harness.eakf))
    run = harness.measure(workload, seconds=0, min_ops=4, tracer=tracer)
    assert run.attempted == 4 and run.failed == 4
    assert harness.end_to_end_metrics(run, setup_s=1.0)["passed_frac"] == 0.0
    assert harness.layer_metrics(run, tracer)["failed_frac"] == 1.0


def test_op_times_are_scaled_by_the_calibration_taken_before_each_op():
    class Instant:
        analyses_per_op = 1

        def op(self, index):
            return index

        def check(self, output):
            return 0.0

    class Fixed:
        def __init__(self):
            self.scales = iter([2.0, 0.5, 4.0, 1.0])

        def scale(self):
            return next(self.scales)

    run = harness.measure(Instant(), seconds=0, min_ops=4, calibration=Fixed())
    assert run.scales == [2.0, 0.5, 4.0, 1.0]
    assert run.times == [w * s for w, s in zip(run.wall, run.scales)]
    metrics = harness.end_to_end_metrics(run, setup_s=1.0)
    assert metrics["op_p50_ms"] == pytest.approx(statistics.median(run.times) * 1e3)
    assert metrics["analyses_per_s"] == pytest.approx(4 / sum(run.times))
    assert harness.Calibration().scale() > 0


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        argv=[sys.executable, "bench/run.py", "--workload", "large_state", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_when_numpy_was_imported_first():
    env = {k: v for k, v in os.environ.items() if k not in harness.THREAD_VARS}
    code = f"import numpy, runpy, sys; sys.argv = ['run.py']; runpy.run_path({str(RUN)!r}, run_name='__main__')"
    proc = _run(argv=[sys.executable, "-c", code], env=env)
    assert proc.returncode != 0 and "imported before" in proc.stderr and proc.stdout == ""
