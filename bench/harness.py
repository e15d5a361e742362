"""Measurement loop of the benchmark: set up, time ops, check them, report metrics.

One process, closed loop, one op at a time. The metric names and units come
from ``BENCHMARK.json`` at the repository root, so the file and the output
cannot disagree. Importing this module puts the repository's ``src`` first
on ``sys.path`` and refuses an ``eakf`` imported from anywhere else.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import eakf  # noqa: E402

if not Path(eakf.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"eakf was imported from {eakf.__file__}, not from {SRC}")

from tracer import Tracer, eakf_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".bench_out"
COLD_START = Path(__file__).resolve().parent / "cold_start.py"
# setup_s is the median of this many cold starts, so one slow start (page
# cache, a neighbour's burst) does not move it.
COLD_STARTS = 5
# At least ten samples must lie beyond the 90th percentile.
MIN_OPS = 100
# The loop stops here even if MIN_OPS ops have not finished, so that a run
# always ends well within its time limit.
HARD_LIMIT_S = 120.0
# Failed ops whose traceback is printed to stderr.
SHOWN_ERRORS = 3


def environment() -> dict:
    """Versions, BLAS build and thread settings, and CPUs available to the run."""
    blas = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{deps.get('name')} {deps.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Calibration:
    """A fixed kernel, sharing no code with eakf, that tracks the machine's speed.

    On a shared virtual machine the CPU's speed drifts by 20-60% over
    minutes, for every process alike, so a whole run can fall into a slow or
    a fast stretch. Timing this kernel just before each op and scaling the
    op's wall time by ``REF_S / kernel time`` takes most of that drift out:
    the scaled time is what the op would take on a machine where the kernel
    takes ``REF_S``. The kernel mixes the kinds of work the workloads do
    (interpreter loops, numpy calls on tiny arrays, LAPACK and BLAS from a
    few hundred rows up to an ``n x n`` product at n = 1000, and a pass over
    8 MB of memory), and no change to eakf can change its time.
    """

    # A round figure near the kernel's time on the machine the workload sizes
    # were chosen on (9.8-11.2 ms, 5th to 95th percentile, at one BLAS thread
    # of a 2-CPU, 2.1 GHz Xeon KVM guest).
    REF_S = 0.010

    def __init__(self):
        rng = np.random.default_rng(0)
        low = rng.standard_normal((6, 6))
        self.spd = low @ low.T + 6.0 * np.eye(6)
        self.rhs = rng.standard_normal(6)
        self.tall = rng.standard_normal((400, 40))
        # The larger arrays are allocated once and written in place, so the
        # kernel adds a constant 16 MB to peak_rss_mb and no peak of its own.
        self.wide = rng.standard_normal((1000, 40))
        self.square = np.empty((1000, 1000))
        self.stream = rng.standard_normal(1_000_000)

    def time(self) -> float:
        """Wall time of one run of the kernel, in seconds."""
        start = perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(1000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(20):
            a = np.asarray(self.spd, dtype=np.float64)
            np.all(np.isfinite(a))
            np.linalg.norm(a - a.T)
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), self.rhs)
            np.linalg.eigh(a)
            np.linalg.svd(a)
        np.linalg.svd(self.tall, full_matrices=False)
        self.tall @ self.tall.T
        left = np.linalg.svd(self.wide, full_matrices=False)[0]
        np.matmul(left, left.T, out=self.square)
        np.multiply(self.stream, 1.0, out=self.stream)
        return perf_counter() - start

    def scale(self) -> float:
        """Factor that takes a wall time measured right after this call to the reference speed."""
        return self.REF_S / self.time()


def load_registry() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Run:
    """What the timed loop saw, one entry per op in each list.

    ``wall`` holds the ops' wall times as read and ``scales`` the calibration
    factors taken just before each op.
    """

    wall: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    failed: int = 0
    analyses: int = 0  # analyses of passed untraced ops
    max_rel_err: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def times(self) -> list[float]:
        """Op times scaled to the reference speed."""
        return [wall * scale for wall, scale in zip(self.wall, self.scales)]

    def untraced(self, times: list[float]) -> list[float]:
        return [t for t, traced in zip(times, self.traced) if not traced]

    def traced_only(self, times: list[float]) -> list[float]:
        return [t for t, traced in zip(times, self.traced) if traced]


def cold_starts(name: str, seed: int, workdir: Path, calibration: Calibration) -> tuple[list[float], list[float]]:
    """Time ``COLD_STARTS`` fresh processes from spawn to their first timed op.

    Each runs ``cold_start.py``: imports, set-up and one warm-up op. Returns
    the wall time of each and the calibration scale taken just before it.
    """
    durations, scales = [], []
    for index in range(COLD_STARTS):
        childdir = workdir / f"cold-{index}"
        childdir.mkdir()
        scales.append(calibration.scale())
        start = clock_gettime(CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(COLD_START), name, str(seed), str(childdir)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        durations.append(float(proc.stdout.splitlines()[-1]) - start)
    return durations, scales


def measure(
    workload,
    seconds: float,
    min_ops: int = MIN_OPS,
    tracer: Tracer | None = None,
    calibration: Calibration | None = None,
) -> Run:
    """Time ops until ``seconds`` have passed and ``min_ops`` ops are done.

    With a tracer, every second op runs traced and the others untraced, so
    both see the same load. The calibration kernel runs just before each op,
    and the op's check just after its timer stops.
    """
    calibration = calibration or Calibration()
    run = Run()
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= max(seconds, HARD_LIMIT_S) or (elapsed >= seconds and index >= min_ops):
            break
        index += 1
        traced = tracer is not None and index % 2 == 0
        # Drop the previous output first so it is not held through this op.
        output = error = None
        scale = calibration.scale()
        if traced:
            tracer.install(op=index)
        try:
            t0 = perf_counter()
            try:
                output = workload.op(index)
            except Exception as exc:
                error = exc
            duration = perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if error is None:
            try:
                run.max_rel_err = max(run.max_rel_err, workload.check(output))
            except Exception as exc:
                error = exc
        run.wall.append(duration)
        run.scales.append(scale)
        run.traced.append(traced)
        if error is not None:
            if run.failed < SHOWN_ERRORS:
                traceback.print_exception(error, file=sys.stderr)
            run.failed += 1
        elif not traced:
            run.analyses += workload.analyses_per_op
    return run


def end_to_end_metrics(run: Run, setup_s: float, times: list[float] | None = None) -> dict[str, float]:
    """The gated metrics, from the scaled op times unless ``times`` are given."""
    times = run.untraced(run.times if times is None else times)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "analyses_per_s": run.analyses / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": 1.0 - run.failed / run.attempted,
    }


def layer_metrics(run: Run, tracer: Tracer) -> dict[str, float]:
    traced, plain = statistics.median(run.traced_only(run.times)), statistics.median(run.untraced(run.times))
    scales = {index + 1: scale for index, scale in enumerate(run.scales)}
    metrics = tracer.summary(ops=len(run.traced_only(run.times)), scales=scales)
    metrics["trace.overhead_ms"] = (traced - plain) * 1e3
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["failed_frac"] = run.failed / run.attempted
    metrics["oracle.max_rel_err"] = run.max_rel_err
    return metrics


def write_trace(path: Path, header: dict, tracer: Tracer, origin: float) -> None:
    """Write the header, then every span with times in microseconds from ``origin``."""
    spans = [
        [s.op, s.name, round((s.start - origin) * 1e6, 3), round((s.end - origin) * 1e6, 3), s.parent, s.failed]
        for s in tracer.spans
    ]
    payload = dict(header, span_fields=["op", "name", "start_us", "end_us", "parent", "failed"], spans=spans)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return the result object and a record of the run.

    The record holds the environment and the end-to-end metrics computed
    from unscaled wall times, with the median calibration kernel time.
    """
    registry = load_registry()
    env = environment()
    workload = WORKLOADS[name]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    calibration = Calibration()
    try:
        durations, scales = cold_starts(name, seed, workdir, calibration)
        workload.setup(seed, workdir)
        workload.op(0)
        workload.prepare_checks()
        tracer = Tracer(*eakf_targets(eakf)) if trace else None
        origin = perf_counter()
        # MIN_OPS is read here, not bound as measure's default, so a test can lower it.
        run = measure(workload, seconds, MIN_OPS, tracer, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(d * s for d, s in zip(durations, scales))
    e2e = end_to_end_metrics(run, setup_s)
    wall_clock = end_to_end_metrics(run, statistics.median(durations), run.wall)
    wall_clock["calibration_ms"] = calibration.REF_S / statistics.median(run.scales) * 1e3
    if trace:
        metrics, wanted = layer_metrics(run, tracer), registry["per_layer"]
    else:
        metrics, wanted = e2e, registry["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"absent (the traced callable no longer exists): {', '.join(absent)}", file=sys.stderr)
    if trace:
        header = {
            "workload": name,
            "seed": seed,
            "env": env,
            "end_to_end": e2e,
            "wall_clock": wall_clock,
            "per_layer": metrics,
            "absent": absent,
        }
        write_trace(OUT_DIR / f"trace-{name}.json", header, tracer, origin)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics},
    }
    return result, {"env": env, "wall_clock": wall_clock}
