"""Span tracer that times the public callables of the ``eakf`` modules from outside.

The tracer does not touch the package's source. ``install`` rebinds every
traced callable, in every module namespace that holds a reference to it
(``eakf.twin.analyze`` as well as ``eakf.update.analyze``), to one wrapper per
callable; ``uninstall`` puts the originals back. Timed wrappers record a span
(name, start, end, parent, op id, whether it raised). Counted wrappers, used
for the tiny ``_arrays`` helpers, only count calls and errors, so their time
stays in the self time of the caller.

Spans are kept in memory; :meth:`Tracer.summary` turns them into per-name
totals after the run.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

# Modules of the package, in layer order. ``__main__`` is left out: importing
# it runs the command line.
LAYERS = (
    "ensemble",
    "linalg",
    "update",
    "oracle",
    "instances",
    "verify",
    "twin",
    "matio",
    "cli",
    "demo",
    "_arrays",
)
# Layers whose callables are counted, not timed: they are called thousands of
# times per op and each call is far shorter than a span's own cost.
COUNTED_LAYERS = ("_arrays",)
# Dataclasses whose ``__post_init__`` validation is traced as ``layer.Class``.
TRACED_CLASSES = {
    "ensemble": ("ForecastEnsemble", "PerturbationMatrix", "ObservationModel"),
    "linalg": ("SvdFactors", "OrderedEigen"),
    "update": ("AnalysisResult",),
}


def _nbytes(value) -> int:
    """Bytes held by the arrays of a result: an ndarray or a dataclass of them."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(_nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


# Computed counts taken at a traced call: probe name, traced key, and the
# function of (args, result) that gives the count. They depend only on the
# inputs, so they repeat exactly from run to run.
PROBES = (
    ("update.analyze.out_bytes", "update.analyze", lambda args, out: _nbytes(out)),
    ("update.adjustment_matrix.out_bytes", "update.adjustment_matrix", lambda args, out: _nbytes(out)),
    ("update.kalman_gain.out_bytes", "update.kalman_gain", lambda args, out: _nbytes(out)),
    ("linalg.svd_full.rank", "linalg.svd_full", lambda args, out: out.rank),
    ("matio.read_bytes", "matio.read_matrix", lambda args, out: os.path.getsize(args[0])),
    ("matio.write_bytes", "matio.write_matrix", lambda args, out: os.path.getsize(args[0])),
)


def metric_prefix(key: str) -> str:
    """Metric names start with a letter, so ``_arrays.x`` is reported as ``arrays.x``."""
    return key.lstrip("_")


class Target(NamedTuple):
    key: str  # "layer.function" or "layer.Class" for a __post_init__
    layer: str
    owner: object  # module or class the callable is looked up on
    attr: str
    original: Callable
    timed: bool


class Span(NamedTuple):
    op: int
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same list, -1 for a root
    failed: bool


def discover(modules: dict, classes: dict | None = None, counted=()) -> list[Target]:
    """Public functions defined in each module, plus the listed ``__post_init__``s.

    ``modules`` maps a layer name to its module. A class or function that no
    longer exists is simply not found; its metrics are then reported absent.
    """
    targets = []
    for layer, module in modules.items():
        timed = layer not in counted
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets.append(Target(f"{layer}.{name}", layer, module, name, obj, timed))
        for cls_name in (classes or {}).get(layer, ()):
            cls = getattr(module, cls_name, None)
            if isinstance(cls, type) and "__post_init__" in vars(cls):
                targets.append(
                    Target(f"{layer}.{cls_name}", layer, cls, "__post_init__", vars(cls)["__post_init__"], timed)
                )
    return targets


def eakf_targets(package) -> tuple[list[Target], list]:
    """Targets and namespaces for the imported ``eakf`` package and its submodules."""
    modules = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is not None:
            modules[layer] = module
    namespaces = [package, *modules.values()]
    return discover(modules, TRACED_CLASSES, COUNTED_LAYERS), namespaces


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Rebinds the given targets while installed and records what they do."""

    def __init__(self, targets: list[Target], namespaces: list, probes=PROBES):
        self.targets = targets
        self.namespaces = namespaces
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.count_errors: Counter = Counter()
        self.probe_totals: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        keys = {t.key for t in targets}
        self.probes = [p for p in probes if p[1] in keys]
        by_key: dict[str, list] = {}
        for name, key, fn in self.probes:
            by_key.setdefault(key, []).append((name, fn))
        self._wrappers = {}
        for t in targets:
            wrapper = self._timed(t.key, t.original, by_key.get(t.key, ())) if t.timed else self._counted(t.key, t.original)
            self._wrappers[id(t.original)] = (t.original, wrapper)
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, key, fn, probes):
        spans, stack, totals = self.spans, self._stack, self.probe_totals

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(self.op, key, start, perf_counter(), parent, True)
                stack.pop()
                raise
            spans[index] = Span(self.op, key, start, perf_counter(), parent, False)
            stack.pop()
            for name, probe in probes:
                totals[name] += probe(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts, errors = self.counts, self.count_errors

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, op: int) -> None:
        """Rebind every traced callable; spans recorded from now on carry ``op``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op = op
        for target in self.targets:
            if target.attr == "__post_init__":
                self._rebind(target.owner, target.attr, target.original)
        for namespace in self.namespaces:
            for name, obj in list(vars(namespace).items()):
                self._rebind(namespace, name, obj)

    def _rebind(self, owner, attr, obj) -> None:
        entry = self._wrappers.get(id(obj))
        if entry is not None and entry[0] is obj:
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, entry[1])

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def summary(self, ops: int, scales: dict[int, float] | None = None) -> dict[str, float]:
        """Per-op averages over ``ops`` traced ops, keyed by metric name.

        Every discovered callable and layer gets an entry, zero when the
        workload never reached it. ``scales`` maps an op id to the factor
        its self times are multiplied by (1 for ops not in it).
        """
        scales = scales or {}
        totals: Counter = Counter()
        for t in self.targets:
            prefix, layer = metric_prefix(t.key), metric_prefix(t.layer)
            totals[f"{prefix}.calls"] += 0
            totals[f"{layer}.calls"] += 0
            totals[f"{layer}.errors"] += 0
            if t.timed:
                totals[f"{prefix}.self_ms"] += 0
                totals[f"{layer}.self_ms"] += 0
        for name, _key, _fn in self.probes:
            totals[name] += 0
        layer_of = {t.key: metric_prefix(t.layer) for t in self.targets}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            prefix, layer = metric_prefix(span.name), layer_of[span.name]
            self_ms = self_s * 1e3 * scales.get(span.op, 1.0)
            totals[f"{prefix}.calls"] += 1
            totals[f"{prefix}.self_ms"] += self_ms
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.self_ms"] += self_ms
            totals[f"{layer}.errors"] += span.failed
        for key, count in self.counts.items():
            totals[f"{metric_prefix(key)}.calls"] += count
            totals[f"{layer_of[key]}.calls"] += count
        for key, count in self.count_errors.items():
            totals[f"{layer_of[key]}.errors"] += count
        totals.update(self.probe_totals)
        return {name: value / max(ops, 1) for name, value in totals.items()}
