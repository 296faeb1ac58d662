"""In-memory span tracer and the per-layer metrics computed from its spans.

The tracer wraps the public functions of the ``nearmimo`` modules from
outside the program: each wrapper records a span (name, start, end,
parent span, trial id) and, for a few functions, counters read from the
value the function returned.  A wrapped function is rebound in every
``nearmimo`` module that holds a reference to it, because ``from .x
import f`` gives each importing module its own binding (for example
``harness.stage1`` next to ``pipeline.stage1``).

This module imports neither numpy nor nearmimo, so the metric
arithmetic can be tested on hand-made spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from dataclasses import dataclass, field

# modules whose public functions are wrapped; each is one layer
LAYERS = ("harness", "channel", "sensing", "dictionaries", "pipeline",
          "solvers", "doa", "localization", "geometry")

# class methods wrapped under a span name of their own
METHOD_SPANS = {
    ("harness", "SweepContext", "__init__"): "harness.SweepContext",
    ("harness", "SweepContext", "full_array_dictionary"): "harness.lazy_assets",
    ("harness", "SweepContext", "spherical_dictionary"): "harness.lazy_assets",
    ("harness", "ResultTable", "to_csv"): "harness.write_artifacts",
    ("harness", "ResultTable", "aggregates_to_csv"): "harness.write_artifacts",
    ("harness", "ResultTable", "to_json"): "harness.write_artifacts",
}

TRIAL_SPAN = "harness.run_trial"
SWEEP_SPAN = "harness.run_sweep"
MISS_M = 1.0  # a located trial with a larger error is a gross miss


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    trial: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solution_attrs(sol, problem) -> dict:
    return {
        "iterations": int(sol.iterations),
        "converged": bool(sol.converged),
        "support": int(len(sol.support)),
        "atoms": int(problem.shape[1]),
    }


def _array_bytes(obj) -> int:
    """Bytes of the arrays an object holds in its fields, from their sizes."""
    values = obj.__dict__.values() if hasattr(obj, "__dict__") else obj
    total = 0
    for v in values:
        if hasattr(v, "nbytes") and hasattr(v, "dtype"):
            total += int(v.nbytes)
        elif isinstance(v, (list, tuple)):
            total += _array_bytes(v)
    return total


# counters read from a wrapped call: span name -> f(args, kwargs, result)
ATTRS = {
    "solvers.omp": lambda a, k, r: _solution_attrs(r, a[0] if a else k["problem"]),
    "solvers.sbl_em": lambda a, k, r: _solution_attrs(r[0], a[0] if a else k["problem"]),
    "dictionaries.build_location": lambda a, k, r: {"atoms": int(r.matrix.shape[1])},
    "pipeline.stage2": lambda a, k, r: {"dropped": sum(d is None for d in r[1])},
    "localization.ls_intersect": lambda a, k, r: {"condition": float(r.condition)},
    "harness.run_trial": lambda a, k, r: {
        "loc_error": float(r.loc_error_m), "status": r.status},
    "harness.SweepContext": lambda a, k, r: {
        "combiner_bytes": _array_bytes(a[0].combiner),
        "tile_dictionary_bytes": _array_bytes(a[0].tile_dictionary)},
    "harness.lazy_assets": lambda a, k, r: {"id": id(r), "bytes": _array_bytes(r)},
}


class Tracer:
    """Records spans of wrapped calls; single-threaded, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def wrap(self, name: str, fn):
        tracer = self
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked pool worker: not traced
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            trial = index if name == TRIAL_SPAN else (
                None if parent is None else tracer.spans[parent].trial)
            span = Span(name, 0.0, parent=parent, trial=trial)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict) -> list[str]:
        """Wrap the public functions of ``modules`` (short name -> module).

        Returns the span names installed.  Every module in ``modules``
        that holds a wrapped function is rebound to the wrapper.
        """
        names = set()
        wrapped = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                names.add(f"{layer}.{attr}")
                wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        for (layer, cls_name, meth), span_name in METHOD_SPANS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:  # renamed or removed: the coverage check reports it
                continue
            names.add(span_name)
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(span_name, original))
        return sorted(names)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.name] = counts.get(s.name, 0) + 1
        return counts


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# name -> (unit, better); the order is the report order
PER_LAYER = {
    "harness.run_trial.ms_p50": ("ms", "lower"),
    "harness.run_trial.ms_p90": ("ms", "lower"),
    "harness.SweepContext.ms": ("ms", "lower"),
    "harness.lazy_assets.ms": ("ms", "lower"),
    "harness.run_sweep.ms": ("ms", "lower"),
    "harness.write_artifacts.ms": ("ms", "lower"),
    "harness.sweep.cpu_per_wall": ("ratio", "lower"),
    "harness.pool.busy_frac": ("fraction", "higher"),
    "harness.blas_threads.numpy": ("count", "lower"),
    "harness.blas_threads.scipy": ("count", "lower"),
    "harness.nmse_db": ("dB", "lower"),
    "harness.fail_frac": ("fraction", "lower"),
    "channel.synthesize.ms": ("ms", "lower"),
    "sensing.design_combiner.ms": ("ms", "lower"),
    "sensing.random_combiner.ms": ("ms", "lower"),
    "sensing.combiner.mb": ("MB", "lower"),
    "dictionaries.build_location.ms": ("ms", "lower"),
    "dictionaries.build_location.atoms": ("count", "lower"),
    "dictionaries.build_angular.ms": ("ms", "lower"),
    "dictionaries.build_spherical_baseline.ms": ("ms", "lower"),
    "dictionaries.held.mb": ("MB", "lower"),
    "pipeline.simulate_reception.ms": ("ms", "lower"),
    "pipeline.stage1.ms": ("ms", "lower"),
    "pipeline.stage1.self_ms": ("ms", "lower"),
    "pipeline.stage2.ms": ("ms", "lower"),
    "pipeline.stage2.dropped_tiles": ("count", "lower"),
    "pipeline.stage3.ms": ("ms", "lower"),
    "pipeline.stage3.self_ms": ("ms", "lower"),
    "pipeline.location_operator.ms": ("ms", "lower"),
    "pipeline.baseline_antenna_wise.ms": ("ms", "lower"),
    "pipeline.baseline_antenna_wise.self_ms": ("ms", "lower"),
    "pipeline.baseline_eigen_dictionary.ms": ("ms", "lower"),
    "solvers.omp.calls": ("count", "lower"),
    "solvers.omp.ms": ("ms", "lower"),
    "solvers.omp.atoms_mean": ("count", "lower"),
    "solvers.sbl_em.calls": ("count", "lower"),
    "solvers.sbl_em.ms": ("ms", "lower"),
    "solvers.sbl_em.iters_mean": ("count", "lower"),
    "solvers.sbl_em.converged_frac": ("fraction", "higher"),
    "solvers.sbl_em.support_frac": ("fraction", "lower"),
    "doa.music_1d.calls": ("count", "lower"),
    "doa.music_1d.ms": ("ms", "lower"),
    "doa.extract_axis_factors.ms": ("ms", "lower"),
    "localization.ls_intersect.ms": ("ms", "lower"),
    "localization.condition_p50": ("ratio", "lower"),
    "localization.miss_frac": ("fraction", "lower"),
    "localization.rmse_m": ("m", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def coverage_problems(expected, installed, calls: dict) -> list[str]:
    """Expected spans that have no wrapper or whose wrapper saw no call."""
    problems = []
    for name in expected:
        if name not in installed:
            problems.append(f"tracer: no wrapper for {name}")
        elif calls.get(name, 0) == 0:
            problems.append(f"tracer: {name} recorded no calls")
    return problems


def self_time_ranking(spans: list[Span], top: int = 5) -> list[tuple[str, float]]:
    """Span names by total self time, largest first, in milliseconds."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + 1e3 * t
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from spans: name -> (value, sample count).

    ``.ms`` and ``.self_ms`` are milliseconds per trial (all calls of the
    span divided by the number of traced trials) and ``.calls`` is calls
    per trial; the sample count is the number of calls.  The harness
    spans that run once per sweep (``SweepContext``, ``lazy_assets``,
    ``run_sweep``, ``write_artifacts``) are milliseconds per sweep.
    Counters read from return values are means over calls.  Metrics
    that need the sweep's artifacts or the environment are added by the
    caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    trials = by_name.get(TRIAL_SPAN, [])
    sweeps = by_name.get(SWEEP_SPAN, [])
    out: dict[str, tuple[float, int]] = {}

    def per(name, values, denom):
        out[name] = (sum(values) / denom if denom else 0.0, len(values))

    def spans_of(span):
        return [spans[i] for i in by_name.get(span, [])]

    def attr_mean(name, span, key, scale=lambda s, v: v):
        vals = [scale(s, s.attrs[key]) for s in spans_of(span) if key in s.attrs]
        out[name] = (sum(vals) / len(vals) if vals else 0.0, len(vals))

    trial_ms = [1e3 * spans[i].duration for i in trials]
    out["harness.run_trial.ms_p50"] = (percentile(trial_ms, 50), len(trial_ms))
    out["harness.run_trial.ms_p90"] = (percentile(trial_ms, 90), len(trial_ms))
    for span in ("harness.SweepContext", "harness.lazy_assets",
                 "harness.run_sweep", "harness.write_artifacts"):
        per(f"{span}.ms", [1e3 * s.duration for s in spans_of(span)], len(sweeps))
    for span in ("channel.synthesize", "sensing.design_combiner",
                 "sensing.random_combiner", "dictionaries.build_location",
                 "dictionaries.build_angular", "dictionaries.build_spherical_baseline",
                 "pipeline.simulate_reception", "pipeline.stage1", "pipeline.stage2",
                 "pipeline.stage3", "pipeline.location_operator",
                 "pipeline.baseline_antenna_wise", "pipeline.baseline_eigen_dictionary",
                 "solvers.omp", "solvers.sbl_em", "doa.music_1d",
                 "doa.extract_axis_factors", "localization.ls_intersect"):
        per(f"{span}.ms", [1e3 * s.duration for s in spans_of(span)], len(trials))
    for span in ("pipeline.stage1", "pipeline.stage3", "pipeline.baseline_antenna_wise"):
        per(f"{span}.self_ms", [1e3 * selfs[i] for i in by_name.get(span, [])], len(trials))
    for span in ("solvers.omp", "solvers.sbl_em", "doa.music_1d"):
        calls = len(by_name.get(span, []))
        out[f"{span}.calls"] = (calls / len(trials) if trials else 0.0, calls)
    ctx_spans = spans_of("harness.SweepContext")
    out["sensing.combiner.mb"] = (
        ctx_spans[-1].attrs["combiner_bytes"] / 1e6 if ctx_spans else 0.0, len(ctx_spans))
    held = {s.attrs["id"]: s.attrs["bytes"] for s in spans_of("harness.lazy_assets")
            if "id" in s.attrs and (not ctx_spans or s.start > ctx_spans[-1].start)}
    tile = ctx_spans[-1].attrs["tile_dictionary_bytes"] if ctx_spans else 0
    out["dictionaries.held.mb"] = ((tile + sum(held.values())) / 1e6,
                                   len(held) + bool(ctx_spans))
    attr_mean("dictionaries.build_location.atoms", "dictionaries.build_location", "atoms")
    attr_mean("pipeline.stage2.dropped_tiles", "pipeline.stage2", "dropped")
    attr_mean("solvers.omp.atoms_mean", "solvers.omp", "support")
    attr_mean("solvers.sbl_em.iters_mean", "solvers.sbl_em", "iterations")
    attr_mean("solvers.sbl_em.converged_frac", "solvers.sbl_em", "converged",
              lambda s, v: float(v))
    attr_mean("solvers.sbl_em.support_frac", "solvers.sbl_em", "support",
              lambda s, v: v / s.attrs["atoms"])
    conds = [s.attrs["condition"] for s in spans_of("localization.ls_intersect")
             if "condition" in s.attrs]
    out["localization.condition_p50"] = (percentile(conds, 50), len(conds))
    errors = [s.attrs["loc_error"] for s in spans_of(TRIAL_SPAN)
              if math.isfinite(s.attrs.get("loc_error", math.nan))]
    out["localization.miss_frac"] = (
        sum(e > MISS_M for e in errors) / len(errors) if errors else 0.0, len(errors))
    return out
