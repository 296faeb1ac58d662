"""Sweep benchmark: runs ``nearmimo sweep`` on generated configs and measures it.

Run from the root of a checkout (the directory holding ``src/nearmimo``):

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics from outside fresh child
processes and the accuracy of an untimed desk-scale sweep of the same
methods; ``--trace 1`` runs the same cells in one process with every
public ``nearmimo`` function wrapped and reports the per-layer metrics.
Either way the correctness gate runs, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when the gate fails.  Files go
to ``.bench_out/`` in the checkout.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import tracer as tr
from measure import host_record, run_measured
from workloads import WORKLOADS, thread_env

# name -> (unit, better); the metrics of an untraced run
END_TO_END = {
    "trials_per_s": ("trials/s", "higher"),
    "cpu_s_per_trial": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
    "nmse": ("ratio", "lower"),
}
# figures of the accuracy sweep that carry no bound: printed and stored in
# the result file (rmse_m spreads too much across seeds to bound)
ACCURACY = {"nmse_db": "dB", "rmse_m": "m", "fail_frac": "fraction"}

SETUP_RUNS = 7
RUN_BUDGET_S = 170.0  # a run must end within 180 s
HERE = Path(__file__).resolve().parent


class Run:
    """One workload run: its directory, environment, deadline and findings."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, trace: int):
        self.root = root
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = root / ".bench_out" / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = workload.env(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def config(self, name: str, text: str) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(text)
        return str(path)

    def sweep(self, tag: str, config: str, env: dict | None = None):
        """One measured ``nearmimo sweep`` command in a fresh child."""
        out = self.dir / tag
        out.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "sweep", str(out / "info.json"), "--",
               "sweep", "--config", config, "--out", str(out)]
        m = run_measured(cmd, self.env if env is None else env, self.root, self.timeout(),
                         out / "log.txt")
        if m.code != 0:
            self.problems.append(f"{tag}: sweep exited {m.code} (see {out / 'log.txt'})")
        return m, out

    def timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise SystemExit(f"{self.w.name}: out of time before the run ended")
        return left

    def check(self, tag: str, out: Path, info: dict, cells: int | None = None) -> list[dict]:
        """Gate one sweep's artifacts (``cells`` rows, by default the timed ones)."""
        cells = self.w.cells if cells is None else cells
        try:
            rows = gate.read_csv(out / "sweep_rows.csv")
        except OSError as exc:
            self.problems.append(f"{tag}: {exc}")
            self.attempted += cells
            self.failed += cells
            return []
        self.problems += [f"{tag}: {p}" for p in
                          gate.check_rows(rows, cells, info.get("error_classes", ()))]
        self.attempted += cells
        self.failed += sum(r["status"] != "ok" for r in rows) + max(0, cells - len(rows))
        return rows

    def compare(self, what: str, a: list[dict], b: list[dict]) -> None:
        self.problems += [f"{what}: {p}" for p in gate.compare_rows(a, b)]


def _info(out: Path) -> dict:
    try:
        return json.loads((out / "info.json").read_text())
    except (OSError, ValueError):
        return {}


def _aggregate(out: Path) -> list[dict]:
    return gate.read_csv(out / "sweep_aggregate.csv")


def blas_threads(info: dict) -> dict:
    """Thread count of each OpenBLAS copy (numpy's, scipy's) a sweep child used."""
    return {package: lib["threads"] for package, lib in info.get("blas", {}).items()}


def accuracy_sweep(run: Run, serial_rows: list[dict]):
    """The untimed accuracy sweep: its rows, accuracy figures and wall time.

    On a desk workload its trial-0 cells are the timed sweep's cells, run
    through the process pool with one BLAS thread instead of serially in
    the workload's environment: the rows must agree.
    """
    w = run.w
    config = run.config("accuracy", w.accuracy_config_json(run.seed))
    m, out = run.sweep("accuracy", config, env=thread_env(run.env, pin=True))
    rows = run.check("accuracy", out, _info(out), w.accuracy_cells)
    if w.profile == "desk" and rows:
        run.compare("accuracy sweep (pooled) vs serial",
                    serial_rows, [r for r in rows if r["trial"] == "0"])
    return rows, (gate.accuracy(rows, _aggregate(out)) if rows else {}), m.wall_s


def untraced(run: Run) -> dict:
    """Set-up runs, timed sweeps until ``--seconds`` is spent, the accuracy sweep."""
    w = run.w
    config = run.config("config", w.config_json(run.seed))
    setup_config = run.config("setup", w.config_json(run.seed, trials=0))
    setups = [run.sweep(f"setup-{i}", setup_config)[0] for i in range(SETUP_RUNS)]

    sweeps, rows0, info0 = [], None, {}
    start = time.perf_counter()
    while not sweeps or (time.perf_counter() - start
                         + statistics.median(m.wall_s for m in sweeps) <= run.seconds):
        tag = f"sweep-{len(sweeps)}"
        m, out = run.sweep(tag, config)
        sweeps.append(m)
        info = _info(out)
        rows = run.check(tag, out, info)
        if rows0 is None:
            rows0, info0 = rows, info
        else:  # the same config again: same rows
            run.compare(f"{tag} vs sweep-0", rows0, rows)
            if blas_threads(info) != blas_threads(info0):
                run.problems.append(f"{tag}: BLAS thread counts changed")

    acc_rows, acc, acc_wall = accuracy_sweep(run, rows0)
    checked = rows0 + acc_rows
    metrics = {
        "trials_per_s": statistics.median(w.cells / m.wall_s for m in sweeps),
        "cpu_s_per_trial": statistics.median(m.cpu_s / w.cells for m in sweeps),
        "setup_s": statistics.median(m.wall_s for m in setups),
        "peak_rss_mb": max(m.maxrss_mb for m in sweeps),
        "ok_frac": (sum(r["status"] == "ok" for r in checked) / len(checked)
                    if checked else 0.0),
        "nmse": _json_number(acc.get("nmse", math.nan)),
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()},
        "accuracy": {k: {"value": acc.get(k, math.nan), "unit": u} for k, u in ACCURACY.items()},
        "samples": {"sweeps": len(sweeps), "setups": len(setups),
                    "accuracy_rows": len(acc_rows), "accuracy_wall_s": acc_wall,
                    "sweep_wall_s": [m.wall_s for m in sweeps],
                    "setup_wall_s": [m.wall_s for m in setups]},
        "info": info0,
    }


def traced(run: Run) -> dict:
    """An untraced reference sweep, then the same cells traced in one process."""
    w = run.w
    config = run.config("config", w.config_json(run.seed))
    ref, ref_out = run.sweep("untraced", config)
    info = _info(ref_out)
    ref_rows = run.check("untraced", ref_out, info)
    threads = blas_threads(info)

    pool = None
    if w.pool_workers:  # the same cells through the process pool: rows must agree
        pooled = run.config("pool", w.config_json(run.seed, workers=w.pool_workers))
        pool, pool_out = run.sweep("pool", pooled)
        run.compare("pool vs untraced", ref_rows, run.check("pool", pool_out, info))

    env = dict(run.env)
    if len(set(threads.values())) == 1:  # trace at the thread count the untraced run used
        env["OPENBLAS_NUM_THREADS"] = str(next(iter(threads.values())))
    plan = {
        "config": config,
        "seconds": max(1.0, run.seconds - ref.wall_s - (pool.wall_s if pool else 0.0)),
        "untraced_out": str(run.dir / "inprocess-untraced"),
        "traced_out": str(run.dir / "traced"),
        "spans_out": str(run.dir / "spans.jsonl"),
    }
    plan_path = run.config("plan", json.dumps(plan))
    result_path = run.dir / "trace.json"
    m = run_measured([sys.executable, str(HERE / "child.py"), "trace", plan_path,
                      str(result_path)], env, run.root, run.timeout(), run.dir / "trace-log.txt")
    if m.code != 0:
        run.problems.append(f"traced run exited {m.code} (see {run.dir / 'trace-log.txt'})")
        return {"metrics": {}}
    result = json.loads(result_path.read_text())

    if blas_threads(result["info"]) != threads:
        run.problems.append(f"traced run used BLAS threads {blas_threads(result['info'])}, "
                            f"untraced {threads}")
    run.problems += tr.coverage_problems(w.expected_spans, result["installed"], result["calls"])
    for tag in ("inprocess-untraced", "traced"):
        rows = run.check(tag, run.dir / tag, result["info"])
        run.compare(f"{tag} vs untraced", ref_rows, rows)

    # rows now holds the last traced sweep's rows
    acc = gate.accuracy(rows, _aggregate(run.dir / "traced")) if rows else {}
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    for package in ("numpy", "scipy"):
        metrics[f"harness.blas_threads.{package}"] = (threads.get(package, 0),
                                                      int(package in threads))
    metrics["harness.sweep.cpu_per_wall"] = (ref.cpu_s / ref.wall_s, 1)
    metrics["harness.pool.busy_frac"] = (
        (pool.cpu_s / (w.pool_workers * pool.wall_s), 1) if pool else (0.0, 0))
    metrics["harness.nmse_db"] = (acc.get("nmse_db", math.nan), len(rows))
    metrics["harness.fail_frac"] = (acc.get("fail_frac", math.nan), len(rows))
    metrics["localization.rmse_m"] = (acc.get("rmse_m", math.nan), len(rows))
    metrics["trace.overhead_frac"] = (
        statistics.median(result["traced_s"]) / statistics.median(result["untraced_s"]) - 1.0,
        len(result["traced_s"]))
    missing = set(tr.PER_LAYER) - set(metrics)
    if missing:
        run.problems.append(f"per-layer metrics not computed: {sorted(missing)}")
    return {
        "metrics": {k: {"value": _json_number(metrics[k][0]), "unit": u,
                        "samples": metrics[k][1]}
                    for k, (u, _) in tr.PER_LAYER.items() if k in metrics},
        "self_time_ms": result["self_time_ms"],
        "samples": {"traced_sweeps": len(result["traced_s"]),
                    "traced_sweep_s": result["traced_s"],
                    "inprocess_untraced_sweep_s": result["untraced_s"],
                    "untraced_command_s": ref.wall_s},
        "info": info,
    }


def _json_number(v: float) -> float:
    # NaN is not JSON; a metric with no sample (e.g. rmse_m where no cell localizes) reads 0
    return 0.0 if isinstance(v, float) and not math.isfinite(v) else v


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(root, WORKLOADS[name], seed, seconds, trace)
    body = traced(run) if trace else untraced(run)
    w = run.w
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "cells": {"methods": list(w.methods), "snr_db": list(w.snr_db), "trials": 1,
                  "accuracy_snr_db": list(w.accuracy_snr_db),
                  "accuracy_trials": w.accuracy_trials},
        "thread_vars": w.thread_vars(run.env),
        "host": host_record(root),
        "correct": not run.problems, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        **body,
    }
    (run.dir / "result.json").write_text(json.dumps(result, indent=2, default=str))
    return result


def report(result: dict) -> None:
    """Human-readable lines: metrics with units, environment, gate findings."""
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{samples}")
    for name, m in result.get("accuracy", {}).items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}  (accuracy sweep, unbounded)")
    info = result.get("info", {})
    for package, lib in info.get("blas", {}).items():
        print(f"  blas ({package}): {lib['library']} threads={lib['threads']} {lib['version']}")
    print(f"  env: numpy={info.get('numpy')} scipy={info.get('scipy')} "
          f"thread_vars={result['thread_vars']} host={result['host']}")
    if "self_time_ms" in result:
        print("  largest self time (ms, all traced sweeps): " + ", ".join(
            f"{name} {ms:.1f}" for name, ms in result["self_time_ms"]))
    print(f"  samples: {json.dumps(result.get('samples', {}))}")
    for p in result["problems"][:20]:
        print(f"  GATE FAIL: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nearmimo" / "__init__.py").is_file():
        print(f"error: no src/nearmimo under {root}; run from the root of a "
              f"nearmimo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, n, args.seed, args.seconds, args.trace) for n in names]
    for r in results:
        report(r)
    correct = all(r["correct"] for r in results)
    prefix = len(results) > 1  # --workload all: name each metric by its workload
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
