"""Tests of the benchmark's own logic.  Run: python -m pytest benchmarks"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

import child
import gate
import run
import tracer as tr
from measure import run_measured
from workloads import ACCURACY_WORKERS, WORKLOADS, thread_env

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=None, **attrs):
    return tr.Span(name, start, end, parent=parent, attrs=attrs)


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),  # nested: covered by a, not by root
        _span("b", 3.0, 5.0, parent=0),  # overlaps a: union 1..5
        _span("c", 9.0, 12.0, parent=0),  # runs past the parent: clipped to 9..10
    ]
    selfs = tr.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)


def test_covered_length_merges_and_clips():
    assert tr.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tr.covered_length([(0, 2), (0.5, 1)], 1, 10) == 1
    assert tr.covered_length([], 0, 1) == 0


def test_percentile_interpolates():
    assert tr.percentile([], 50) == 0.0
    assert tr.percentile([3.0], 90) == 3.0
    assert tr.percentile([1, 2, 3, 4], 50) == 2.5
    assert tr.percentile(range(11), 90) == pytest.approx(9.0)


def test_layer_metrics_percentiles_and_sample_counts():
    spans = []
    for i in range(10):  # ten trials of 1..10 ms, each with one 0.5 ms omp call
        t = 100.0 * i
        spans.append(tr.Span("harness.run_trial", t, t + (i + 1) * 1e-3,
                             attrs={"loc_error": 2.0 if i == 0 else 0.1, "status": "ok"}))
        spans.append(tr.Span("solvers.omp", t, t + 0.5e-3, parent=len(spans) - 1,
                             attrs={"iterations": 3, "converged": True,
                                    "support": 3, "atoms": 12}))
    m = tr.layer_metrics(spans)
    assert m["harness.run_trial.ms_p50"] == (pytest.approx(5.5), 10)
    assert m["harness.run_trial.ms_p90"] == (pytest.approx(9.1), 10)
    assert m["solvers.omp.ms"] == (pytest.approx(0.5), 10)
    assert m["solvers.omp.calls"] == (1.0, 10)
    assert m["solvers.omp.atoms_mean"] == (3.0, 10)
    assert m["solvers.sbl_em.calls"] == (0.0, 0)
    assert m["localization.miss_frac"] == (pytest.approx(0.1), 10)


def test_sbl_counters_come_from_returned_solutions():
    spans = [tr.Span("harness.run_trial", 0.0, 1.0),
             tr.Span("solvers.sbl_em", 0.1, 0.9, parent=0,
                     attrs={"iterations": 200, "converged": False,
                            "support": 363, "atoms": 363})]
    m = tr.layer_metrics(spans)
    assert m["solvers.sbl_em.iters_mean"] == (200.0, 1)
    assert m["solvers.sbl_em.converged_frac"] == (0.0, 1)
    assert m["solvers.sbl_em.support_frac"] == (1.0, 1)


ROWS = """method,snr_db,trial,seed,nmse_db,rmse_m,t_stage1_ms,t_stage2_ms,t_stage3_ms,status
proposed-sbl,10,0,11,-20,0.5,0,0,0,ok
proposed-sbl,10,1,12,nan,nan,0,0,0,StageFailure
stage1-only,10,0,13,-5,nan,0,0,0,ok
stage1-only,10,1,14,-7,nan,0,0,0,ok
"""
AGGREGATE = """method,snr_db,n_trials,n_ok,nmse_mean,nmse_mean_db,nmse_std,rmse_m
proposed-sbl,10,2,1,0.01,-20,0,0.5
stage1-only,10,2,2,0.25,-6,0.05,nan
"""


def _csvs(tmp_path):
    (tmp_path / "rows.csv").write_text(ROWS)
    (tmp_path / "agg.csv").write_text(AGGREGATE)
    return gate.read_csv(tmp_path / "rows.csv"), gate.read_csv(tmp_path / "agg.csv")


def test_accuracy_from_hand_written_artifacts(tmp_path):
    rows, agg = _csvs(tmp_path)
    acc = gate.accuracy(rows, agg)
    # geometric mean of the ok rows' NMSE: 10 ** (mean(-20, -5, -7) / 10)
    assert acc["nmse"] == pytest.approx(10 ** (-32 / 30))
    assert acc["nmse_db"] == pytest.approx(-13.0)
    assert acc["rmse_m"] == pytest.approx(0.5)  # only the cell that localizes
    assert acc["fail_frac"] == pytest.approx(0.25)
    assert acc["ok_frac"] == pytest.approx(0.75)


def test_accuracy_without_localizing_cells_is_nan(tmp_path):
    rows, agg = _csvs(tmp_path)
    assert math.isnan(gate.accuracy(rows, agg[1:])["rmse_m"])


def test_check_rows(tmp_path):
    rows, _ = _csvs(tmp_path)
    assert gate.check_rows(rows, 4, ["StageFailure"]) == []
    assert gate.check_rows(rows, 5, ["StageFailure"]) == ["4 rows, expected 5"]
    assert "unknown status" in gate.check_rows(rows, 4, [])[0]
    rows[0]["nmse_db"] = "nan"
    assert "ok row with NMSE" in gate.check_rows(rows, 4, ["StageFailure"])[0]


def test_compare_rows_uses_relative_tolerance(tmp_path):
    rows, _ = _csvs(tmp_path)
    other = [dict(r) for r in rows]
    other[0]["nmse_db"] = repr(-20.0 * (1 + 1e-12))
    assert gate.compare_rows(rows, other) == []
    other[0]["nmse_db"] = repr(-20.0 * (1 + 1e-6))
    assert len(gate.compare_rows(rows, other)) == 1
    other[0]["nmse_db"] = "-20"
    other[1]["status"] = "ok"
    assert len(gate.compare_rows(rows, other)) == 1
    assert gate.compare_rows(rows, other[:2]) == ["row counts differ: 4 vs 2"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_becomes_base_seed(name):
    w = WORKLOADS[name]
    cfg = json.loads(w.config_json(987654321))
    assert cfg["base_seed"] == 987654321
    assert cfg["trials"] == 1 and cfg["workers"] == 1 and cfg["profile"] == w.profile
    assert tuple(cfg["methods"]) == w.methods
    assert json.loads(w.config_json(5, trials=0))["trials"] == 0
    assert w.config_json(5) == w.config_json(5) != w.config_json(6)
    acc = json.loads(w.accuracy_config_json(987654321))
    assert acc["base_seed"] == 987654321 and acc["profile"] == "desk"
    assert tuple(acc["methods"]) == w.methods
    assert acc["trials"] == w.accuracy_trials and acc["workers"] == ACCURACY_WORKERS
    assert len(acc["methods"]) * len(acc["snr_db"]) * acc["trials"] == w.accuracy_cells


def test_thread_environment():
    base = {"OMP_NUM_THREADS": "8", "PATH": "/bin"}
    assert WORKLOADS["desk-sweep"].env(base) == {"PATH": "/bin"}
    pinned = WORKLOADS["paper-proposed"].env(base)
    assert pinned["OPENBLAS_NUM_THREADS"] == pinned["OMP_NUM_THREADS"] == "1"
    assert thread_env(base, pin=True) == pinned


def test_environment_info_reads_both_openblas_copies():
    info = child.environment_info()
    assert set(info["blas"]) == {"numpy", "scipy"}
    for lib in info["blas"].values():
        assert lib["threads"] >= 1 and "OpenBLAS" in lib["version"]
    assert run.blas_threads(info) == {p: lib["threads"] for p, lib in info["blas"].items()}
    assert "StageFailure" in info["error_classes"]


def _fake_modules():
    """Module ``a`` defines f and g; module ``b`` imported f by name."""
    a = types.ModuleType("fake.a")

    def f(x):
        return g(x) + 1

    def g(x):
        return x * 2

    f.__module__ = g.__module__ = a.__name__
    f.__globals__["g"] = g
    a.f, a.g = f, g
    b = types.ModuleType("fake.b")
    b.f = f
    return a, b


def test_tracer_rebinds_every_binding_and_counts_calls(monkeypatch):
    a, b = _fake_modules()
    monkeypatch.setattr(tr, "LAYERS", ("a",))
    monkeypatch.setattr(tr, "METHOD_SPANS", {})
    t = tr.Tracer()
    installed = t.install({"a": a, "b": b})
    assert installed == ["a.f", "a.g"]
    assert b.f is a.f and hasattr(b.f, "__wrapped__")
    assert b.f(3) == 7
    assert t.calls() == {"a.f": 1}  # f calls g through its own global, not a.g
    assert tr.coverage_problems(["a.f", "a.g", "a.h"], installed, t.calls()) == [
        "tracer: a.g recorded no calls", "tracer: no wrapper for a.h"]
    t.uninstall()
    assert not hasattr(b.f, "__wrapped__") and not hasattr(a.f, "__wrapped__")


def test_tracer_on_nearmimo_records_every_layer_of_a_small_sweep(tmp_path):
    import importlib

    sys.path.insert(0, str(ROOT / "src"))
    for name in tr.LAYERS + ("cli",):
        importlib.import_module(f"nearmimo.{name}")
    modules = {n.rpartition(".")[2]: m for n, m in list(sys.modules.items())
               if n == "nearmimo" or n.startswith("nearmimo.")}
    from nearmimo import cli, harness, pipeline

    cfg = harness.desk_profile(methods=("proposed-omp3", "antenna-wise-dft"),
                               snr_db=(25.0,), trials=1, base_seed=3)
    (tmp_path / "c.json").write_text(cfg.to_json())
    t = tr.Tracer()
    installed = t.install(modules)
    try:
        assert harness.stage1 is pipeline.stage1  # the harness binding was rebound too
        assert cli.main(["sweep", "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path)]) == 0
    finally:
        t.uninstall()
    assert not hasattr(pipeline.stage1, "__wrapped__")
    expected = ("harness.run_sweep", "harness.run_trial", "harness.SweepContext",
                "harness.write_artifacts", "harness.lazy_assets", "pipeline.stage1",
                "pipeline.stage3", "pipeline.baseline_antenna_wise", "solvers.omp",
                "dictionaries.build_location", "doa.music_1d")
    assert tr.coverage_problems(expected, installed, t.calls()) == []
    m = tr.layer_metrics(t.spans)
    assert m["harness.run_trial.ms_p50"][1] == 2
    assert m["dictionaries.build_location.atoms"][0] == 75
    assert m["sensing.combiner.mb"][0] > 0 and m["dictionaries.held.mb"][0] > 0
    assert all(t.trial is not None for t in t.spans if t.name == "solvers.omp")


def test_wait4_keeps_each_childs_peak_rss_apart(tmp_path):
    big = run_measured([sys.executable, "-c", "b = bytearray(200_000_000); b[::4096] = b'x' * len(b[::4096])"],
                       {}, tmp_path, 60, tmp_path / "big.log")
    small = run_measured([sys.executable, "-c", "pass"], {}, tmp_path, 60, tmp_path / "small.log")
    assert big.code == small.code == 0
    assert big.maxrss_mb > 190
    assert small.maxrss_mb < 100


def test_run_measured_reports_exit_code(tmp_path):
    m = run_measured([sys.executable, "-c", "raise SystemExit(3)"], {}, tmp_path, 60,
                     tmp_path / "log")
    assert m.code == 3 and m.wall_s > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "desk-sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
