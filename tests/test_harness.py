import json
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from nearmimo import harness
from nearmimo.errors import DivergenceError, InfeasibleDesignError
from nearmimo.harness import (
    CSV_COLUMNS,
    METHODS,
    ExperimentConfig,
    ResultTable,
    SweepContext,
    TrialRow,
    derive_seed,
    desk_profile,
    nmse,
    noise_var_for_snr,
    paper_profile,
    run_sweep,
    run_trial,
    simulate_once,
)
from nearmimo.pipeline import StageOptions


def tiny_config(**overrides):
    base = dict(
        user_box=((1.5, 3.5), (-1.5, 1.5), (-1.0, -1.0)),
        scatter_box=((0.8, 3.0), (-2.0, 2.0), (-2.0, 0.0)),
        methods=("proposed-omp3", "stage1-only"),
        snr_db=(10.0,),
        trials=2,
        stages=StageOptions(sbl_max_iters=20, sbl_tol=1e-4),
    )
    base.update(overrides)
    return desk_profile(**base)


class TestMetrics:
    def test_nmse_exact_estimate(self):
        h = np.ones((3, 2), dtype=complex)
        assert nmse(h, h) == 0.0

    def test_nmse_zero_estimate(self):
        h = np.ones((3, 2), dtype=complex)
        assert nmse(np.zeros_like(h), h) == 1.0

    def test_nmse_double_estimate(self):
        h = (np.arange(6).reshape(3, 2) + 1.0).astype(complex)
        assert nmse(2 * h, h) == pytest.approx(1.0, rel=1e-12)

    def test_nmse_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))


class TestConfig:
    def test_json_roundtrip_identity(self):
        cfg = desk_profile()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert ExperimentConfig.from_json(again.to_json()) == again

    def test_paper_profile_roundtrip(self):
        cfg = paper_profile()
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        assert cfg.stages == StageOptions((0.2, 0.2, 0.02), (11, 11, 3), 200, 1e-6)
        assert json.loads(cfg.to_json())["schema"] == 4

    def test_partial_stages_take_desk_defaults(self):
        data = paper_profile().to_dict()
        data["stages"] = {"sbl_max_iters": 7, "grid_counts": [3, 3, 1]}
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.stages == StageOptions(sbl_max_iters=7, grid_counts=(3, 3, 1))
        del data["stages"]
        assert ExperimentConfig.from_dict(data).stages == StageOptions()

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            desk_profile(methods=("warp-drive",))

    @pytest.mark.parametrize("m_s", [7, 16, 0])
    def test_rejects_bad_ms(self, m_s):
        # 7 divides no tile; 16 divides M = 288 but not the 72-antenna tile
        with pytest.raises(ValueError):
            desk_profile(m_s=m_s)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            desk_profile(workers=workers)

    def test_example_config_loads(self):
        # the file is this expression's output, byte for byte, so it names every
        # field at the current schema; regenerate it when the schema changes
        path = Path(__file__).resolve().parents[1] / "demos" / "example_config.json"
        cfg = desk_profile(methods=("proposed-sbl", "proposed-omp3", "stage1-only"),
                           snr_db=(5.0, 15.0, 25.0), trials=10)
        assert path.read_text() == cfg.to_json() + "\n"
        assert ExperimentConfig.from_json(path.read_text()) == cfg

    def test_rejects_unknown_keys(self):
        data = desk_profile().to_dict()
        data["flux_capacitor"] = 1
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(data)
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict([["schema", 2]])

    @pytest.mark.parametrize("stages, message", [
        ({"flux_capacitor": 1}, "unknown stages keys"),
        (5, "stages must be a JSON object"),
        (None, "stages must be a JSON object"),
        ({"stage1_solver": "omp"}, "unknown stages keys"),
        ({"grid_counts": [5, 5]}, "3 grid_counts"),
        ({"grid_half_widths": [0.4, 0.4, 0.05, 0.1]}, "3 grid_counts"),
        ({"grid_counts": [5, 0, 3]}, "3 grid_counts"),
        ({"grid_half_widths": [0.4, -0.1, 0.05]}, "3 grid_counts"),
        ({"sbl_max_iters": -1}, "sbl_max_iters >= 1"),
        ({"sbl_max_iters": 0}, "sbl_max_iters >= 1"),
        ({"sbl_tol": -1e-5}, "sbl_tol >= 0"),
        ({"grid_half_widths": [0.4, 0.0, 0.05]}, "grid axis y: 5 samples"),
    ])
    def test_rejects_bad_stages(self, stages, message):
        data = desk_profile().to_dict()
        data["stages"] = stages
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("schema", [1, 2, 3, None])
    def test_rejects_other_schemas(self, schema):
        # schema 1 is the flat layout: the stage knobs and m_rf at top level
        data = desk_profile().to_dict()
        data.update(data.pop("stages"), m_rf=None, schema=schema)
        if schema is None:
            del data["schema"]
        # the message names the keys schema 4 removed, which a schema-3 file has
        removed = "no power, ue_orientation, baseline_z_grid or spherical_angle_grid"
        with pytest.raises(ValueError, match=f"config schema {schema!r} is not 4; .* {removed}"):
            ExperimentConfig.from_dict(data)

    def test_every_count_has_a_least_value(self):
        # a new int field without an entry would load unchecked
        counts = {name for name, kind in get_type_hints(ExperimentConfig).items() if kind is int}
        assert counts == set(harness._LEAST_VALUE)
        for name, least in harness._LEAST_VALUE.items():
            if least > -np.inf:
                with pytest.raises(ValueError, match=f"{name} must be at least {least}, got"):
                    desk_profile(**{name: least - 1})
        assert desk_profile(base_seed=-(2 ** 70)).base_seed == -(2 ** 70)  # any seed loads

    def test_noise_var_from_snr(self):
        h = np.full((4, 2), 1.0 + 0j)
        assert noise_var_for_snr(1.0, h, 0.0) == pytest.approx(8 / 8)
        assert noise_var_for_snr(2.0, h, 0.0) == pytest.approx(2 * 8 / 8)
        assert noise_var_for_snr(1.0, h, np.inf) == 0.0

    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
    def test_noise_var_rejects_nan_and_minus_inf(self, snr_db):
        # either would run the trial noiseless and mark it ok
        with pytest.raises(ValueError, match="SNR must be"):
            noise_var_for_snr(1.0, np.ones((4, 2)), snr_db)

    def test_numpy_integer_counts_load_and_round_trip(self):
        cfg = desk_profile(trials=np.int64(3), stages=StageOptions(sbl_max_iters=np.int32(7)))
        assert (cfg.trials, cfg.stages.sbl_max_iters) == (3, 7)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestSeeds:
    def test_derive_seed_stable(self):
        a = derive_seed(123, "proposed-sbl", 10.0, 7)
        b = derive_seed(123, "proposed-sbl", 10.0, 7)
        assert a == b

    def test_derive_seed_distinguishes_cells(self):
        seeds = {
            derive_seed(123, m, s, t)
            for m in ("proposed-sbl", "stage1-only")
            for s in (0.0, 10.0)
            for t in range(5)
        }
        assert len(seeds) == 20


class TestResultTable:
    def _table(self):
        cfg = tiny_config()
        rows = [
            TrialRow("proposed-omp3", 10.0, 0, 1, 0.01, 0.5, 1.0, 2.0, 3.0),
            TrialRow("proposed-omp3", 10.0, 1, 2, 0.03, 1.5, 1.0, 2.0, 3.0),
            TrialRow("stage1-only", 10.0, 0, 3, 0.5, float("nan"), 0.0, 0.0, 0.0),
            TrialRow("stage1-only", 10.0, 1, 4, float("nan"), float("nan"),
                     0.0, 0.0, 0.0, status="StageFailure"),
        ]
        return ResultTable(config=cfg, rows=rows)

    def test_aggregates_recompute_from_rows(self):
        table = self._table()
        agg = {(a["method"], a["snr_db"]): a for a in table.aggregates()}
        cell = agg[("proposed-omp3", 10.0)]
        assert cell["nmse_mean"] == pytest.approx(0.02, abs=1e-15)
        assert cell["nmse_mean_db"] == pytest.approx(10 * np.log10(0.02), abs=1e-12)
        assert cell["rmse_m"] == pytest.approx(np.sqrt((0.25 + 2.25) / 2), abs=1e-12)
        failed = agg[("stage1-only", 10.0)]
        assert failed["n_ok"] == 1
        assert failed["nmse_mean"] == pytest.approx(0.5)

    def test_rows_take_cell_order_when_built(self, tmp_path):
        table = self._table()
        shuffled = ResultTable(config=table.config,
                               rows=[table.rows[i] for i in (3, 0, 2, 1)])
        assert shuffled.rows == table.rows
        for name, include_timings in (("a", False), ("b", True)):
            for write in ("to_csv", "to_json"):
                paths = tmp_path / f"{name}.{write}", tmp_path / f"{name}.{write}.shuffled"
                getattr(table, write)(paths[0], include_timings=include_timings)
                getattr(shuffled, write)(paths[1], include_timings=include_timings)
                assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failure_summary(self):
        summary = self._table().failure_summary()
        assert summary["failed"] == 1
        assert summary["by_status"] == {"StageFailure": 1}

    def test_csv_columns_and_timings_zeroed(self, tmp_path):
        table = self._table()
        path = tmp_path / "rows.csv"
        table.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "proposed-omp3"
        assert first[6] == "0" and first[7] == "0" and first[8] == "0"
        table.to_csv(path, include_timings=True)
        first = path.read_text().strip().split("\n")[1].split(",")
        assert first[6] == "1"

    def test_json_output(self, tmp_path):
        table = self._table()
        path = tmp_path / "out.json"
        table.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["config"]["trials"] == 2
        assert len(payload["rows"]) == 4
        assert payload["failures"]["failed"] == 1


class TestSweep:
    def test_sweep_deterministic(self, tmp_path):
        cfg = tiny_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_sweep_rows_complete(self):
        cfg = tiny_config()
        table = run_sweep(cfg)
        assert len(table.rows) == len(cfg.methods) * len(cfg.snr_db) * cfg.trials
        keys = {(r.method, r.snr_db, r.trial) for r in table.rows}
        assert len(keys) == len(table.rows)

    def test_paper_context_holds_no_formed_angular_dictionary(self):
        # formed, the 768 x 4,096 full-array matrix is 50.3 MB and a 96 x 4,096 tile one 6.3 MB
        ctx = SweepContext(paper_profile())
        for d in (ctx.tile_dictionary, ctx.full_array_dictionary()):
            held = sum(v.nbytes for v in vars(d).values() if isinstance(v, np.ndarray))
            assert held < 1e6, held

    def test_trial_reuses_cell_seed(self):
        cfg = tiny_config()
        ctx = SweepContext(cfg)
        row = run_trial(ctx, "proposed-omp3", 10.0, 0)
        assert row.seed == derive_seed(cfg.base_seed, "proposed-omp3", 10.0, 0)

    @pytest.mark.parametrize(
        "method", ["antenna-wise-dft", "antenna-wise-spherical", "antenna-wise-subarray-dft"])
    def test_antenna_wise_rows_time_their_one_stage(self, method):
        row = run_trial(SweepContext(tiny_config()), method, 10.0, 0)
        assert row.status == "ok"
        assert row.t_stage1_ms > 0 and row.t_stage2_ms == row.t_stage3_ms == 0.0

    def test_a_stage_error_class_is_the_row_status(self, monkeypatch):
        def diverged(*args, **kwargs):
            raise DivergenceError("diverged for the test")

        # the runners look stage3 up in harness when they run
        monkeypatch.setattr(harness, "stage3", diverged)
        row = run_trial(SweepContext(tiny_config()), "proposed-sbl", 10.0, 0)
        assert row.status == "DivergenceError"
        assert np.isnan(row.nmse) and np.isnan(row.loc_error_m)

    @pytest.mark.parametrize(
        "method", ["proposed-sbl", "proposed-omp3", "random-combiner", "eigen-dictionary"])
    def test_locating_runners_never_read_the_scene_geometry(self, method):
        # the estimators get the array from the record and the user layout from the context
        ctx = SweepContext(tiny_config())
        draw = harness._trial(ctx, method, 25.0, 11)[0]
        blind = draw._replace(scene=replace(draw.scene, ue=None, bs=None, wavelength=None))
        seen, unseen = harness._RUNNERS[method](ctx, draw), harness._RUNNERS[method](ctx, blind)
        np.testing.assert_array_equal(unseen.h_hat, seen.h_hat)
        np.testing.assert_array_equal(unseen.location, seen.location)
        assert unseen.detail == seen.detail

    def test_context_keeps_the_user_offsets_read_only(self):
        cfg = tiny_config()
        offsets = SweepContext(cfg).ue_offsets
        assert offsets.shape == (cfg.n_ue, 3) and not offsets.flags.writeable
        np.testing.assert_array_equal(offsets.mean(axis=0), 0.0)

    def test_simulate_once_report(self):
        cfg = tiny_config()
        result = simulate_once(cfg, "proposed-omp3", 10.0, seed=99)
        report = result["report"]
        assert report["status"] == "ok"
        assert report["method"] == "proposed-omp3"
        assert result["h_hat"].shape == result["h_true"].shape
        assert report["nmse_db"] is not None
        assert isinstance(report["detail"]["stage3_converged"], bool)
        json.dumps(report)  # must be JSON-serializable

    @pytest.mark.parametrize("method", METHODS)
    def test_simulate_once_matches_run_trial(self, method):
        cfg = tiny_config()
        row = run_trial(SweepContext(cfg), method, 10.0, 0)
        seed = derive_seed(cfg.base_seed, method, 10.0, 0)
        report = simulate_once(cfg, method, 10.0, seed=seed)["report"]
        json.dumps(report)  # must be JSON-serializable
        assert report["status"] == row.status == "ok"
        assert report["nmse_db"] == float(10 * np.log10(row.nmse))
        if np.isnan(row.loc_error_m):
            assert report["loc_error_m"] is None
        else:
            assert report["loc_error_m"] == row.loc_error_m

    def test_simulate_once_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            simulate_once(tiny_config(), "nope", 10.0, seed=1)

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_sweep(tiny_config(trials=2))
        parallel = run_sweep(tiny_config(trials=2, workers=2))
        ps, pp = tmp_path / "s.csv", tmp_path / "p.csv"
        serial.to_csv(ps)
        parallel.to_csv(pp)
        assert ps.read_bytes() == pp.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_every_25_trials(self, workers):
        calls = []
        cfg = tiny_config(methods=("stage1-only",), trials=51, workers=workers)
        run_sweep(cfg, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(25, 51), (50, 51)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_context_is_built_in_the_caller(self, monkeypatch, workers):
        # pool workers receive the caller's context instead of building their own
        built = []
        init = SweepContext.__init__

        def counting_init(ctx, config):
            built.append(config)
            init(ctx, config)

        monkeypatch.setattr(SweepContext, "__init__", counting_init)
        cfg = tiny_config(methods=("stage1-only",), workers=workers)
        assert len(run_sweep(cfg).rows) == cfg.trials
        assert built == [cfg]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_context_failure_reaches_the_caller(self, workers):
        cfg = tiny_config(methods=("stage1-only",), t_slots=3, workers=workers)  # T < M_s
        with pytest.raises(InfeasibleDesignError, match="T >= M_s"):
            run_sweep(cfg)


@pytest.mark.parametrize("snr_db", [45.0, float("inf")], ids=["45dB", "noiseless"])
def test_paper_scene_with_scattered_paths_recovers_at_high_snr(snr_db):
    # base seed 4242, trial 0: the batch E-step failed to factor on both cells
    cfg = paper_profile(methods=("proposed-sbl",), snr_db=(snr_db,), trials=1, base_seed=4242)
    assert cfg.num_nlos == 2
    seed = derive_seed(cfg.base_seed, "proposed-sbl", snr_db, 0)
    report = simulate_once(cfg, "proposed-sbl", snr_db, seed)["report"]
    assert report["status"] == "ok"
    assert report["detail"]["stage3_converged"]
    assert np.isfinite(report["nmse_db"])
