import csv
import json

import numpy as np
import pytest
from test_dictionaries import location_reference

from nearmimo import harness, pipeline
from nearmimo.cli import main
from nearmimo.errors import StageFailure
from nearmimo.geometry import build_ula, build_upa
from nearmimo.harness import METHODS, desk_profile
from nearmimo.matfile import load_matrix
from nearmimo.pipeline import StageOptions


@pytest.fixture()
def tiny_config_file(tmp_path):
    cfg = desk_profile(
        user_box=((1.5, 3.5), (-1.5, 1.5), (-1.0, -1.0)),
        scatter_box=((0.8, 3.0), (-2.0, 2.0), (-2.0, 0.0)),
        methods=("proposed-omp3", "stage1-only"),
        snr_db=(10.0,),
        trials=2,
        stages=StageOptions(sbl_max_iters=20, sbl_tol=1e-4),
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


@pytest.mark.parametrize("argv", [
    ["sweep", "--bogus-flag"],
    ["verify", "--profile", "paper"],
], ids=["sweep-bogus-flag", "verify-profile"])
def test_unknown_flag_exits_one(capsys, argv):
    assert main(argv) == 1


def test_unknown_command_exits_one(capsys):
    assert main(["transmogrify"]) == 1


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_rejects_zero_workers(tmp_path, tiny_config_file, capsys):
    data = json.loads(tiny_config_file.read_text())
    data["workers"] = 0
    bad = tmp_path / "zero_workers.json"
    bad.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "workers must be at least 1" in capsys.readouterr().err


_BAD_CONFIGS = {
    # layout -> (edit of the config's JSON object, expected error)
    "flat-schema-1": (lambda d: d.update(d.pop("stages"), schema=1), "config schema 1 is not 4"),
    "unknown-stages-key": (lambda d: d["stages"].update(flux_capacitor=1), "unknown stages keys"),
    "two-grid-counts": (lambda d: d["stages"].update(grid_counts=[5, 5]), "3 grid_counts"),
    "negative-sbl-max-iters": (lambda d: d["stages"].update(sbl_max_iters=-1),
                               "sbl_max_iters >= 1"),
    "negative-trials": (lambda d: d.update(trials=-3), "trials must be at least 0"),
    # these would load, then fail or run cells twice only once the sweep ran
    "one-point-dft-grid": (lambda d: d.update(z_grid=1), "z_grid must be at least 2"),
    # a schema-3 key that is now a constant
    "no-spherical-angles": (lambda d: d.update(spherical_angle_grid=0),
                            "unknown config keys: ['spherical_angle_grid']"),
    "reversed-spherical-rings": (lambda d: d.update(spherical_rings=[10.0, 2.0, 4]),
                                 "spherical_rings"),
    "no-spherical-rings": (lambda d: d.update(spherical_rings=[2.0, 10.0, 0]),
                           "spherical_rings"),
    "repeated-snr": (lambda d: d.update(snr_db=[10.0, 10.0]), "snr_db repeats a value"),
    "repeated-method": (lambda d: d.update(methods=["stage1-only", "stage1-only"]),
                        "methods repeats a value"),
    # a count that is a float or a bool would be truncated, lift a cap, or fail in a trial
    "fractional-sbl-max-iters": (lambda d: d["stages"].update(sbl_max_iters=40.5),
                                 "sbl_max_iters must be integers"),
    "float-grid-counts": (lambda d: d["stages"].update(grid_counts=[5.0, 5, 3]),
                          "grid_counts and sbl_max_iters must be integers"),
    "float-trials": (lambda d: d.update(trials=2.0), "trials must be an integer"),
    "boolean-trials": (lambda d: d.update(trials=True), "trials must be an integer"),
    "float-n-ue": (lambda d: d.update(n_ue=2.0), "n_ue must be an integer"),
    "fractional-base-seed": (lambda d: d.update(base_seed=1.5), "base_seed must be an integer"),
    "fractional-ring-count": (lambda d: d.update(spherical_rings=[2.0, 10.0, 4.5]),
                              "spherical_rings"),
    # a NaN or -inf SNR would run noiseless rows marked ok
    "nan-snr": (lambda d: d.update(snr_db=[float("nan")]), "SNR must be"),
    "minus-inf-snr": (lambda d: d.update(snr_db=[10.0, float("-inf")]), "SNR must be"),
    "string-snr": (lambda d: d.update(snr_db=["10"]), "SNR must be"),
    # a bare value would fail as a TypeError in the sweep, or be read character by character
    "number-snr": (lambda d: d.update(snr_db=5), "snr_db must be a list, got 5"),
    "null-snr": (lambda d: d.update(snr_db=None), "snr_db must be a list, got None"),
    "bare-string-snr": (lambda d: d.update(snr_db="10"), "snr_db must be a list, got '10'"),
    "number-methods": (lambda d: d.update(methods=1), "methods must be a list, got 1"),
    "null-methods": (lambda d: d.update(methods=None), "methods must be a list, got None"),
    "bare-string-methods": (lambda d: d.update(methods="stage1-only"),
                            "methods must be a list, got 'stage1-only'"),
    # a count below its least value: a scene the config does not describe, or a failed sweep
    "negative-num-nlos": (lambda d: d.update(num_nlos=-1), "num_nlos must be at least 0"),
    "no-ue-antennas": (lambda d: d.update(n_ue=0), "n_ue must be at least 1"),
    "no-pilot-slots": (lambda d: d.update(t_slots=0), "t_slots must be at least 1"),
    "no-bs-columns": (lambda d: d.update(bs_m_h=0), "bs_m_h must be at least 1"),
    # stage 2's per-axis MUSIC needs two antennas along each tile axis
    "one-column-tiles": (lambda d: d.update(bs_m_h=2, tiles_h=2), "tiles of 1x12 antennas"),
    "one-row-tiles": (lambda d: d.update(bs_m_v=4, tiles_v=4), "tiles of 6x1 antennas"),
    # a float or box value that would fail partway through a sweep or run the wrong scene
    "zero-carrier": (lambda d: d.update(carrier_freq_hz=0), "carrier_freq_hz must be finite"),
    "negative-carrier": (lambda d: d.update(carrier_freq_hz=-6.8e9),
                         "carrier_freq_hz must be finite"),
    "nan-los-nlos-ratio": (lambda d: d.update(los_nlos_ratio_db=float("nan")),
                           "los_nlos_ratio_db must be"),
    "minus-inf-los-nlos-ratio": (lambda d: d.update(los_nlos_ratio_db=float("-inf")),
                                 "los_nlos_ratio_db must be"),
    "reversed-user-box": (lambda d: d["user_box"].__setitem__(1, [1.5, -1.5]),
                          "user_box must be 3 finite"),
    "infinite-scatter-box": (lambda d: d["scatter_box"].__setitem__(0, [0.8, float("inf")]),
                             "scatter_box must be 3 finite"),
    "user-behind-the-array": (lambda d: d["user_box"].__setitem__(0, [-5.0, -2.0]),
                              "user_box must lie in front of the array"),
    # a string where a number belongs, or a NaN stage knob, would escape as a TypeError
    # traceback or turn every comparison false
    "string-carrier": (lambda d: d.update(carrier_freq_hz="6.8e9"),
                       "carrier_freq_hz must be finite"),
    "string-user-box": (lambda d: d["user_box"].__setitem__(0, ["2", "5"]),
                        "user_box must be 3 finite"),
    "string-scatter-box": (lambda d: d["scatter_box"].__setitem__(2, [-2.0, "0"]),
                           "scatter_box must be 3 finite"),
    "string-sbl-tol": (lambda d: d["stages"].update(sbl_tol="x"), "sbl_tol must be numbers"),
    "string-grid-half-width": (lambda d: d["stages"].update(grid_half_widths=["a", 0.1, 0.1]),
                               "grid_half_widths and sbl_tol must be numbers"),
    "nan-sbl-tol": (lambda d: d["stages"].update(sbl_tol=float("nan")), "sbl_tol >= 0"),
    "nan-grid-half-width": (lambda d: d["stages"].update(grid_half_widths=[0.4, float("nan"), 0.05]),
                            "3 finite grid_half_widths"),
    # it loaded, then every stage-3 row failed as DegenerateGridError and the sweep exited 0
    "zero-width-grid-axis": (lambda d: d["stages"].update(grid_half_widths=[0.0, 0.4, 0.05]),
                             "grid axis x: 5 samples need a grid_half_width > 0"),
    # an unhashable entry crashed the check for unknown names with a TypeError
    "dict-method": (lambda d: d.update(methods=[{}]), "unknown methods: [{}]"),
}


@pytest.mark.parametrize("layout", list(_BAD_CONFIGS))
def test_config_layout_errors_exit_one(tmp_path, tiny_config_file, capsys, layout):
    # rejected when the config loads, before any trial runs or any file is written
    edit, message = _BAD_CONFIGS[layout]
    data = json.loads(tiny_config_file.read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_noiseless_cells_read_inf_in_the_sweep_csvs(tmp_path, tiny_config_file):
    # "nan" would make a noiseless cell look like a NaN SNR, which the config refuses
    data = json.loads(tiny_config_file.read_text())
    data.update(snr_db=[10.0, float("inf")], trials=1)
    config = tmp_path / "noiseless.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    for name in ("sweep_rows.csv", "sweep_aggregate.csv"):
        with open(out / name, newline="") as fh:
            assert [row["snr_db"] for row in csv.DictReader(fh)] == ["10", "inf"] * 2


def test_context_failure_leaves_no_output_directory(tmp_path, tiny_config_file, capsys):
    # T < M_s loads, then fails when the sweep builds its context
    data = json.loads(tiny_config_file.read_text())
    data["t_slots"] = 3
    bad = tmp_path / "few_slots.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert "T >= M_s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("center", ["1,2", "1,2,3,4", "1,x,3", "1,nan,3", "1,2,inf"])
def test_export_dict_rejects_a_center_that_is_not_three_finite_numbers(
        tmp_path, tiny_config_file, capsys, center):
    out = tmp_path / "d"
    code = main(["export-dict", "--kind", "location", f"--center={center}",
                 "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 1
    assert "--center" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_records_rows_when_omp_tolerance_is_met_at_once(
        tmp_path, tiny_config_file, capsys, monkeypatch):
    # an OMP tolerance of 1 makes every stage-1 OMP return the zero solution:
    # stage 2 then has no rays, and stage1-only estimates the zero channel
    monkeypatch.setattr(pipeline, "OMP_TOL", 1.0)
    assert main(["sweep", "--config", str(tiny_config_file), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep_rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["status"] for r in rows if r["method"] == "proposed-omp3"} == {"StageFailure"}
    stage1_only = [r for r in rows if r["method"] == "stage1-only"]
    assert {r["status"] for r in stage1_only} == {"ok"}
    assert all(float(r["nmse_db"]) == 0.0 for r in stage1_only)


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_simulate_byte_identical(tmp_path, tiny_config_file, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main([
            "simulate", "--config", str(tiny_config_file),
            "--method", "proposed-omp3", "--seed", "7",
            "--snr-db", "10", "--out", str(out),
        ])
        assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_accepts_proposed_alias(tmp_path, tiny_config_file):
    code = main([
        "simulate", "--config", str(tiny_config_file),
        "--method", "proposed", "--seed", "3", "--snr-db", "12",
        "--out", str(tmp_path / "alias"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "alias" / "simulate_proposed-sbl_seed3.json").read_text())
    assert report["method"] == "proposed-sbl"
    h_hat, wl = load_matrix(tmp_path / "alias" / "simulate_proposed-sbl_seed3_h_hat.cmx")
    assert h_hat.shape == (12 * 24, 2)


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_simulate_rejects_nan_and_minus_inf_snr(tmp_path, tiny_config_file, capsys, snr):
    out = tmp_path / "s"
    code = main(["simulate", "--config", str(tiny_config_file), "--method", "stage1-only",
                 f"--snr-db={snr}", "--out", str(out)])
    assert code == 1
    assert "SNR must be" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_negative_seed(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "s"
    code = main(["simulate", "--config", str(tiny_config_file), "--method", "stage1-only",
                 "--seed", "-3", "--out", str(out)])
    assert code == 1
    assert "non-negative seed, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_unknown_method_exits_one(tmp_path, tiny_config_file):
    code = main([
        "simulate", "--config", str(tiny_config_file),
        "--method", "nope", "--out", str(tmp_path),
    ])
    assert code == 1


def test_sweep_outputs_byte_identical(tmp_path, tiny_config_file):
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    for out in (out_a, out_b):
        code = main(["sweep", "--config", str(tiny_config_file), "--out", str(out)])
        assert code == 0
    for name in ("sweep_rows.csv", "sweep_aggregate.csv", "sweep.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sweep_csv_has_documented_columns(tmp_path, tiny_config_file):
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(tiny_config_file), "--out", str(out)]) == 0
    header = (out / "sweep_rows.csv").read_text().split("\n", 1)[0]
    assert header == ("method,snr_db,trial,seed,nmse_db,rmse_m,"
                      "t_stage1_ms,t_stage2_ms,t_stage3_ms,status")


def test_export_dict_angular(tmp_path, tiny_config_file):
    out = tmp_path / "d"
    code = main(["export-dict", "--kind", "angular",
                 "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 0
    matrix, wl = load_matrix(out / "dictionary_angular.cmx")
    assert matrix.shape == (6 * 12, 32 * 32)
    manifest = (out / "dictionary_angular.manifest.txt").read_text()
    assert "kind angular" in manifest


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--timings"]])
def test_export_dict_rejects_the_run_options(tmp_path, tiny_config_file, capsys, flag):
    # a dictionary draws no scene and times nothing: these flags were accepted and ignored
    out = tmp_path / "d"
    code = main(["export-dict", *flag, "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_export_dict_location(tmp_path, tiny_config_file):
    out = tmp_path / "d"
    code = main(["export-dict", "--kind", "location", "--center", "2.5,0.5,-1.0",
                 "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 0
    matrix, _ = load_matrix(out / "dictionary_location.cmx")
    assert matrix.shape == (12 * 24 * 2, 5 * 5 * 3)
    # the vec(H) atoms, bit for bit, as one LoS channel per grid point
    cfg = desk_profile()
    half = cfg.wavelength / 2
    bs = build_upa(cfg.bs_m_h, cfg.bs_m_v, half, half, (0, 0, 0))
    center = (2.5, 0.5, -1.0)
    ue = build_ula(cfg.n_ue, cfg.wavelength / 2, center)
    np.testing.assert_array_equal(matrix, location_reference(
        center, cfg.stages.grid_half_widths, cfg.stages.grid_counts, bs, ue))


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS {m}" for m in METHODS]


def test_verify_fails_the_methods_a_broken_stage_breaks(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise StageFailure("stage2", "broken for the test")

    # every locating runner looks stage2 up in harness when it runs
    monkeypatch.setattr(harness, "stage2", broken)
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    verdicts = dict(reversed(line.split(":")[0].split()) for line in lines)
    failing = {"proposed-sbl", "proposed-omp3", "eigen-dictionary", "random-combiner"}
    assert verdicts == {m: "FAIL" if m in failing else "PASS" for m in METHODS}
