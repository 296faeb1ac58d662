"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Criteria 1-6 exercise the full-scale (16x48) geometry;
criterion 7 reproduces the method orderings on the quick profile with
200 trials; criterion 8 checks byte-level reproducibility of the CLI
artifacts.
"""

import time

import numpy as np
import pytest
from helpers import dense_combiner, dense_operator, ula_offsets
from scipy.optimize import minimize
from test_sensing import dense_reference, noise_gram

from nearmimo.channel import Scene, far_field_steering, synthesize
from nearmimo.dictionaries import build_angular
from nearmimo.doa import extract_axis_factors, music_1d
from nearmimo.geometry import build_ula, build_upa, partition
from nearmimo.harness import desk_profile, paper_profile, run_sweep
from nearmimo.localization import Ray, ls_intersect, ray_misfit
from nearmimo.pipeline import simulate_reception, stage1, stage2, stage3
from nearmimo.sensing import design_combiner, uniform_precoder
from nearmimo.solvers import omp, sbl_em

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


def _report(num, name, elapsed, budget, detail=""):
    print(f"\n[ACCEPTANCE {num}] PASS {name} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")


@pytest.fixture(scope="module")
def paper_setup():
    bs = build_upa(16, 48, HALF, HALF, (0, 0, 0))
    tiling = partition(bs, 2, 4)
    combiner = design_combiner(6, tiling, m_rf_per_tile=16)
    return bs, tiling, combiner


def test_acceptance_1_sensing_design_exactness(paper_setup):
    tic = time.perf_counter()
    _bs, _tiling, combiner = paper_setup
    assert combiner.m_s == 6 and combiner.t_slots == 6
    for i in range(combiner.tiling.num_tiles):
        slc = combiner.apply_tile(i, np.eye(96))
        err = np.linalg.norm(slc.conj().T @ slc - np.eye(96))
        assert err < 1e-10, f"tile {i} Gram error {err:.2e}"
    v = dense_combiner(combiner)
    global_err = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]))
    assert global_err < 1e-10
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    _report(1, "sensing design exactness", elapsed, 5,
            f"global Gram error {global_err:.2e}")


def test_acceptance_2_noise_whiteness(paper_setup):
    tic = time.perf_counter()
    _bs, _tiling, combiner = paper_setup
    sigma2 = 1.0
    cov = sigma2 * noise_gram(dense_reference(combiner)[0])  # exact sigma^2 V V^H
    err = float(np.abs(cov - sigma2 * np.eye(cov.shape[0])).max())
    assert err < 1e-13 * sigma2
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    _report(2, "noise whiteness", elapsed, 30, f"max |cov - sigma^2 I| {err:.1e}")


def test_acceptance_3_solver_oracles():
    tic = time.perf_counter()
    # OMP: 100/100 planted 2-sparse noiseless problems.  Supports are
    # sampled under the exact-recovery condition max ||A_S^+ a_j||_1 < 1
    # (the standard well-separatedness notion on a coherent grid).
    dictionary = build_angular(4, 4, HALF, HALF, WAVELENGTH, 8)
    matrix = dictionary.columns(slice(None))
    rng = np.random.default_rng(7)

    def erc_holds(atoms):
        a_s = matrix[:, atoms]
        rest = np.delete(np.arange(dictionary.shape[1]), atoms)
        scores = np.sum(np.abs(np.linalg.pinv(a_s) @ matrix[:, rest]), axis=0)
        return scores.max() < 1.0

    recovered = 0
    instances = 0
    while instances < 100:
        atoms = rng.choice(dictionary.shape[1], size=2, replace=False)
        if not erc_holds(atoms):
            continue
        instances += 1
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = matrix[:, atoms] @ coeffs
        sol = omp(dense_operator(matrix), y, max_atoms=2)
        x_true = np.zeros(dictionary.shape[1], dtype=complex)
        x_true[atoms] = coeffs
        err = np.linalg.norm(sol.coefficients - x_true) / np.linalg.norm(x_true)
        recovered += err < 1e-10
    assert recovered == 100

    # SBL: posterior-mean consistency and evidence ascent on 20 problems
    for k in range(20):
        p, q = (24, 12) if k % 2 == 0 else (12, 30)
        a = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)
        x = np.zeros(q, dtype=complex)
        x[rng.choice(q, 2, replace=False)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sigma = 0.05
        y = a @ x + sigma * (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2)
        _sol, state = sbl_em(dense_operator(a), y, sigma2=sigma ** 2)
        m, gamma = a[:, state.active], state.gamma[state.active]
        lhs = (m.conj().T @ m / sigma ** 2 + np.diag(1.0 / gamma)) @ state.mean[state.active]
        rhs = m.conj().T @ y / sigma ** 2
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8
        ev = np.array(state.evidence)
        assert np.all(np.diff(ev) >= -1e-9)
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    _report(3, "solver oracles", elapsed, 60, "OMP 100/100, SBL 20/20")


def test_acceptance_4_music_and_extraction():
    tic = time.perf_counter()
    rng = np.random.default_rng(11)
    # Kronecker construct-then-extract roundtrip at 1e-12
    for _ in range(20):
        a_h = far_field_steering(8, HALF, rng.uniform(-0.9, 0.9), WAVELENGTH)
        a_v = far_field_steering(12, HALF, rng.uniform(-0.9, 0.9), WAVELENGTH)
        c_h0 = np.outer(a_h, a_h.conj())
        c_v0 = np.outer(a_v, a_v.conj())
        c_h, c_v = extract_axis_factors(np.kron(a_h, a_v), 8, 12)
        assert np.abs(c_h - c_h0).max() < 1e-12
        assert np.abs(c_v - c_v0).max() < 1e-12
    # MUSIC on 100 random noiseless rank-one covariances
    worst = 0.0
    for _ in range(100):
        target = rng.uniform(-0.95, 0.95)
        a = far_field_steering(8, HALF, target, WAVELENGTH)
        spec = music_1d(np.outer(a, a.conj()), 8, HALF, WAVELENGTH)
        worst = max(worst, abs(spec.peak - target))
    assert worst < 1e-4
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    _report(4, "music + extraction exactness", elapsed, 60,
            f"worst cosine error {worst:.2e}")


def test_acceptance_5_ls_localization():
    tic = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        n_rays = rng.integers(3, 9)
        origins = rng.uniform(-1, 1, size=(n_rays, 3))
        target = rng.uniform([2, -4, -2], [10, 4, 0])
        rays = []
        for o in origins:
            d = target - o
            d = d / np.linalg.norm(d) + 0.005 * rng.standard_normal(3)
            rays.append(Ray(origin=o, direction=d))
        est = ls_intersect(rays)
        res = minimize(
            lambda p: ray_misfit(p, rays), x0=target, method="Powell",
            options={"xtol": 1e-12, "ftol": 1e-15, "maxiter": 10000},
        )
        worst = max(worst, float(np.linalg.norm(est.point - res.x)))
    assert worst < 1e-6

    geom = build_upa(16, 48, HALF, HALF, (0, 0, 0))
    centers = [t.geometry.center for t in partition(geom, 2, 4).tiles]
    target = np.array([8.0, 1.0, -1.0])
    rays = [
        Ray(origin=c, direction=(target - c) / np.linalg.norm(target - c))
        for c in centers
    ]
    exact_err = float(np.linalg.norm(ls_intersect(rays).point - target))
    assert exact_err < 1e-9
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    _report(5, "ls localization", elapsed, 30,
            f"worst oracle gap {worst:.2e} m, exact-ray error {exact_err:.1e} m")


def test_acceptance_6_end_to_end_noiseless(paper_setup):
    tic = time.perf_counter()
    bs, tiling, combiner = paper_setup
    tile = tiling.tiles[0].geometry
    dictionary = build_angular(tile.m_h, tile.m_v, tile.d_h, tile.d_v, WAVELENGTH, 64)
    center = np.array([8.0, 1.0, -1.0])
    ue = build_ula(4, HALF, center)
    scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
    realization = synthesize(scene, rng_seed=0)
    record = simulate_reception(scene, realization, combiner, uniform_precoder(4), seed=1)
    _sols, h_sub = stage1(record, dictionary)
    estimate, _dirs = stage2(h_sub, tiling, WAVELENGTH)
    _sol, h_hat = stage3(record, estimate.point, ula_offsets(4, HALF), WAVELENGTH,
                         paper_profile().stages)
    loc_error = float(np.linalg.norm(estimate.point - center))
    nmse_db = 10 * np.log10(
        np.linalg.norm(h_hat - realization.h) ** 2
        / np.linalg.norm(realization.h) ** 2
    )
    assert nmse_db < -40.0
    assert loc_error < 0.05
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    _report(6, "end-to-end noiseless sanity", elapsed, 120,
            f"NMSE {nmse_db:.1f} dB, localization error {loc_error:.3f} m")


def test_acceptance_7_ordering_reproduction():
    tic = time.perf_counter()
    config = desk_profile(snr_db=(15.0,), trials=200)
    table = run_sweep(config)
    agg = {a["method"]: a for a in table.aggregates()}
    nm = {m: agg[m]["nmse_mean"] for m in config.methods}
    assert nm["proposed-sbl"] < nm["proposed-omp3"] < nm["stage1-only"]
    for baseline in ("antenna-wise-dft", "antenna-wise-spherical",
                     "antenna-wise-subarray-dft", "eigen-dictionary"):
        assert nm["proposed-sbl"] < nm[baseline], baseline
    assert agg["proposed-sbl"]["rmse_m"] < agg["random-combiner"]["rmse_m"]
    failures = table.failure_summary()
    elapsed = time.perf_counter() - tic
    assert elapsed < 600.0
    order = ", ".join(
        f"{m}={10 * np.log10(nm[m]):.1f}dB" for m in config.methods
    )
    _report(7, "ordering reproduction", elapsed, 600,
            f"{order}; rmse designed {agg['proposed-sbl']['rmse_m']:.3f} "
            f"< random {agg['random-combiner']['rmse_m']:.3f}; "
            f"failures {failures['failed']}/{failures['total']}")


def test_acceptance_8_determinism(tmp_path):
    tic = time.perf_counter()
    from nearmimo.cli import main

    cfg = desk_profile(
        methods=("proposed-sbl", "stage1-only"), snr_db=(10.0,), trials=2,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())

    sim_outs = []
    for run in ("a", "b"):
        out = tmp_path / f"sim_{run}"
        assert main([
            "simulate", "--config", str(cfg_path), "--method", "proposed-sbl",
            "--seed", "7", "--snr-db", "10", "--out", str(out),
        ]) == 0
        sim_outs.append(out)
    names = sorted(p.name for p in sim_outs[0].iterdir())
    for name in names:
        assert (sim_outs[0] / name).read_bytes() == (sim_outs[1] / name).read_bytes()

    sweep_outs = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep_{run}"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        sweep_outs.append(out)
    for name in ("sweep_rows.csv", "sweep_aggregate.csv", "sweep.json"):
        assert (sweep_outs[0] / name).read_bytes() == (sweep_outs[1] / name).read_bytes()
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    _report(8, "determinism", elapsed, 120,
            f"{len(names)} simulate artifacts + 3 sweep artifacts byte-identical")
