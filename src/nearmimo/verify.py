"""Fast invariant suite behind ``nearmimo verify``.

Each check re-validates one module-level guarantee on a small
configuration and prints a PASS/FAIL line; the suite returns False as
soon as every check has run if any failed.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    Scene,
    far_field_steering,
    los_channel,
    near_field_steering,
    planar_far_field_steering,
    synthesize,
)
from .dictionaries import build_angular, build_location
from .doa import extract_axis_factors, music_1d, subarray_covariance
from .geometry import build_ula, build_upa, partition, recover_kx, wave_vector
from .harness import ExperimentConfig, desk_profile, nmse, rmse
from .localization import Ray, ls_intersect
from .sensing import (
    design_combiner,
    design_precoder_dft,
    empirical_noise_covariance,
)
from .solvers import SparseProblem, omp, sbl_em

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


def _check_geometry() -> bool:
    geom = build_upa(8, 16, HALF, HALF, (0, 0, 0))
    ok = np.allclose(geom.positions.mean(axis=0), geom.center, atol=1e-12)
    tiling = partition(geom, 2, 2)
    idx = np.sort(np.concatenate([t.antenna_indices for t in tiling.tiles]))
    ok &= bool(np.array_equal(idx, np.arange(geom.size)))
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = rng.uniform(1e-3, np.pi - 1e-3)
        phi = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
        k = wave_vector(theta, phi)
        ok &= abs(recover_kx(k[1], k[2])[0] - k[0]) < 1e-12
    return bool(ok)


def _check_channel() -> bool:
    bs = build_upa(4, 4, HALF, HALF, (0, 0, 0))
    ue = build_ula(2, HALF, (8, 1, -1))
    h = los_channel(bs, ue, WAVELENGTH)
    r = np.linalg.norm(bs.positions[:, None] - ue.positions[None, :], axis=-1)
    ok = np.allclose(np.abs(h), 1.0 / r, rtol=1e-12)
    scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH)
    a = synthesize(scene, 7)
    b = synthesize(scene, 7)
    ok &= bool(np.array_equal(a.h, b.h))
    ok &= bool(np.array_equal(a.h, a.h_los + a.h_nlos))
    return bool(ok)


def _check_combiner() -> bool:
    tiling = partition(build_upa(8, 16, HALF, HALF, (0, 0, 0)), 2, 2)
    design = design_combiner(4, tiling, m_rf_per_tile=8)
    design.verify()
    w = design_precoder_dft(4).w
    return bool(np.allclose(w @ w.conj().T, np.eye(4), atol=1e-12))


def _check_whiteness() -> bool:
    tiling = partition(build_upa(8, 16, HALF, HALF, (0, 0, 0)), 2, 2)
    design = design_combiner(4, tiling, m_rf_per_tile=8)
    sigma2 = 1.7
    cov = empirical_noise_covariance(design, sigma2, n_samples=10_000, seed=3)
    diag = np.real(np.diag(cov))
    off = cov - np.diag(np.diag(cov))
    return bool(
        abs(diag.mean() - sigma2) < 0.05 * sigma2
        and np.abs(off).max() < 0.05 * sigma2
    )


def _check_omp() -> bool:
    d = build_angular(4, 4, HALF, HALF, WAVELENGTH, 8)
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        atoms = rng.choice(d.num_atoms, size=2, replace=False)
        z1, z2 = atoms // 8, atoms % 8
        if max(abs(z1[0] - z1[1]), abs(z2[0] - z2[1])) < 2:
            continue
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = d.matrix[:, atoms] @ coeffs
        sol = omp(SparseProblem(d.matrix, y), max_atoms=2)
        x_true = np.zeros(d.num_atoms, dtype=complex)
        x_true[atoms] = coeffs
        ok &= np.linalg.norm(sol.coefficients - x_true) < 1e-10 * np.linalg.norm(x_true)
    return bool(ok)


def _check_sbl() -> bool:
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(5):
        a = (rng.standard_normal((20, 12)) + 1j * rng.standard_normal((20, 12))) / np.sqrt(2)
        x = np.zeros(12, dtype=complex)
        x[rng.choice(12, 2, replace=False)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = a @ x + 0.05 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        problem = SparseProblem(a, y)
        _sol, state = sbl_em(problem, sigma2=0.0025)
        lhs = (a.conj().T @ a / 0.0025 + np.diag(1.0 / state.gamma)) @ state.mean
        rhs = a.conj().T @ y / 0.0025
        ok &= np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8
        ev = np.array(state.evidence)
        ok &= bool(np.all(np.diff(ev) >= -1e-9))
    return bool(ok)


def _check_doa() -> bool:
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        cos_h = rng.uniform(-0.9, 0.9)
        cos_v = rng.uniform(-0.9, 0.9)
        vec = planar_far_field_steering(4, 8, HALF, HALF, cos_h, cos_v, WAVELENGTH)
        c_h, c_v = extract_axis_factors(subarray_covariance(vec), 4, 8)
        ah = far_field_steering(4, HALF, cos_h, WAVELENGTH)
        ok &= np.allclose(c_h.matrix, np.outer(ah, ah.conj()), atol=1e-12)
        est = music_1d(c_v, 8, HALF, WAVELENGTH).peak
        ok &= abs(est - cos_v) < 1e-4
    return bool(ok)


def _check_localization() -> bool:
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(20):
        target = rng.uniform([2, -2, -2], [8, 2, 0])
        origins = rng.uniform(-1, 1, size=(5, 3))
        rays = []
        for o in origins:
            d = target - o
            rays.append(Ray(origin=o, direction=d / np.linalg.norm(d)))
        est = ls_intersect(rays)
        ok &= np.linalg.norm(est.point - target) < 1e-9
    return bool(ok)


def _check_location_dictionary() -> bool:
    bs = build_upa(4, 4, HALF, HALF, (0, 0, 0))
    ue = build_ula(2, HALF, (4, 0.5, -1))
    w = np.array([0.6, 0.8j])
    d = build_location((4, 0.5, -1), 0.1, 0.1, 0.01, 3, 3, 3, bs, ue, WAVELENGTH, w)
    truth = los_channel(bs, ue, WAVELENGTH)
    idx = np.argmin(np.linalg.norm(d.points - np.array([4, 0.5, -1]), axis=1))
    ok = np.allclose(d.channels([idx])[:, 0], truth.ravel(order="F"), atol=1e-12)
    return bool(ok and np.allclose(d.matrix[:, idx], truth @ w, atol=1e-12))


def _check_metrics_and_config() -> bool:
    h = np.ones((3, 2), dtype=complex)
    ok = nmse(h, h) == 0.0 and nmse(np.zeros_like(h), h) == 1.0
    ok &= abs(rmse([[0.03, 0.04, 0.0]], [[0.0, 0.0, 0.0]]) - 0.05) < 1e-12
    cfg = desk_profile()
    ok &= ExperimentConfig.from_json(cfg.to_json()) == cfg
    return bool(ok)


CHECKS = (
    ("geometry invariants", _check_geometry),
    ("channel synthesis", _check_channel),
    ("combiner orthogonality", _check_combiner),
    ("noise whiteness", _check_whiteness),
    ("omp recovery", _check_omp),
    ("sbl consistency", _check_sbl),
    ("doa extraction + music", _check_doa),
    ("ls localization", _check_localization),
    ("location dictionary", _check_location_dictionary),
    ("metrics + config roundtrip", _check_metrics_and_config),
)


def run_verification(out=print) -> bool:
    """Run every invariant check; report one PASS/FAIL line per check."""
    all_ok = True
    for name, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            out(f"FAIL {name}: {type(exc).__name__}: {exc}")
            all_ok = False
            continue
        out(f"{'PASS' if ok else 'FAIL'} {name}")
        all_ok &= ok
    return all_ok
