"""Property-based contracts, checked on derandomized hypothesis examples."""

import numpy as np
import pytest
from helpers import (
    assert_near_absolute,
    dense_combiner,
    dense_operator,
    grouped_reference,
    location_reference,
    music_reference,
    omp_reference,
    spherical_reference,
    tile_rows,
    ula_offsets,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearmimo import errors
from nearmimo.channel import _spherical_wave, far_field_steering
from nearmimo.dictionaries import build_angular, build_location, build_spherical_baseline
from nearmimo.doa import music_1d
from nearmimo.geometry import build_ula, build_upa, partition
from nearmimo.harness import METHODS, ExperimentConfig, SweepContext, desk_profile, run_trial
from nearmimo.pipeline import stage2
from nearmimo.sensing import design_combiner, random_combiner
from nearmimo.solvers import _GAMMA_CAP, _SPAN_RTOL, MatrixOperator, omp, sbl_em

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2

CONTRACT = settings(derandomize=True, max_examples=30, deadline=None)
# each example runs every method at every SNR point of its config
TRIAL_CONTRACT = settings(derandomize=True, max_examples=10, deadline=None)


def _scatter(seed, m, s):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (m, 3)), rng.uniform(2.0, 9.0, (s, 3))


@CONTRACT
@given(m=st.integers(40, 700), s=st.integers(3, 90), divide=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_spherical_wave_bit_identical_to_per_point_calls(m, s, divide, seed):
    # m * s spans one to many row blocks, most of them with a short last block
    antennas, points = _scatter(seed, m, s)
    full = _spherical_wave(antennas, points, WAVELENGTH, divide=divide)
    for j in range(s):
        np.testing.assert_array_equal(
            full[:, j], _spherical_wave(antennas, points[j:j + 1], WAVELENGTH, divide=divide)[:, 0])


@st.composite
def location_problems(draw):
    """A UPA, a user ULA, a complex precoder, grid counts and a center 0.3-15 m away."""
    n_ue = draw(st.integers(1, 5))
    parts = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    w = np.array([complex(draw(parts), draw(parts)) for _ in range(n_ue)])
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 20)))
    counts = tuple(draw(st.integers(1, 4)) for _ in range(3))
    distance = draw(st.floats(0.3, 15.0))
    azimuth, elevation = draw(st.floats(-1.2, 1.2)), draw(st.floats(-0.6, 0.6))
    center = distance * np.array([np.cos(elevation) * np.cos(azimuth),
                                  np.cos(elevation) * np.sin(azimuth), np.sin(elevation)])
    support = draw(st.lists(st.integers(0, int(np.prod(counts)) - 1), max_size=4, unique=True))
    return shape, w, counts, center, support


@CONTRACT
@given(problem=location_problems())
@example(problem=((12, 20), np.array([1.0, -2j, 0.5 + 0.5j, 3.0, -1.0]), (4, 4, 4),
                  np.array([15.0, 0.0, 0.0]), [63, 0]))
def test_precoded_atoms_equal_the_per_antenna_sum(problem):
    # bit for bit the documented per-pair sum over grouped displacements, and within 1e-12
    # of the per-antenna sum in absolute coordinates
    shape, w, counts, center, support = problem
    half_widths = (0.2, 0.2, 0.02)
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    offsets = ula_offsets(w.size, HALF)
    d = build_location(center, half_widths, counts, bs, offsets, WAVELENGTH, w)
    channels, atoms = grouped_reference(bs.positions, offsets, d.points, WAVELENGTH, w)
    np.testing.assert_array_equal(d.matrix, atoms)
    reference = location_reference(center, half_widths, counts, bs,
                                   build_ula(w.size, HALF, center), WAVELENGTH)
    assert_near_absolute(channels, d.matrix, reference, w)
    chosen = d.channels(support).reshape(w.size, bs.size, len(support))
    for n, block in enumerate(chosen):
        np.testing.assert_array_equal(block, channels[n * bs.size:(n + 1) * bs.size, support])
    assert len(d.displacements) <= bs.size * w.size


@st.composite
def kronecker_cases(draw):
    """A tiled array, an angular grid, a designed or random combiner, a scale and a support."""
    m_h, m_v = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    m_i = m_h * m_v
    m_s = draw(st.sampled_from([d for d in range(1, m_i + 1) if m_i % d == 0]))
    t_slots = draw(st.integers(m_s, m_s + 2))
    tiles_h, tiles_v = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    z = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    designed = draw(st.booleans())
    scale = draw(st.floats(0.1, 3.0))
    support = draw(st.lists(st.integers(0, z * z - 1), min_size=1, max_size=4, unique=True))
    return (m_h, m_v, m_s, t_slots, tiles_h, tiles_v, z), seed, designed, scale, support


def _relative(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@CONTRACT
@given(case=kronecker_cases())
# 2 x 3 tiles with M_s = 2: chain 1 takes the last antenna of row 0 and the first of row 1
@example(case=((2, 3, 2, 2, 2, 1, 5), 7, False, 0.7, [3, 11]))
def test_kronecker_operators_equal_the_dense_product(case):
    # scale * V_i (A_h ⊗ A_v) per tile, and the bare dictionary against V D
    (m_h, m_v, m_s, t_slots, tiles_h, tiles_v, z), seed, designed, scale, support = case
    bs = build_upa(tiles_h * m_h, tiles_v * m_v, HALF, HALF, (0, 0, 0))
    tiling = partition(bs, tiles_h, tiles_v)
    m_rf = m_h * m_v // m_s
    comb = design_combiner(t_slots, tiling, m_rf) if designed \
        else random_combiner(t_slots, tiling, m_rf, seed)
    d = build_angular(m_h, m_v, HALF, HALF, WAVELENGTH, z)
    kron = np.kron(d.a_h, d.a_v)
    np.testing.assert_array_equal(d.columns(slice(None)), kron)
    v = dense_combiner(comb)
    rng = np.random.default_rng(seed)
    op = d.tile_operator(comb, scale, np.arange(tiling.num_tiles))
    for i in range(tiling.num_tiles):
        ref = scale * v[np.ix_(tile_rows(comb, i), tiling.tiles[i].antenna_indices)] @ kron
        norms = np.linalg.norm(ref, axis=0)
        r = rng.standard_normal(ref.shape[0]) + 1j * rng.standard_normal(ref.shape[0])
        assert op.shape == ref.shape
        assert _relative(op.column_norms[i], norms) <= 1e-12
        assert _relative(op.scores(r[None], [i])[0], np.abs(r.conj() @ ref) / norms) <= 1e-12
        assert _relative(op.columns(support, [i] * len(support)), ref[:, support]) <= 1e-12
    if designed:  # V^H V = I: the full-array scores of V^H y are those of V D against y
        full = build_angular(bs.m_h, bs.m_v, HALF, HALF, WAVELENGTH, z)
        ref = v @ np.kron(full.a_h, full.a_v)
        y = rng.standard_normal(v.shape[0]) + 1j * rng.standard_normal(v.shape[0])
        assert _relative(full.column_norms, np.linalg.norm(ref, axis=0)) <= 1e-12
        assert _relative(full.scores(comb.adjoint(y[:, None])[:, 0]),
                         np.abs(y.conj() @ ref) / np.linalg.norm(ref, axis=0)) <= 1e-12
        assert _relative(v @ full.columns(support), ref[:, support]) <= 1e-12


@CONTRACT
@given(m_h=st.integers(1, 9), m_v=st.integers(1, 9), angle_grid=st.integers(1, 9),
       rings=st.lists(st.floats(1.0, 20.0), min_size=1, max_size=3, unique=True),
       seed=st.integers(0, 2**32 - 1))
@example(m_h=5, m_v=7, angle_grid=5, rings=[2.0, 3.5, 9.0], seed=1)
@example(m_h=4, m_v=1, angle_grid=6, rings=[3.0, 6.0], seed=2)
@example(m_h=1, m_v=9, angle_grid=9, rings=[1.5], seed=3)
def test_spherical_quarter_equals_the_formed_dictionary(m_h, m_v, angle_grid, rings, seed):
    # odd and even grids and sides, one-row arrays: every atom is a stored one, mirrored
    bs = build_upa(m_h, m_v, HALF, HALF, (0, 0, 0))
    d = build_spherical_baseline(bs, angle_grid, rings, WAVELENGTH)
    formed = spherical_reference(bs, angle_grid, rings, WAVELENGTH)
    np.testing.assert_array_equal(d.columns(slice(None)), formed)
    dense = MatrixOperator(formed, d.column_norms)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(bs.size) + 1j * rng.standard_normal(bs.size)
    reference = dense.scores(r)
    assert np.abs(d.scores(r) - reference).max() <= 1e-13 * reference.max()
    k = min(3, *formed.shape)
    y = formed[:, rng.choice(formed.shape[1], k, replace=False)] @ (
        rng.standard_normal(k) + 1j * rng.standard_normal(k)) + 0.01 * r
    np.testing.assert_array_equal(omp(d, y, max_atoms=k).support,
                                  omp(dense, y, max_atoms=k).support)


@st.composite
def sbl_problems(draw):
    """A planted sparse problem with complex Gaussian atoms at 0-40 dB SNR."""
    p, q = draw(st.integers(4, 16)), draw(st.integers(2, 30))
    k = draw(st.integers(1, min(3, q)))
    snr_db = draw(st.floats(0.0, 40.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)
    x = np.zeros(q, dtype=complex)
    x[rng.choice(q, k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = a @ x
    sigma2 = float(np.vdot(y, y).real) / p * 10 ** (-snr_db / 10)
    y = y + np.sqrt(sigma2 / 2) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
    return dense_operator(a), y, sigma2


def _support_is_sound(sol, state, q):
    support = sol.support
    assert np.all((support >= 0) & (support < q)) and np.unique(support).size == support.size
    assert set(support) <= set(state.active)
    np.testing.assert_array_equal(np.delete(sol.coefficients, support), 0)


@CONTRACT
@given(case=sbl_problems())
def test_sequential_sbl_converged_meets_its_stop_rule(case):
    # s, q recomputed from C = sigma^2 I + Phi Gamma Phi^H, formed densely
    op, y, sigma2 = case
    a = op.matrix
    tol = 1e-6
    sol, state = sbl_em(op, y, sigma2=sigma2, tol=tol)
    _support_is_sound(sol, state, a.shape[1])
    if not sol.converged:
        return
    model, gamma = state.active, state.gamma[state.active]
    c = sigma2 * np.eye(a.shape[0]) + (a[:, model] * gamma) @ a[:, model].conj().T
    big_s = np.real(np.sum(a.conj() * np.linalg.solve(c, a), axis=0))
    big_q = a.conj().T @ np.linalg.solve(c, y)
    s, q = big_s.copy(), big_q.copy()
    s[model] = big_s[model] / (1 - gamma * big_s[model])
    q[model] = big_q[model] / (1 - gamma * big_s[model])
    cap = _GAMMA_CAP * np.vdot(y, y).real / op.column_norms ** 2
    optimum = np.minimum(np.maximum(np.abs(q) ** 2 - s, 0) / s ** 2, cap)
    np.testing.assert_allclose(optimum[model], gamma, rtol=2 * tol)
    # every atom outside the model that the model does not span stays out
    outside = np.setdiff1d(np.arange(a.shape[1]), model)
    basis = np.linalg.qr(a[:, model])[0]
    rest = a[:, outside] - basis @ (basis.conj().T @ a[:, outside])
    joinable = np.sum(np.abs(rest) ** 2, axis=0) > 1e3 * _SPAN_RTOL * op.column_norms[outside] ** 2
    assert np.all(np.abs(q[outside][joinable]) ** 2 <= s[outside][joinable] * (1 + 1e-9))


@st.composite
def omp_problems(draw):
    """A planted sparse problem, tall or wide, with one or both stopping rules."""
    p, q = draw(st.integers(2, 16)), draw(st.integers(1, 16))
    max_atoms = draw(st.sampled_from([None, 1, min(p, q)]) | st.integers(1, min(p, q)))
    tols = st.sampled_from([1e-8, 1e-3, 0.1, 0.5, 1.0])
    residual_tol = draw(tols if max_atoms is None else st.none() | tols)
    k = draw(st.integers(1, min(p, q)))
    noise = draw(st.sampled_from([1.0, 0.1, 1e-3, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)
    x = np.zeros(q, dtype=complex)
    x[rng.choice(q, k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = a @ x + noise * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
    return dense_operator(a), y, max_atoms, residual_tol


@CONTRACT
@given(case=omp_problems())
def test_omp_converged_iff_tolerance_met_and_support_is_sound(case):
    op, y, max_atoms, residual_tol = case
    p, q = op.shape
    sol = omp(op, y, max_atoms=max_atoms, residual_tol=residual_tol)
    history = sol.residual_history
    assert sol.converged == (residual_tol is not None and history[-1] / history[0] <= residual_tol)
    support = sol.support
    assert np.unique(support).size == support.size <= (max_atoms or min(p, q))
    assert sol.iterations == support.size and len(history) == support.size + 1
    np.testing.assert_array_equal(np.delete(sol.coefficients, support), 0)


@st.composite
def omp_batches(draw):
    """A batch of generic or planted problems on one matrix, some of them zero, with a
    shared atom budget and one tolerance per problem."""
    p, q, b = draw(st.integers(2, 12)), draw(st.integers(1, 16)), draw(st.integers(1, 6))
    max_atoms = draw(st.none() | st.integers(1, min(p, q)))
    tols = st.lists(st.sampled_from([1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0]), min_size=b, max_size=b)
    residual_tol = np.array(draw(tols)) if max_atoms is None or draw(st.booleans()) else None
    kinds = draw(st.lists(st.sampled_from(["generic", "planted", "zero"]), min_size=b,
                          max_size=b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)
    ys = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
    for y, kind in zip(ys, kinds):
        if kind == "zero":
            y[:] = 0
        elif kind == "planted" and residual_tol is not None:  # an exact fit must stop it
            k = rng.integers(1, min(p, q) + 1)
            y[:] = a[:, rng.choice(q, k, replace=False)] @ y[:k]
    return a, ys, max_atoms, residual_tol


@CONTRACT
@given(case=omp_batches())
def test_batched_omp_equals_the_lstsq_reference_per_problem(case):
    # same supports, iterations and flags; coefficients and residual norms to 1e-9
    # relative: the QR refit and lstsq differ only in rounding
    a, ys, max_atoms, residual_tol = case
    sols = omp(dense_operator(a), ys, max_atoms=max_atoms, residual_tol=residual_tol)
    assert len(sols) == len(ys)
    for i, (y, sol) in enumerate(zip(ys, sols)):
        tol = None if residual_tol is None else residual_tol[i]
        ref = omp_reference(a, y, max_atoms=max_atoms, residual_tol=tol)
        np.testing.assert_array_equal(sol.support, ref.support)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
        scale = np.linalg.norm(ref.coefficients)
        assert np.linalg.norm(sol.coefficients - ref.coefficients) <= 1e-9 * scale
        np.testing.assert_allclose(sol.residual_history, ref.residual_history, rtol=0,
                                   atol=1e-9 * np.linalg.norm(y))
    assert sols.iterations == max(s.iterations for s in sols)
    assert sols.converged == all(s.converged for s in sols)
    assert len(sols.support) == sum(len(s.support) for s in sols)


@CONTRACT
@given(p=st.integers(3, 12), seed=st.integers(0, 2**32 - 1), b=st.integers(1, 5),
       data=st.data())
def test_batched_omp_raises_whenever_a_problem_repeats_an_atom(p, seed, b, data):
    # every atom is stored twice: a problem still running after its k distinct
    # atoms must pick a repeat, which the lstsq reference finds rank deficient
    k = data.draw(st.integers(1, p - 1))
    tols = np.array(data.draw(st.lists(st.sampled_from([1e-3, 0.5, 0.9, 1.0]),
                                       min_size=b, max_size=b)))
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    a = np.hstack([half, half])
    ys = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
    repeats = False
    for y, tol in zip(ys, tols):
        try:
            omp_reference(a, y, max_atoms=k + 1, residual_tol=tol)
        except errors.NumericalRankError:
            repeats = True
    if repeats:
        with pytest.raises(errors.NumericalRankError):
            omp(dense_operator(a), ys, max_atoms=k + 1, residual_tol=tols)
    else:
        omp(dense_operator(a), ys, max_atoms=k + 1, residual_tol=tols)


@CONTRACT
@given(m_h=st.integers(1, 9), m_v=st.integers(1, 9), z=st.integers(2, 12),
       rings=st.lists(st.floats(1.0, 20.0), min_size=1, max_size=3, unique=True),
       n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stacked_scores_equal_per_row_scores(m_h, m_v, z, rings, n, seed):
    bs = build_upa(m_h, m_v, HALF, HALF, (0, 0, 0))
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, bs.size)) + 1j * rng.standard_normal((n, bs.size))
    for d in (build_angular(m_h, m_v, HALF, HALF, WAVELENGTH, z),
              build_spherical_baseline(bs, z, rings, WAVELENGTH)):
        np.testing.assert_array_equal(d.scores(r), np.concatenate([d.scores(x[None]) for x in r]))


@st.composite
def axis_covariances(draw):
    """A stack of axis covariances: random PSD of any rank, rank-one plane waves off
    and on the 4096-point MUSIC grid."""
    m = draw(st.integers(2, 16))
    spacing = draw(st.sampled_from([HALF, 0.6 * WAVELENGTH, 0.3 * WAVELENGTH]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.linspace(-1.0, 1.0, 4096)
    covs = []
    for kind in draw(st.lists(st.sampled_from(["psd", "off", "on"]), min_size=1, max_size=6)):
        if kind == "psd":
            g = rng.standard_normal((m, rng.integers(1, m + 1))) * (1 + 1j)
            g += 1j * rng.standard_normal(g.shape)
            covs.append(g @ g.conj().T)
        else:
            cosine = rng.uniform(-0.95, 0.95) if kind == "off" else grid[rng.integers(100, 3996)]
            a = far_field_steering(m, spacing, cosine, WAVELENGTH)
            covs.append(np.outer(a, a.conj()))
    return m, spacing, np.array(covs)


@CONTRACT
@given(case=axis_covariances())
def test_stacked_music_peaks_equal_the_projection_reference(case):
    m, spacing, covs = case
    spec = music_1d(covs, m, spacing, WAVELENGTH)
    assert spec.values.shape == (len(covs), 4096) and spec.peak.shape == (len(covs),)
    for cov, peak in zip(covs, spec.peak):
        assert abs(peak - music_reference(cov, m, spacing, WAVELENGTH)[2]) <= 1e-9


@pytest.mark.parametrize("m", [2, 5, 8, 12])
def test_music_on_the_identity_is_flat_as_the_reference(m):
    # no direction stands out: both spectra are flat to rounding, so the reference's
    # argmax falls wherever rounding puts it and only the spectra compare
    spec = music_1d(np.eye(m, dtype=complex)[None], m, HALF, WAVELENGTH)
    _grid, values, _peak = music_reference(np.eye(m, dtype=complex), m, HALF, WAVELENGTH)
    np.testing.assert_allclose(spec.values[0], values, rtol=1e-12)
    assert -1.0 <= spec.peak[0] <= 1.0


@CONTRACT
@given(tiles=st.lists(st.sampled_from(["random", "plane", "zero"]), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(tiles=["zero", "plane", "plane", "random"], seed=0)
def test_batched_stage2_equals_the_per_tile_reference(tiles, seed):
    # per tile: the block averages of h h^H, the projection MUSIC, its cosines
    bs = build_upa(8, 12, HALF, HALF, (0, 0, 0))
    tiling = partition(bs, 2, 2)
    geom = tiling.tiles[0].geometry
    rng = np.random.default_rng(seed)
    h_sub = np.zeros(bs.size, dtype=complex)
    for tile, kind in zip(tiling.tiles, tiles):
        if kind == "random":
            h = rng.standard_normal(geom.size) + 1j * rng.standard_normal(geom.size)
        elif kind == "plane":
            h = np.kron(far_field_steering(geom.m_h, HALF, rng.uniform(-0.6, 0.6), WAVELENGTH),
                        far_field_steering(geom.m_v, HALF, rng.uniform(-0.6, 0.6), WAVELENGTH))
        else:
            h = np.zeros(geom.size)
        h_sub[tile.antenna_indices] = h
    try:
        _estimate, directions = stage2(h_sub, tiling, WAVELENGTH)
    except errors.StageFailure:
        directions = None
    expected = []
    for tile in tiling.tiles:
        h = h_sub[tile.antenna_indices]
        if not np.any(h):
            expected.append(None)
            continue
        blocks = np.outer(h, h.conj()).reshape(geom.m_h, geom.m_v, geom.m_h, geom.m_v)
        c_v = np.mean([blocks[p, :, p, :] for p in range(geom.m_h)], axis=0)
        c_h = np.einsum("pmqm->pq", blocks) / geom.m_v
        k = []
        for c, m_e in ((c_h, geom.m_h), (c_v, geom.m_v)):
            scale = 1.0 / np.sqrt(np.diag(c).real)
            k.append(music_reference(c * np.outer(scale, scale), m_e, HALF, WAVELENGTH)[2])
        expected.append(k if k[0] ** 2 + k[1] ** 2 <= 1.0 + 1e-12 else None)
    if directions is None:
        assert sum(e is not None for e in expected) < 2
        return
    for got, ref in zip(directions, expected):
        assert (got is None) == (ref is None)
        if got is not None:
            assert np.abs(got[1:] - ref).max() <= 1e-9


@st.composite
def desk_configs(draw):
    """A small desk config that ``SweepContext`` accepts."""
    tiles_h, tiles_v = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    tile_h, tile_v = draw(st.sampled_from((2, 4))), draw(st.sampled_from((3, 4, 6)))
    m_i = tile_h * tile_v
    m_s = draw(st.sampled_from([d for d in range(1, m_i + 1) if m_i % d == 0]))
    return desk_profile(
        bs_m_h=tiles_h * tile_h, bs_m_v=tiles_v * tile_v, tiles_h=tiles_h, tiles_v=tiles_v,
        m_s=m_s, t_slots=draw(st.integers(m_s, m_s + 2)), n_ue=draw(st.integers(1, 3)),
        num_nlos=draw(st.integers(0, 2)),
        snr_db=(-10.0, 5.0, 25.0, 50.0, float("inf")), trials=1,
    )


@TRIAL_CONTRACT
@given(cfg=desk_configs())
def test_config_survives_a_json_round_trip(cfg):
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


@TRIAL_CONTRACT
@given(cfg=desk_configs())
def test_run_trial_returns_a_row_for_every_method(cfg):
    # a row is ok with a finite NMSE, or names the library error that stopped it
    ctx = SweepContext(cfg)
    for method in METHODS:
        for snr_db in cfg.snr_db:
            row = run_trial(ctx, method, snr_db, 0)
            if row.status == "ok":
                assert np.isfinite(row.nmse), (method, snr_db)
            else:
                assert issubclass(getattr(errors, row.status), errors.NearMimoError), row
