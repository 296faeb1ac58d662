"""Property-based contracts, checked on derandomized hypothesis examples."""

import numpy as np
from helpers import dense_combiner, dense_operator, ula_offsets
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearmimo import errors
from nearmimo.channel import _spherical_wave
from nearmimo.dictionaries import build_angular, build_location
from nearmimo.geometry import build_upa, partition
from nearmimo.harness import METHODS, ExperimentConfig, SweepContext, desk_profile, run_trial
from nearmimo.sensing import design_combiner, random_combiner
from nearmimo.solvers import _GAMMA_CAP, _SPAN_RTOL, omp, sbl_em

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
    n_ue = draw(st.integers(1, 5))
    parts = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    w = [complex(draw(parts), draw(parts)) for _ in range(n_ue)]
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 20)))
    counts = tuple(draw(st.integers(1, 4)) for _ in range(3))
    return shape, np.array(w), counts


@CONTRACT
@given(problem=location_problems())
def test_precoded_atoms_equal_the_per_antenna_sum(problem):
    shape, w, counts = problem
    center = (5.0, 0.5, -1.0)
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    d = build_location(center, (0.2, 0.2, 0.02), counts, bs, ula_offsets(w.size, HALF),
                       WAVELENGTH, w)
    expected = np.zeros((bs.size, d.matrix.shape[1]), dtype=complex)
    for offset, w_n in zip(d.offsets, w):
        expected += _spherical_wave(bs.positions, d.points + offset, WAVELENGTH, divide=True) * w_n
    np.testing.assert_array_equal(d.matrix, expected)


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
    for i, op in enumerate(d.tile_operators(comb, scale)):
        ref = scale * v[np.ix_(comb.tile_rows(i), tiling.tiles[i].antenna_indices)] @ kron
        norms = np.linalg.norm(ref, axis=0)
        r = rng.standard_normal(ref.shape[0]) + 1j * rng.standard_normal(ref.shape[0])
        assert op.shape == ref.shape
        assert _relative(op.column_norms, norms) <= 1e-12
        assert _relative(op.scores(r), np.abs(r.conj() @ ref) / norms) <= 1e-12
        assert _relative(op.columns(support), ref[:, support]) <= 1e-12
    if designed:  # V^H V = I: the full-array scores of V^H y are those of V D against y
        full = build_angular(bs.m_h, bs.m_v, HALF, HALF, WAVELENGTH, z)
        ref = v @ np.kron(full.a_h, full.a_v)
        y = rng.standard_normal(v.shape[0]) + 1j * rng.standard_normal(v.shape[0])
        assert _relative(full.column_norms, np.linalg.norm(ref, axis=0)) <= 1e-12
        assert _relative(full.scores(comb.adjoint(y[:, None])[:, 0]),
                         np.abs(y.conj() @ ref) / np.linalg.norm(ref, axis=0)) <= 1e-12
        assert _relative(v @ full.columns(support), ref[:, support]) <= 1e-12


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
