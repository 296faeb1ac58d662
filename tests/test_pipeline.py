import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import dense_combiner, dense_operator, tile_rows, ula_offsets, wave_vector

from nearmimo.channel import Scene, synthesize
from nearmimo.dictionaries import (
    SphericalDictionary,
    TileOperator,
    build_angular,
    build_spherical_baseline,
    reciprocal_distance_rings,
)
from nearmimo.errors import StageFailure
from nearmimo.geometry import build_ula, build_upa, partition
from nearmimo.harness import draw_scene, noise_var_for_snr, paper_profile
from nearmimo.localization import Ray, ls_intersect
from nearmimo.pipeline import (
    BASELINE_MAX_ATOMS,
    OMP_TOL,
    STAGE1_MAX_ATOMS,
    baseline_antenna_wise,
    baseline_eigen_dictionary,
    baseline_subarray_antenna_wise,
    location_operator,
    simulate_reception,
    stage1,
    stage2,
    stage3,
)
from nearmimo.sensing import (
    CombinerDesign,
    design_combiner,
    design_precoder_dft,
    random_combiner,
    uniform_precoder,
)
from nearmimo.solvers import omp

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2
PAPER_STAGES = paper_profile().stages


@pytest.fixture(scope="module")
def desk():
    bs = build_upa(8, 16, HALF, HALF, (0, 0, 0))
    tiling = partition(bs, 2, 2)
    combiner = design_combiner(4, tiling, m_rf_per_tile=8)
    tile = tiling.tiles[0].geometry
    dictionary = build_angular(tile.m_h, tile.m_v, tile.d_h, tile.d_v, WAVELENGTH, 32)
    ue = build_ula(2, HALF, (2.5, 0.5, -1.0))
    scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
    real = synthesize(scene, rng_seed=0)
    return {
        "bs": bs, "tiling": tiling, "combiner": combiner,
        "dictionary": dictionary, "ue": ue, "scene": scene, "real": real,
    }


def dft_record(scene, real, comb, seed):
    """The antenna-wise baselines' record: N DFT-precoded blocks at ``p/N`` each."""
    n = scene.ue.size
    return simulate_reception(scene, real, comb, design_precoder_dft(n), seed,
                              power=scene.power / n)


class TestSimulateReception:
    def test_noiseless_equals_product(self, desk):
        scene, real, comb = desk["scene"], desk["real"], desk["combiner"]
        precoder = uniform_precoder(2)
        rec = simulate_reception(scene, real, comb, precoder, seed=5)
        expected = dense_combiner(comb) @ (real.h @ precoder.w)
        np.testing.assert_allclose(rec.observations, expected, atol=1e-12)

    def test_same_seed_identical(self, desk):
        scene = desk["scene"].with_noise_var(0.01)
        precoder = uniform_precoder(2)
        a = simulate_reception(scene, desk["real"], desk["combiner"], precoder, seed=5)
        b = simulate_reception(scene, desk["real"], desk["combiner"], precoder, seed=5)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_different_seed_differs(self, desk):
        scene = desk["scene"].with_noise_var(0.01)
        precoder = uniform_precoder(2)
        a = simulate_reception(scene, desk["real"], desk["combiner"], precoder, seed=5)
        b = simulate_reception(scene, desk["real"], desk["combiner"], precoder, seed=6)
        assert not np.array_equal(a.observations, b.observations)

    def test_shape_mismatch_rejected(self, desk):
        with pytest.raises(ValueError):
            simulate_reception(
                desk["scene"], desk["real"], desk["combiner"],
                design_precoder_dft(3), seed=0,
            )

    def test_pilot_energy_parity(self, desk):
        scene, real, comb = desk["scene"], desk["real"], desk["combiner"]
        n = scene.ue.size
        single = simulate_reception(scene, real, comb, uniform_precoder(n), seed=0)
        multi = simulate_reception(
            scene, real, comb, design_precoder_dft(n), seed=0, power=scene.power / n
        )
        # each block repeats T slots at power p through precoder column w
        def energy(rec):
            return rec.combiner.t_slots * rec.power * float(np.sum(np.abs(rec.precoder.w) ** 2))

        assert energy(single) == pytest.approx(energy(multi), rel=1e-12)


class TestStage1:
    def test_slicing_reassembles_observation(self, desk):
        comb = desk["combiner"]
        rec = simulate_reception(
            desk["scene"], desk["real"], comb, uniform_precoder(2), seed=1
        )
        y = rec.observations[:, 0]
        recon = np.empty_like(y)
        for i in range(comb.tiling.num_tiles):
            recon[tile_rows(comb, i)] = y[tile_rows(comb, i)]
        np.testing.assert_array_equal(recon, y)
        all_rows = np.sort(np.concatenate(
            [tile_rows(comb, i) for i in range(comb.tiling.num_tiles)]
        ))
        np.testing.assert_array_equal(all_rows, np.arange(y.size))

    def test_on_grid_far_user_recovers_grid_atom(self, desk):
        # plant a far on-grid source: every tile sees the same plane wave,
        # so each tile's dominant atom must be the planted grid pair
        bs, tiling, comb, d = (
            desk["bs"], desk["tiling"], desk["combiner"], desk["dictionary"]
        )
        z1, z2 = 20, 9
        cos_h, cos_v = d.cosines[z1], d.cosines[z2]
        theta = np.arccos(cos_v)
        phi = np.arcsin(np.clip(cos_h / np.sin(theta), -1, 1))
        source = 5e4 * wave_vector(theta, phi)
        ue = build_ula(2, HALF, source)
        scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
        real = synthesize(scene, rng_seed=0)
        rec = simulate_reception(scene, real, comb, uniform_precoder(2), seed=0)
        sols, _ = stage1(rec, d)
        for sol in sols:
            assert sol.support[0] == z1 * d.cosines.size + z2

    def test_requires_uniform_precoder(self, desk):
        rec = simulate_reception(
            desk["scene"], desk["real"], desk["combiner"],
            design_precoder_dft(2), seed=0, power=0.5,
        )
        with pytest.raises(ValueError):
            stage1(rec, desk["dictionary"])

    def test_correlation_work_scales_as_claimed(self):
        # per OMP iteration a tile's Kronecker scores take T*M_rf_i*M_s
        # products for V_i^H r and Z*m_h*m_v + Z*m_v*Z for A_h^H Z conj(A_v),
        # against T*M_rf_i*Z^2 for the formed operator (operation counts,
        # independent of wall time)
        bs = build_upa(16, 48, HALF, HALF, (0, 0, 0))
        tiling = partition(bs, 2, 4)
        comb = design_combiner(6, tiling, m_rf_per_tile=16)
        d = build_angular(8, 12, HALF, HALF, WAVELENGTH, 64)
        rows, atoms = d.tile_operator(comb, 1.0, np.arange(tiling.num_tiles)).shape
        assert (rows, atoms) == (6 * 16, 64 ** 2)
        kronecker = rows * comb.m_s + 64 * 8 * 12 + 64 * 12 * 64
        assert kronecker == 55_872
        assert rows * atoms > 7 * kronecker


def kron_reference(dictionary) -> np.ndarray:
    """The formed angular dictionary ``A_h ⊗ A_v``, the dense reference of its operators."""
    return np.kron(dictionary.a_h, dictionary.a_v)


def tile_reference(comb, i, dictionary, scale) -> np.ndarray:
    """The formed tile operator ``scale * V_i (A_h ⊗ A_v)``, from the dense combiner."""
    v_i = dense_combiner(comb)[np.ix_(tile_rows(comb, i), comb.tiling.tiles[i].antenna_indices)]
    return scale * v_i @ kron_reference(dictionary)


class TestSharedTileOperator:
    """Stage 1 and the per-subarray baseline never form a Z^2-column operator.

    The designed combiner's column norms are a constant and take no tile
    Gram; a random combiner's come from one call for all tiles.  The references
    form every tile's ``scale * V_i (A_h ⊗ A_v)`` and solve its problem
    densely: the supports agree, and the coefficients and channels agree
    to 1e-10 relative.  The two paths differ only in the rounding of the
    scores and of the formed support columns (1e-15 relative), which the
    K <= 6 column least-squares refit can amplify by its condition number.
    """

    TOL = 1e-10

    @pytest.fixture(params=["designed", "random"])
    def case(self, request, desk):
        if request.param == "designed":
            comb, expected = desk["combiner"], 0
        else:
            comb = random_combiner(4, desk["tiling"], m_rf_per_tile=8, seed=3)
            expected = 1
        scene = desk["scene"].with_noise_var(0.01)
        return comb, expected, scene, desk["real"], desk["dictionary"]

    @staticmethod
    def record_work(monkeypatch) -> dict:
        """Record the column count of every ``apply_tile`` input and of every batch of
        tile-operator columns, and each call that forms the tile Grams."""
        work = {"columns": [], "grams": []}
        apply_tile, tile_grams = CombinerDesign.apply_tile, CombinerDesign.tile_grams
        columns = TileOperator.columns

        def counting_apply(self, i, x):
            work["columns"].append(x.shape[-1])
            return apply_tile(self, i, x)

        def counting_columns(self, support, problems):
            work["columns"].append(len(support))
            return columns(self, support, problems)

        def counting_grams(self):
            work["grams"].append(self)
            return tile_grams(self)

        monkeypatch.setattr(CombinerDesign, "apply_tile", counting_apply)
        monkeypatch.setattr(TileOperator, "columns", counting_columns)
        monkeypatch.setattr(CombinerDesign, "tile_grams", counting_grams)
        return work

    def assert_close(self, got, ref):
        assert np.linalg.norm(got - ref) <= self.TOL * np.linalg.norm(ref)

    def test_stage1_forms_no_dense_operator(self, case, monkeypatch):
        comb, expected, scene, real, d = case
        rec = simulate_reception(scene, real, comb, uniform_precoder(2), seed=7)
        work = self.record_work(monkeypatch)
        sols, h_sub = stage1(rec, d)
        assert len(work["grams"]) == expected
        assert max(work["columns"]) < d.shape[1]
        monkeypatch.undo()

        scale = np.sqrt(rec.power / 2)
        y = rec.observations[:, 0]
        for i, tile in enumerate(comb.tiling.tiles):
            a_bar = tile_reference(comb, i, d, scale)
            ref = omp(dense_operator(a_bar), y[tile_rows(comb, i)],
                      max_atoms=STAGE1_MAX_ATOMS, residual_tol=OMP_TOL)
            np.testing.assert_array_equal(sols[i].support, ref.support)
            self.assert_close(sols[i].coefficients, ref.coefficients)
            self.assert_close(h_sub[tile.antenna_indices], kron_reference(d) @ ref.coefficients)

    def test_subarray_baseline_forms_no_dense_operator(self, case, monkeypatch):
        comb, expected, scene, real, d = case
        n = scene.ue.size
        rec = dft_record(scene, real, comb, seed=7)
        work = self.record_work(monkeypatch)
        h_hat = baseline_subarray_antenna_wise(rec, d)
        assert len(work["grams"]) == expected
        assert max(work["columns"]) < d.shape[1]
        monkeypatch.undo()

        per_antenna = rec.observations @ rec.precoder.w.conj().T
        ref = np.zeros_like(h_hat)
        for i, tile in enumerate(comb.tiling.tiles):
            a_bar = tile_reference(comb, i, d, np.sqrt(rec.power))
            for col in range(n):
                sol = omp(dense_operator(a_bar), per_antenna[tile_rows(comb, i), col],
                          max_atoms=BASELINE_MAX_ATOMS, residual_tol=OMP_TOL)
                ref[tile.antenna_indices, col] = kron_reference(d) @ sol.coefficients
        self.assert_close(h_hat, ref)


class TestStage2:
    def test_exact_ray_injection_recovers_center(self, desk):
        # bypassing MUSIC: rays built from true directions give back the point
        target = np.array([2.5, 0.5, -1.0])
        rays = []
        for tile in desk["tiling"].tiles:
            d = target - tile.geometry.center
            rays.append(Ray(origin=tile.geometry.center, direction=d / np.linalg.norm(d)))
        est = ls_intersect(rays)
        assert np.linalg.norm(est.point - target) < 1e-9

    def test_noiseless_pipeline_locates_user(self, desk):
        rec = simulate_reception(
            desk["scene"], desk["real"], desk["combiner"], uniform_precoder(2), seed=1
        )
        _sols, h_sub = stage1(rec, desk["dictionary"])
        est, dirs = stage2(h_sub, desk["tiling"], WAVELENGTH)
        assert sum(d is not None for d in dirs) == 4
        assert np.linalg.norm(est.point - [2.5, 0.5, -1.0]) < 0.25

    def test_all_zero_channels_fail_cleanly(self, desk):
        zeros = np.zeros(desk["bs"].size, dtype=complex)
        with pytest.raises(StageFailure):
            stage2(zeros, desk["tiling"], WAVELENGTH)


class TestStage3:
    def test_operator_matches_kron_identity(self, desk):
        # (w^T ⊗ V) vec(H) must equal sqrt(p) V (H w) for every dictionary column
        comb = desk["combiner"]
        rec = simulate_reception(
            desk["scene"], desk["real"], comb, uniform_precoder(2), seed=2
        )
        rng = np.random.default_rng(0)
        cols = rng.standard_normal((comb.num_antennas * 2, 3)) \
            + 1j * rng.standard_normal((comb.num_antennas * 2, 3))
        w = rec.precoder.w[:, 0]
        atoms = np.einsum("mns,n->ms", cols.reshape(comb.num_antennas, 2, -1, order="F"), w)
        op = location_operator(rec, atoms)
        kron_op = np.sqrt(rec.power) * np.kron(w[None, :], dense_combiner(comb))
        np.testing.assert_allclose(op, kron_op @ cols, atol=1e-10)

    def test_true_center_on_grid_noiseless(self, desk):
        scene, real = desk["scene"], desk["real"]
        rec = simulate_reception(
            scene, real, desk["combiner"], uniform_precoder(2), seed=3
        )
        sol, h_hat = stage3(
            rec, scene.ue.center, ula_offsets(2, HALF), WAVELENGTH,
            replace(PAPER_STAGES, grid_counts=(3, 3, 3), grid_half_widths=(0.05, 0.05, 0.01)),
        )
        nmse = np.linalg.norm(h_hat - real.h) ** 2 / np.linalg.norm(real.h) ** 2
        assert 10 * np.log10(nmse) < -80

    def test_noisy_sbl_prunes_and_converges(self, desk):
        scene, real = desk["scene"], desk["real"]
        noise_var = np.linalg.norm(real.h) ** 2 / (real.h.size * 100.0)  # 20 dB SNR
        rec = simulate_reception(
            scene.with_noise_var(noise_var), real, desk["combiner"], uniform_precoder(2),
            seed=3,
        )
        sol, h_hat = stage3(rec, scene.ue.center, ula_offsets(2, HALF), WAVELENGTH, PAPER_STAGES)
        assert sol.converged
        assert sol.support.size < np.prod(PAPER_STAGES.grid_counts) / 4
        nmse = np.linalg.norm(h_hat - real.h) ** 2 / np.linalg.norm(real.h) ** 2
        assert 10 * np.log10(nmse) < -25

    def test_paper_sbl_peak_stays_near_its_operator(self):
        # the 768 x 363 atoms and the operator set the peak; a (M*N) x S
        # vec(H) dictionary (17.8 MB) or a Q x Q Gram would push it past the bound
        cfg = paper_profile()
        bs = build_upa(cfg.bs_m_h, cfg.bs_m_v, HALF, HALF, (0, 0, 0))
        tiling = partition(bs, cfg.tiles_h, cfg.tiles_v)
        comb = design_combiner(cfg.t_slots, tiling, tiling.tiles[0].geometry.size // cfg.m_s)
        scene = draw_scene(cfg, bs, seed=7)
        real = synthesize(scene, rng_seed=1)
        scene = scene.with_noise_var(noise_var_for_snr(scene.power, real.h, 10.0))
        rec = simulate_reception(scene, real, comb, uniform_precoder(cfg.n_ue), seed=2)
        p_hat = scene.ue.center + np.array([0.03, -0.02, 0.0])
        tracemalloc.start()
        try:
            sol, h_hat = stage3(rec, p_hat, ula_offsets(cfg.n_ue, cfg.wavelength / 2),
                                cfg.wavelength, cfg.stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak / 1e6
        assert sol.converged
        nmse = np.linalg.norm(h_hat - real.h) ** 2 / np.linalg.norm(real.h) ** 2
        assert 10 * np.log10(nmse) < -15

    def test_single_point_grid_is_least_squares(self, desk):
        scene, real = desk["scene"], desk["real"]
        rec = simulate_reception(
            scene, real, desk["combiner"], uniform_precoder(2), seed=3
        )
        sol, h_hat = stage3(
            rec, scene.ue.center, ula_offsets(2, HALF), WAVELENGTH,
            replace(PAPER_STAGES, grid_counts=(1, 1, 1), grid_half_widths=(0, 0, 0)),
        )
        assert sol.coefficients.size == 1
        assert abs(sol.coefficients[0] - 1.0) < 1e-3
        nmse = np.linalg.norm(h_hat - real.h) ** 2 / np.linalg.norm(real.h) ** 2
        assert nmse < 1e-10


def run_stages(scene, real, comb, dictionary, seed):
    """Stages 1-3 on one single-block reception, in the order the harness runs them."""
    rec = simulate_reception(scene, real, comb, uniform_precoder(scene.ue.size), seed)
    _sols, h_sub = stage1(rec, dictionary)
    estimate, _dirs = stage2(h_sub, comb.tiling, scene.wavelength)
    _sol, h_hat = stage3(rec, estimate.point, ula_offsets(scene.ue.size, scene.ue.d_h),
                         scene.wavelength, PAPER_STAGES)
    return h_sub, estimate, h_hat


class TestThreeStage:
    def test_deterministic(self, desk):
        scene = desk["scene"].with_noise_var(1e-6)
        args = (scene, desk["real"], desk["combiner"], desk["dictionary"], 9)
        _h_sub_a, est_a, h_a = run_stages(*args)
        _h_sub_b, est_b, h_b = run_stages(*args)
        np.testing.assert_array_equal(h_a, h_b)
        np.testing.assert_array_equal(est_a.point, est_b.point)

    def test_noiseless_los_only_high_accuracy(self, desk):
        _h_sub, estimate, h_hat = run_stages(
            desk["scene"], desk["real"], desk["combiner"], desk["dictionary"], 9
        )
        nmse = np.linalg.norm(h_hat - desk["real"].h) ** 2 / np.linalg.norm(desk["real"].h) ** 2
        assert 10 * np.log10(nmse) < -40
        assert np.linalg.norm(estimate.point - [2.5, 0.5, -1.0]) < 0.05

    def test_beats_stage1_only_assembly(self, desk):
        h_sub, _estimate, h_hat = run_stages(
            desk["scene"], desk["real"], desk["combiner"], desk["dictionary"], 9
        )
        h1 = np.outer(h_sub, np.ones(2)) / 2  # stage 1's column sum, split equally
        h = desk["real"].h
        nmse3 = np.linalg.norm(h_hat - h) ** 2 / np.linalg.norm(h) ** 2
        nmse1 = np.linalg.norm(h1 - h) ** 2 / np.linalg.norm(h) ** 2
        assert nmse3 < nmse1


def dense_dictionary(op) -> np.ndarray:
    """A full-array dictionary as a matrix: the spherical one's every atom, or ``A_h ⊗ A_v``."""
    return op.columns(slice(None)) if isinstance(op, SphericalDictionary) else kron_reference(op)


def explicit_operator_baseline(rec, dictionary):
    """The full-array antenna-wise baseline on the formed operator ``sqrt(p) V D``."""
    d = dense_dictionary(dictionary)
    per_antenna = rec.observations @ rec.precoder.w.conj().T
    a_bar = np.sqrt(rec.power) * rec.combiner.apply(d)
    h_hat = np.zeros((rec.combiner.num_antennas, per_antenna.shape[1]), dtype=complex)
    for col in range(h_hat.shape[1]):
        sol = omp(dense_operator(a_bar), per_antenna[:, col],
                  max_atoms=BASELINE_MAX_ATOMS, residual_tol=OMP_TOL)
        h_hat[:, col] = d @ sol.coefficients
    return h_hat


class TestFullArrayAntennaWise:
    """The antenna-domain solve against the explicit-operator reference."""

    @pytest.fixture(scope="class")
    def dictionaries(self, desk):
        bs = desk["bs"]
        return {
            "dft": build_angular(bs.m_h, bs.m_v, HALF, HALF, WAVELENGTH, 32),
            "spherical": build_spherical_baseline(
                bs, 16, reciprocal_distance_rings(1.5, 8.0, 3), WAVELENGTH),
        }

    @pytest.mark.parametrize("kind", ["dft", "spherical"])
    def test_matches_explicit_operator_with_noise(self, desk, dictionaries, kind):
        scene = desk["scene"].with_noise_var(0.05)
        d = dictionaries[kind]
        for seed in (3, 4):
            rec = dft_record(scene, desk["real"], desk["combiner"], seed)
            h_hat = baseline_antenna_wise(rec, d)
            ref = explicit_operator_baseline(rec, d)
            assert np.linalg.norm(h_hat - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["dft", "spherical"])
    def test_tall_combiner_noiseless(self, desk, dictionaries, kind):
        comb = design_combiner(6, desk["tiling"], m_rf_per_tile=8)
        assert comb.t_slots > comb.m_s
        d = dictionaries[kind]
        rec = dft_record(desk["scene"], desk["real"], comb, 0)
        h_hat = baseline_antenna_wise(rec, d)
        ref = explicit_operator_baseline(rec, d)
        assert np.linalg.norm(h_hat - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["dft", "spherical"])
    def test_tall_combiner_stop_rule_sees_noise_outside_range(self, desk, dictionaries, kind):
        # on-grid atoms and noise near the 1e-3 stop threshold: whether OMP
        # stops after the true atoms depends on the noise outside V's range
        comb = design_combiner(6, desk["tiling"], m_rf_per_tile=8)
        d = dictionaries[kind]
        real = replace(desk["real"], h=dense_dictionary(d)[:, [37, 301]] * np.array([1.0, 0.8j]))
        scene = desk["scene"].with_noise_var(6e-7)
        for seed in (0, 1, 2):
            rec = dft_record(scene, real, comb, seed)
            h_hat = baseline_antenna_wise(rec, d)
            ref = explicit_operator_baseline(rec, d)
            assert np.linalg.norm(h_hat - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_random_combiner_rejected(self, desk, dictionaries):
        comb = random_combiner(4, desk["tiling"], m_rf_per_tile=8, seed=1)
        rec = dft_record(desk["scene"], desk["real"], comb, 0)
        with pytest.raises(ValueError):
            baseline_antenna_wise(rec, dictionaries["dft"])

    @pytest.mark.parametrize("variant", ["full-array", "per-subarray"])
    def test_single_block_record_rejected(self, desk, dictionaries, variant):
        # both antenna-wise baselines need the N-block DFT-precoded record
        rec = simulate_reception(desk["scene"], desk["real"], desk["combiner"],
                                 uniform_precoder(2), seed=0)
        with pytest.raises(ValueError, match="N-block DFT precoder"):
            if variant == "full-array":
                baseline_antenna_wise(rec, dictionaries["dft"])
            else:
                baseline_subarray_antenna_wise(rec, desk["dictionary"])


class TestBaselines:
    def test_antenna_wise_separation_algebra(self, desk):
        # noiseless: Y W^H columns are exactly sqrt(p) V h^(n)
        scene, real, comb = desk["scene"], desk["real"], desk["combiner"]
        n = scene.ue.size
        precoder = design_precoder_dft(n)
        p_b = scene.power / n
        rec = simulate_reception(scene, real, comb, precoder, seed=0, power=p_b)
        per_antenna = rec.observations @ precoder.w.conj().T
        for col in range(n):
            expected = np.sqrt(p_b) * (dense_combiner(comb) @ real.h[:, col])
            np.testing.assert_allclose(per_antenna[:, col], expected, atol=1e-10)

    def test_far_field_on_grid_user_recovered(self):
        # user at 1e6 m on an exact full-array grid pair: per-column OMP
        # must find that atom and reconstruct the column almost exactly
        bs = build_upa(8, 16, HALF, HALF, (0, 0, 0))
        tiling = partition(bs, 2, 2)
        comb = design_combiner(4, tiling, m_rf_per_tile=8)
        full = build_angular(8, 16, HALF, HALF, WAVELENGTH, 32)
        z1, z2 = 18, 13
        cos_h, cos_v = full.cosines[z1], full.cosines[z2]
        theta = np.arccos(cos_v)
        phi = np.arcsin(np.clip(cos_h / np.sin(theta), -1, 1))
        center = 1e6 * wave_vector(theta, phi)
        ue = build_ula(2, HALF, center)
        scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
        real = synthesize(scene, rng_seed=0)
        h_hat = baseline_antenna_wise(dft_record(scene, real, comb, 0), full)
        for col in range(2):
            err = np.linalg.norm(h_hat[:, col] - real.h[:, col]) / np.linalg.norm(real.h[:, col])
            assert err < 1e-5

    def test_near_field_dft_dictionary_saturates(self):
        # full-scale array, user at 8 m: the plane-wave dictionary cannot
        # represent the spherical channel, so even the noiseless NMSE is
        # stuck above -10 dB
        bs = build_upa(16, 48, HALF, HALF, (0, 0, 0))
        tiling = partition(bs, 2, 4)
        comb = design_combiner(6, tiling, m_rf_per_tile=16)
        ue = build_ula(4, HALF, (8.0, 1.0, -1.0))
        scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
        real = synthesize(scene, rng_seed=0)
        full = build_angular(16, 48, HALF, HALF, WAVELENGTH, 64)
        h_hat = baseline_antenna_wise(dft_record(scene, real, comb, 0), full)
        nmse = np.linalg.norm(h_hat - real.h) ** 2 / np.linalg.norm(real.h) ** 2
        assert 10 * np.log10(nmse) > -10

    def test_eigen_dictionary_exact_at_true_location(self, desk):
        scene, real, comb = desk["scene"], desk["real"], desk["combiner"]
        rec = simulate_reception(scene, real, comb, uniform_precoder(2), seed=0)
        h_hat = baseline_eigen_dictionary(rec, scene.ue.center, ula_offsets(2, HALF), WAVELENGTH)
        err = np.linalg.norm(h_hat - real.h) / np.linalg.norm(real.h)
        assert err < 1e-8

    def test_eigen_dictionary_degrades_off_location(self, desk):
        scene, real, comb = desk["scene"], desk["real"], desk["combiner"]
        rec = simulate_reception(scene, real, comb, uniform_precoder(2), seed=0)
        offsets = ula_offsets(2, HALF)
        h_exact = baseline_eigen_dictionary(rec, scene.ue.center, offsets, WAVELENGTH)
        h_off = baseline_eigen_dictionary(
            rec, scene.ue.center + np.array([0.1, 0.0, 0.0]), offsets, WAVELENGTH)
        h = real.h
        err_exact = np.linalg.norm(h_exact - h) / np.linalg.norm(h)
        err_off = np.linalg.norm(h_off - h) / np.linalg.norm(h)
        assert err_off > 10 * err_exact
