from dataclasses import replace

import numpy as np
import pytest
from helpers import dense_combiner, tile_rows

from nearmimo.errors import InfeasibleDesignError
from nearmimo.geometry import build_upa, partition
from nearmimo.sensing import (
    design_combiner,
    design_precoder_dft,
    random_combiner,
    uniform_precoder,
)

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


def desk_tiling():
    return partition(build_upa(8, 16, HALF, HALF, (0, 0, 0)), 2, 2)


def paper_tiling():
    return partition(build_upa(16, 48, HALF, HALF, (0, 0, 0)), 2, 4)


def dense_reference(design):
    """Slot, stacked and per-tile matrices placed entry by entry from the blocks.

    Independent of ``CombinerDesign.apply``: chain m of tile i in slot t
    is row ``t*M_RF + i*M_rf_i + m`` and covers tile antennas
    ``m*M_s .. (m+1)*M_s - 1``.
    """
    t_slots, m_rf, m_s = design.t_slots, design.m_rf_per_tile, design.m_s
    m_i = design.tiling.tiles[0].geometry.size
    slots = np.zeros((t_slots, design.m_rf_total, design.num_antennas), dtype=complex)
    tiles = np.zeros((design.tiling.num_tiles, t_slots * m_rf, m_i), dtype=complex)
    for i, tile in enumerate(design.tiling.tiles):
        for m in range(m_rf):
            cols = tile.antenna_indices[m * m_s:(m + 1) * m_s]
            for t in range(t_slots):
                slots[t, i * m_rf + m, cols] = design.chain_blocks[i, m, t]
                tiles[i, t * m_rf + m, m * m_s:(m + 1) * m_s] = design.chain_blocks[i, m, t]
    return slots, slots.reshape(-1, design.num_antennas), tiles


def block_diagonal(slots):
    """The (T*M_RF) x (T*M) combiner acting on slot-stacked noise."""
    t, m_rf, m = slots.shape
    out = np.zeros((t * m_rf, t * m), dtype=complex)
    for k in range(t):
        out[k * m_rf:(k + 1) * m_rf, k * m:(k + 1) * m] = slots[k]
    return out


def noise_gram(slots):
    """``V V^H`` of the block-diagonal combiner, built from the per-slot Grams ``V_t V_t^H``."""
    return block_diagonal(slots @ slots.conj().transpose(0, 2, 1))


COMBINERS = {
    "designed-desk": lambda: design_combiner(4, desk_tiling(), m_rf_per_tile=8),
    "random-desk": lambda: random_combiner(4, desk_tiling(), m_rf_per_tile=8, seed=3),
    "designed-paper": lambda: design_combiner(6, paper_tiling(), m_rf_per_tile=16),
    "random-paper": lambda: random_combiner(6, paper_tiling(), m_rf_per_tile=16, seed=4),
}


class TestDesignCombiner:
    def test_degenerate_single_slot(self):
        tiling = partition(build_upa(2, 1, HALF, HALF, (0, 0, 0)), 1, 1)
        design = design_combiner(1, tiling, m_rf_per_tile=2)
        assert design.m_s == 1
        v = design.apply_tile(0, np.eye(2))
        assert v.shape == (2, 2)
        nz = v[np.abs(v) > 0]
        np.testing.assert_allclose(np.abs(nz), 1.0, atol=1e-14)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_paper_tile_orthogonality(self):
        design = design_combiner(6, paper_tiling(), m_rf_per_tile=16)
        assert design.m_s == 6
        for i in range(design.tiling.num_tiles):
            slc = design.apply_tile(i, np.eye(96))
            err = np.linalg.norm(slc.conj().T @ slc - np.eye(96))
            assert err < 1e-10

    def test_global_orthogonality(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        v = dense_combiner(design)
        err = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]))
        assert err < 1e-10

    def test_slot_rows_orthonormal_when_t_equals_ms(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        assert design.m_s == 4
        for v_t in dense_combiner(design).reshape(4, design.m_rf_total, -1):
            err = np.linalg.norm(v_t @ v_t.conj().T - np.eye(v_t.shape[0]))
            assert err < 1e-10

    def test_entry_modulus_is_inverse_sqrt_t(self):
        design = design_combiner(6, paper_tiling(), m_rf_per_tile=16)
        v = dense_combiner(design)
        nz = np.abs(v[np.abs(v) > 0])
        np.testing.assert_allclose(nz, 1.0 / np.sqrt(6), atol=1e-14)

    def test_dft_block_orthogonality(self):
        design = design_combiner(6, paper_tiling(), m_rf_per_tile=16)
        for f_m in design.chain_blocks.reshape(-1, design.t_slots, design.m_s):
            np.testing.assert_allclose(
                f_m.conj().T @ f_m, np.eye(design.m_s), atol=1e-12
            )

    def test_permutation_recovers_blockdiag(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        t, m_rf, m_s = design.t_slots, design.m_rf_per_tile, design.m_s
        slc = design.apply_tile(0, np.eye(design.tiling.tiles[0].geometry.size))
        perm = np.array([t_i * m_rf + m for m in range(m_rf) for t_i in range(t)])
        permuted = slc[perm]
        expected = np.zeros_like(permuted)
        for m in range(m_rf):
            expected[m * t:(m + 1) * t, m * m_s:(m + 1) * m_s] = design.chain_blocks[0, m]
        np.testing.assert_array_equal(permuted, expected)

    @pytest.mark.parametrize("name", ["designed-desk", "random-desk"])
    def test_tile_slice_matches_combiner_submatrix(self, name):
        design = COMBINERS[name]()
        v = dense_combiner(design)
        eye = np.eye(design.tiling.tiles[0].geometry.size)
        for i, tile in enumerate(design.tiling.tiles):
            sub = v[np.ix_(tile_rows(design, i), tile.antenna_indices)]
            np.testing.assert_array_equal(sub, design.apply_tile(i, eye))

    def test_build_check_rejects_one_broken_block(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        blocks = design.chain_blocks.copy()
        blocks[-1, 0, 0, 0] *= -1  # still unit modulus; the chain loses orthogonality
        with pytest.raises(InfeasibleDesignError, match="Gram"):
            replace(design, chain_blocks=blocks).verify_blocks()

    def test_build_check_rejects_an_entry_off_unit_modulus(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        blocks = design.chain_blocks.copy()
        blocks[1, 3, 2, 1] *= 1.0 + 1e-6
        with pytest.raises(InfeasibleDesignError, match="modulus"):
            replace(design, chain_blocks=blocks).verify_blocks()

    def test_infeasible_when_t_below_ms(self):
        with pytest.raises(InfeasibleDesignError):
            design_combiner(3, desk_tiling(), m_rf_per_tile=8)  # M_s = 4 > T

    def test_bad_chain_count_rejected(self):
        with pytest.raises(ValueError):
            design_combiner(4, desk_tiling(), m_rf_per_tile=5)


class TestStructuredApply:
    """``apply``/``apply_tile``/``matrix`` against the dense reference."""

    @pytest.fixture(params=sorted(COMBINERS), scope="class")
    def case(self, request):
        design = COMBINERS[request.param]()
        return design, dense_reference(design)

    def test_matrix_equals_reference(self, case):
        design, (_slots, stacked, _tiles) = case
        np.testing.assert_array_equal(dense_combiner(design), stacked)

    def test_apply_common_input(self, case):
        design, (_slots, stacked, _tiles) = case
        rng = np.random.default_rng(11)
        x = rng.standard_normal((design.num_antennas, 5)) \
            + 1j * rng.standard_normal((design.num_antennas, 5))
        np.testing.assert_allclose(design.apply(x), stacked @ x, rtol=1e-12, atol=1e-12)

    def test_apply_per_slot_input(self, case):
        design, (slots, _stacked, _tiles) = case
        rng = np.random.default_rng(12)
        shape = (design.t_slots, design.num_antennas, 3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.concatenate([slots[t] @ x[t] for t in range(design.t_slots)])
        np.testing.assert_allclose(design.apply(x), expected, rtol=1e-12, atol=1e-12)

    def test_apply_tile_both_inputs(self, case):
        design, (_slots, _stacked, tiles) = case
        rng = np.random.default_rng(13)
        t, m_rf, m_i = design.t_slots, design.m_rf_per_tile, tiles.shape[2]
        for i in range(design.tiling.num_tiles):
            x = rng.standard_normal((m_i, 4)) + 1j * rng.standard_normal((m_i, 4))
            np.testing.assert_allclose(
                design.apply_tile(i, x), tiles[i] @ x, rtol=1e-12, atol=1e-12)
            xs = rng.standard_normal((t, m_i, 2)) + 1j * rng.standard_normal((t, m_i, 2))
            expected = np.concatenate([
                tiles[i][k * m_rf:(k + 1) * m_rf] @ xs[k] for k in range(t)
            ])
            np.testing.assert_allclose(
                design.apply_tile(i, xs), expected, rtol=1e-12, atol=1e-12)

    def test_adjoint_equals_conjugate_transpose(self, case):
        design, (_slots, stacked, _tiles) = case
        rng = np.random.default_rng(14)
        z = rng.standard_normal((stacked.shape[0], 3)) \
            + 1j * rng.standard_normal((stacked.shape[0], 3))
        np.testing.assert_allclose(
            design.adjoint(z), dense_combiner(design).conj().T @ z, rtol=1e-12, atol=1e-12)

    def test_tile_grams_and_gram_error_equal_the_dense_grams(self, case):
        # gram_error is the global V^H V error, computed once and kept
        design, (_slots, stacked, tiles) = case
        np.testing.assert_allclose(design.tile_grams(), tiles.conj().swapaxes(1, 2) @ tiles,
                                   rtol=0, atol=1e-12)
        scale = design.t_slots * design.entry_modulus ** 2
        error = np.linalg.norm(stacked.conj().T @ stacked - scale * np.eye(stacked.shape[1]))
        assert design.gram_error == pytest.approx(error, rel=1e-9, abs=1e-12)
        assert "gram_error" in vars(design)


@pytest.mark.parametrize("design", [
    design_combiner(4, desk_tiling(), m_rf_per_tile=8),
    design_combiner(6, desk_tiling(), m_rf_per_tile=8),  # tall: T > M_s
    design_combiner(6, paper_tiling(), m_rf_per_tile=16),
], ids=["desk", "desk-tall", "paper"])
def test_adjoint_inverts_designed_apply(design):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((design.num_antennas, 4)) \
        + 1j * rng.standard_normal((design.num_antennas, 4))
    np.testing.assert_allclose(design.adjoint(design.apply(x)), x, rtol=0, atol=1e-12)


class TestRandomCombiner:
    def test_entry_modulus(self):
        design = random_combiner(4, desk_tiling(), m_rf_per_tile=8, seed=0)
        v = dense_combiner(design)
        nz = np.abs(v[np.abs(v) > 0])
        np.testing.assert_allclose(nz, 1.0 / np.sqrt(design.m_s), atol=1e-14)

    def test_seed_determinism(self):
        a = random_combiner(4, desk_tiling(), m_rf_per_tile=8, seed=9)
        b = random_combiner(4, desk_tiling(), m_rf_per_tile=8, seed=9)
        np.testing.assert_array_equal(a.chain_blocks, b.chain_blocks)

    def test_generically_not_orthogonal(self):
        design = random_combiner(4, desk_tiling(), m_rf_per_tile=8, seed=1)
        slc = design.apply_tile(0, np.eye(32))
        err = np.linalg.norm(slc.conj().T @ slc - np.eye(slc.shape[1]))
        assert err > 1e-3


class TestPrecoders:
    def test_single_antenna(self):
        np.testing.assert_array_equal(design_precoder_dft(1).w, [[1.0]])

    def test_two_point_dft(self):
        w = design_precoder_dft(2).w
        np.testing.assert_allclose(w, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-14)

    def test_unitary(self):
        w = design_precoder_dft(4).w
        np.testing.assert_allclose(w @ w.conj().T, np.eye(4), atol=1e-14)

    def test_uniform(self):
        w = uniform_precoder(4).w
        assert w.shape == (4, 1)
        np.testing.assert_allclose(w[:, 0], 0.5)


class TestNoiseWhiteness:
    def test_apply_noise_matches_blockdiag(self):
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        rng = np.random.default_rng(5)
        t, m = design.t_slots, design.num_antennas
        noise = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
        direct = block_diagonal(dense_reference(design)[0]) @ noise.reshape(-1)
        np.testing.assert_allclose(design.apply(noise[..., None])[:, 0], direct, atol=1e-12)

    def test_designed_combiner_whitens(self):
        # noise independent across slots: the combined covariance is
        # sigma^2 V V^H with V the block-diagonal combiner, exactly sigma^2 I
        design = design_combiner(4, desk_tiling(), m_rf_per_tile=8)
        sigma2 = 2.0
        cov = sigma2 * noise_gram(dense_reference(design)[0])
        np.testing.assert_allclose(cov, sigma2 * np.eye(cov.shape[0]), rtol=0, atol=1e-13)
