import numpy as np
import pytest
from helpers import planar_far_field_steering

from nearmimo.channel import far_field_steering
from nearmimo.doa import _steering, extract_axis_factors, music_1d

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


class TestExtractAxisFactors:
    def test_identity_input(self):
        # the 4 x 4 DFT matrix has orthogonal rows and columns: both factors are I
        dft = np.exp(-2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4)
        c_h, c_v = extract_axis_factors(dft.ravel(), 4, 4)
        np.testing.assert_allclose(c_h, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(c_v, np.eye(4), atol=1e-14)

    def test_construct_then_extract_roundtrip(self):
        a_h = far_field_steering(3, HALF, 0.45, WAVELENGTH)
        a_v = far_field_steering(5, HALF, -0.6, WAVELENGTH)
        c_h, c_v = extract_axis_factors(np.kron(a_h, a_v), 3, 5)
        np.testing.assert_allclose(c_h, np.outer(a_h, a_h.conj()), atol=1e-12)
        np.testing.assert_allclose(c_v, np.outer(a_v, a_v.conj()), atol=1e-12)

    def test_extraction_from_planar_steering(self):
        cos_h, cos_v = 0.3, -0.2
        vec = planar_far_field_steering(4, 6, HALF, HALF, cos_h, cos_v, WAVELENGTH)
        c_h, c_v = extract_axis_factors(vec, 4, 6)
        ah = far_field_steering(4, HALF, cos_h, WAVELENGTH)
        av = far_field_steering(6, HALF, cos_v, WAVELENGTH)
        np.testing.assert_allclose(c_h, np.outer(ah, ah.conj()), atol=1e-12)
        np.testing.assert_allclose(c_v, np.outer(av, av.conj()), atol=1e-12)

    def test_unit_diagonal_after_normalization(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        c_h, c_v = extract_axis_factors(h, 3, 4)
        np.testing.assert_allclose(np.diag(c_h).real, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(c_v).real, 1.0, atol=1e-12)

    def test_stack_equals_block_averages_of_each_covariance(self):
        # row by row, the block averages of h h^H: the diagonal blocks for the
        # vertical factor, each block's trace for the horizontal one
        rng = np.random.default_rng(2)
        h = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        c_h, c_v = extract_axis_factors(h, 3, 4)
        assert c_h.shape == (5, 3, 3) and c_v.shape == (5, 4, 4)
        for row, f_h, f_v in zip(h, c_h, c_v):
            blocks = np.outer(row, row.conj()).reshape(3, 4, 3, 4)
            v = np.mean([blocks[p, :, p, :] for p in range(3)], axis=0)
            hor = np.einsum("pmqm->pq", blocks) / 4
            for got, ref in ((f_h, hor), (f_v, v)):
                scale = 1.0 / np.sqrt(np.diag(ref).real)
                np.testing.assert_allclose(got, ref * np.outer(scale, scale), atol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_axis_factors(np.eye(12, dtype=complex), 3, 5)


class TestMusic1d:
    def _cov(self, m_e, cosine):
        a = far_field_steering(m_e, HALF, cosine, WAVELENGTH)
        return np.outer(a, a.conj())

    def test_recovers_on_axis_cosine(self):
        spec = music_1d(self._cov(8, 0.25), 8, HALF, WAVELENGTH)
        assert abs(spec.peak - 0.25) < 1e-4

    def test_random_cosines_within_refinement_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            target = rng.uniform(-0.95, 0.95)
            spec = music_1d(self._cov(8, target), 8, HALF, WAVELENGTH)
            assert abs(spec.peak - target) < 1e-4

    def test_identity_covariance_returns_finite_peak(self):
        spec = music_1d(np.eye(6, dtype=complex), 6, HALF, WAVELENGTH)
        assert np.isfinite(spec.peak)
        assert -1.0 <= spec.peak <= 1.0

    def test_scale_invariance(self):
        c = self._cov(8, -0.4)
        a = music_1d(c, 8, HALF, WAVELENGTH).peak
        b = music_1d(17.3 * c, 8, HALF, WAVELENGTH).peak
        assert abs(a - b) < 1e-12

    def test_refined_peak_stays_within_one_grid_cell(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = music_1d(self._cov(8, rng.uniform(-0.9, 0.9)), 8, HALF, WAVELENGTH)
            cell = spec.grid[1] - spec.grid[0]
            discrete = spec.grid[np.argmax(spec.values)]
            assert abs(spec.peak - discrete) <= cell + 1e-15

    def test_refinement_beats_grid_quantization(self):
        # stage-1 angular grid quantization is 2/Z; MUSIC refinement must do
        # far better on clean rank-one inputs
        z = 64
        rng = np.random.default_rng(3)
        for _ in range(10):
            target = rng.uniform(-0.9, 0.9)
            spec = music_1d(self._cov(8, target), 8, HALF, WAVELENGTH)
            assert abs(spec.peak - target) < (2.0 / z) / 10

    def test_single_antenna_axis_rejected(self):
        # one antenna has no noise subspace to scan
        with pytest.raises(ValueError, match="at least 2 antennas"):
            music_1d(np.eye(1, dtype=complex), 1, HALF, WAVELENGTH)


class TestSteeringMemo:
    @staticmethod
    def fresh_spectrum(c, m_e, d_e, grid_points):
        """Grid and pseudo-spectrum with the steering table built afresh: the noise
        projector's diagonal sums against ``[2 cos; -2 sin]`` of ``phi d theta``,
        d = 0..m_e-1, with row 0 set to 1."""
        _w, v = np.linalg.eigh(0.5 * (c + c.conj().T)[None])
        noise = v[..., : m_e - 1]
        projector = (noise @ noise.conj().swapaxes(-1, -2)).reshape(1, m_e * m_e)
        rows, cols = np.indices((m_e, m_e))
        sums = projector @ ((cols - rows)[..., None] == np.arange(m_e)).reshape(
            m_e * m_e, m_e).astype(float)
        grid = np.linspace(-1.0, 1.0, grid_points)
        phase = 2 * np.pi / WAVELENGTH * d_e * np.arange(m_e)[:, None] * grid[None, :]
        table = np.concatenate([2.0 * np.cos(phase), -2.0 * np.sin(phase)])
        table[0] = 1.0
        denom = np.concatenate([sums.real, sums.imag], axis=1) @ table
        return grid, 1.0 / np.maximum(denom[0], 1e-300)

    def test_memoized_arrays_are_read_only(self):
        grid, steering = _steering(8, HALF, WAVELENGTH, 256)
        assert not grid.flags.writeable and not steering.flags.writeable
        with pytest.raises(ValueError):
            steering[0, 0] = 0.0
        spec = music_1d(np.eye(8, dtype=complex), 8, HALF, WAVELENGTH, grid_points=256)
        assert spec.grid is grid
        with pytest.raises(ValueError):
            spec.grid[0] = 0.0

    def test_spectrum_matches_fresh_steering(self):
        a = far_field_steering(8, HALF, 0.3, WAVELENGTH)
        c = np.outer(a, a.conj())
        for _ in range(2):  # the first call fills the memo, the second reads it
            spec = music_1d(c, 8, HALF, WAVELENGTH, grid_points=512)
            grid, values = self.fresh_spectrum(c, 8, HALF, 512)
            np.testing.assert_array_equal(spec.grid, grid)
            np.testing.assert_array_equal(spec.values, values)

    @pytest.mark.parametrize("m_v, d_v", [(4, 0.6 * WAVELENGTH), (6, HALF)])
    def test_tile_axes_do_not_share_an_entry(self, m_v, d_v):
        # a 4 x m_v tile whose vertical axis differs from the horizontal
        # one in spacing or in count
        m_h, d_h = 4, HALF
        rng = np.random.default_rng(5)
        h = planar_far_field_steering(m_h, m_v, d_h, d_v, *rng.uniform(-0.5, 0.5, 2),
                                      WAVELENGTH)
        c_h, c_v = extract_axis_factors(h, m_h, m_v)
        _steering.cache_clear()
        for cov, m_e, d_e in ((c_h, m_h, d_h), (c_v, m_v, d_v)):
            spec = music_1d(cov, m_e, d_e, WAVELENGTH, grid_points=128)
            np.testing.assert_array_equal(
                spec.values, self.fresh_spectrum(cov, m_e, d_e, 128)[1])
        assert _steering.cache_info().currsize == 2
        hor = _steering(m_h, d_h, WAVELENGTH, 128)[1]
        ver = _steering(m_v, d_v, WAVELENGTH, 128)[1]
        assert hor is not ver and not np.array_equal(hor, ver[:m_h])
