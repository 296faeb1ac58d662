import numpy as np
import pytest
from helpers import wave_vector

from nearmimo.errors import InvalidDirectionError
from nearmimo.geometry import (
    build_ula,
    build_upa,
    partition,
    recover_kx,
)

C_LIGHT = 299792458.0
WAVELENGTH_68 = C_LIGHT / 6.8e9


def test_single_antenna_sits_at_center():
    c = np.array([1.0, -2.0, 3.0])
    geom = build_upa(1, 1, 0.01, 0.01, c)
    assert geom.size == 1
    np.testing.assert_allclose(geom.positions[0], c)


def test_three_element_row_symmetric_about_center():
    d = 0.5 * WAVELENGTH_68
    geom = build_upa(3, 1, d, d, (0, 0, 0))
    expected = np.array([[0, -d, 0], [0, 0, 0], [0, d, 0]])
    np.testing.assert_allclose(geom.positions, expected, atol=1e-15)


def test_paper_scale_aperture_with_half_wavelength_spacing():
    d = WAVELENGTH_68 / 2
    geom = build_upa(16, 48, d, d, (0, 0, 0))
    ap_h, ap_v = np.ptp(geom.positions[:, 1]), np.ptp(geom.positions[:, 2])
    # half-wavelength spacing at 6.8 GHz gives ~0.33 m x 1.04 m, not the
    # 0.5 m x 1.5 m quoted elsewhere; the sweep config always uses λ/2.
    assert ap_h == pytest.approx(0.3307, abs=5e-4)
    assert ap_v == pytest.approx(1.0360, abs=5e-4)


def test_centroid_equals_center_even_counts():
    geom = build_upa(4, 6, 0.02, 0.03, (0.5, 1.0, -2.0))
    np.testing.assert_allclose(geom.positions.mean(axis=0), geom.center, atol=1e-12)


def test_planar_array_is_coplanar_in_offset_yz_plane():
    geom = build_upa(5, 7, 0.01, 0.02, (2.0, 0.3, -0.4))
    assert np.all(geom.positions[:, 0] == 2.0)


def test_max_pairwise_distance_matches_aperture_exactly():
    geom = build_upa(6, 9, 0.013, 0.027, (0, 0, 0))
    ys = geom.positions[:, 1]
    zs = geom.positions[:, 2]
    assert ys.max() - ys.min() == pytest.approx((6 - 1) * 0.013, abs=1e-15)
    assert zs.max() - zs.min() == pytest.approx((9 - 1) * 0.027, abs=1e-15)


def test_linear_index_is_vertical_fastest():
    geom = build_upa(2, 3, 1.0, 1.0, (0, 0, 0))
    # m = i_h * m_v + i_v: first three entries share the first y offset
    assert np.all(geom.positions[:3, 1] == geom.positions[0, 1])
    assert geom.positions[1, 2] > geom.positions[0, 2]


def test_invalid_upa_arguments():
    with pytest.raises(ValueError):
        build_upa(0, 4, 0.01, 0.01, (0, 0, 0))
    with pytest.raises(ValueError):
        build_upa(4, 4, -0.01, 0.01, (0, 0, 0))


def test_ula_along_axis():
    geom = build_ula(4, 0.02, (1, 0, 0))
    assert geom.kind == "linear"
    np.testing.assert_allclose(geom.positions[:, 0], 1.0)
    np.testing.assert_allclose(geom.positions[:, 1], [-0.03, -0.01, 0.01, 0.03])
    np.testing.assert_array_equal(geom.positions[:, 2], 0.0)


class TestPartition:
    def test_identity_tiling(self):
        geom = build_upa(4, 6, 0.01, 0.01, (0, 1, 2))
        tiling = partition(geom, 1, 1)
        assert tiling.num_tiles == 1
        tile = tiling.tiles[0]
        np.testing.assert_allclose(tile.geometry.center, geom.center, atol=1e-12)
        np.testing.assert_array_equal(tile.antenna_indices, np.arange(geom.size))

    def test_paper_tiling_counts(self):
        d = WAVELENGTH_68 / 2
        geom = build_upa(16, 48, d, d, (0, 0, 0))
        tiling = partition(geom, 2, 4)
        assert tiling.num_tiles == 8
        for tile in tiling.tiles:
            assert tile.geometry.m_h == 8
            assert tile.geometry.m_v == 12
            assert tile.geometry.size == 96

    def test_tiles_partition_index_set_exactly(self):
        geom = build_upa(4, 4, 0.01, 0.01, (0, 0, 0))
        tiling = partition(geom, 2, 2)
        all_idx = np.concatenate([t.antenna_indices for t in tiling.tiles])
        assert len(all_idx) == 16
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(16))

    def test_tile_positions_roundtrip_to_parent(self):
        geom = build_upa(8, 6, 0.011, 0.017, (0.2, -0.1, 0.4))
        tiling = partition(geom, 4, 3)
        stacked = np.concatenate([t.geometry.positions for t in tiling.tiles])
        order = np.concatenate([t.antenna_indices for t in tiling.tiles])
        recon = np.empty_like(stacked)
        recon[order] = stacked
        np.testing.assert_array_equal(recon, geom.positions)

    def test_tile_center_is_centroid(self):
        geom = build_upa(8, 6, 0.011, 0.017, (0, 0, 0))
        tiling = partition(geom, 2, 3)
        for tile in tiling.tiles:
            np.testing.assert_allclose(
                tile.geometry.center, tile.geometry.positions.mean(axis=0), atol=1e-12
            )

    def test_non_divisible_counts_rejected(self):
        geom = build_upa(4, 4, 0.01, 0.01, (0, 0, 0))
        with pytest.raises(ValueError):
            partition(geom, 3, 2)


class TestDirections:
    def test_boresight(self):
        np.testing.assert_allclose(wave_vector(np.pi / 2, 0.0), [1, 0, 0], atol=1e-15)

    def test_zenith_for_any_azimuth(self):
        for phi in (-3.0, 0.0, 1.3, np.pi):
            np.testing.assert_allclose(wave_vector(0.0, phi), [0, 0, 1], atol=1e-15)

    def test_oblique_direction_values(self):
        k = wave_vector(np.pi / 3, np.pi / 4)
        np.testing.assert_allclose(k, [0.612372, 0.612372, 0.5], atol=1e-6)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(-np.pi, np.pi)
            assert abs(np.linalg.norm(wave_vector(theta, phi)) - 1.0) < 1e-12

    def test_recover_kx_trivial_cases(self):
        assert recover_kx(0.0, 0.0)[0] == 1.0
        assert recover_kx(0.6, 0.8)[0] == 0.0

    def test_recover_kx_inverts_wave_vector(self):
        k = wave_vector(np.pi / 3, np.pi / 4)
        np.testing.assert_allclose(recover_kx(k[1], k[2])[0], 0.612372, atol=1e-6)

    def test_recover_roundtrip_over_front_halfspace(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            theta = rng.uniform(1e-6, np.pi - 1e-6)
            phi = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6)
            k = wave_vector(theta, phi)
            assert abs(recover_kx(k[1], k[2])[0] - k[0]) < 1e-12

    def test_recover_kx_rejects_oversized_cosines(self):
        with pytest.raises(InvalidDirectionError):
            recover_kx(0.9, 0.9)
