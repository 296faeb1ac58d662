import tracemalloc

import numpy as np
import pytest
from helpers import planar_far_field_steering, ula_offsets

from nearmimo.channel import los_channel, near_field_steering
from nearmimo.dictionaries import (
    build_angular,
    build_location,
    build_spherical_baseline,
    cosine_grid,
    reciprocal_distance_rings,
)
from nearmimo.errors import DegenerateGridError
from nearmimo.geometry import build_ula, build_upa
from nearmimo.harness import SPHERICAL_ANGLE_GRID, desk_profile

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


class TestAngular:
    def test_z2_grid(self):
        np.testing.assert_allclose(cosine_grid(2), [-0.5, 0.5])
        d = build_angular(2, 2, HALF, HALF, WAVELENGTH, 2)
        assert d.columns(slice(None)).shape == (4, 4)

    def test_columns_match_kronecker_definition(self):
        d = build_angular(4, 3, HALF, HALF, WAVELENGTH, 8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z1, z2 = rng.integers(0, 8, size=2)
            expected = planar_far_field_steering(
                4, 3, HALF, HALF, d.cosines[z1], d.cosines[z2], WAVELENGTH
            )
            np.testing.assert_allclose(
                d.columns([z1 * d.cosines.size + z2])[:, 0], expected, atol=1e-13
            )

    def test_unit_modulus_entries(self):
        d = build_angular(4, 6, HALF, HALF, WAVELENGTH, 4)
        np.testing.assert_allclose(np.abs(d.columns(slice(None))), 1.0, atol=1e-13)

    def test_coherence_below_one_and_on_grid_match(self):
        d = build_angular(8, 12, HALF, HALF, WAVELENGTH, 32)
        m_i = 8 * 12
        matrix = d.columns(slice(None))
        gram = np.abs(matrix.conj().T @ matrix) / m_i
        off = gram - np.diag(np.diag(gram))
        assert off.max() < 0.999
        rng = np.random.default_rng(1)
        z1, z2 = rng.integers(0, 32, size=2)
        probe = planar_far_field_steering(
            8, 12, HALF, HALF, d.cosines[z1], d.cosines[z2], WAVELENGTH
        )
        corr = np.abs(matrix.conj().T @ probe) / m_i
        assert corr.argmax() == z1 * d.cosines.size + z2
        assert corr.max() == pytest.approx(1.0, abs=1e-12)

    def test_on_grid_mixture_is_sparse_representable(self):
        # a subarray channel built from on-grid plane waves is exactly
        # (L+1)-sparse in the dictionary
        d = build_angular(8, 12, HALF, HALF, WAVELENGTH, 16)
        rng = np.random.default_rng(2)
        atoms = rng.choice(d.shape[1], size=3, replace=False)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = d.columns(atoms) @ coeffs
        x = np.zeros(d.shape[1], dtype=complex)
        x[atoms] = coeffs
        assert np.linalg.norm(h - d.columns(slice(None)) @ x) / np.linalg.norm(h) < 1e-10


W2 = np.array([0.6, 0.8j])


class TestLocation:
    def _bs_ue(self):
        bs = build_upa(4, 6, HALF, HALF, (0, 0, 0))
        ue = build_ula(2, HALF, (8, 1, -1))
        return bs, ue, ula_offsets(2, HALF)

    def test_single_point_grid(self):
        bs, ue, offsets = self._bs_ue()
        d = build_location((8, 1, -1), (0, 0, 0), (1, 1, 1), bs, offsets, WAVELENGTH, W2)
        assert d.matrix.shape == (bs.size, 1)
        h = los_channel(bs, ue, WAVELENGTH)
        np.testing.assert_allclose(d.matrix[:, 0], h @ W2, atol=1e-13)
        assert d.channels([0]).shape == (bs.size * ue.size, 1)
        np.testing.assert_allclose(d.channels([0])[:, 0], h.ravel(order="F"), atol=1e-13)

    def test_paper_grid_size_and_spacing(self):
        bs, ue, offsets = self._bs_ue()
        d = build_location((8, 1, -1), (0.2, 0.2, 0.02), (11, 11, 3), bs, offsets, WAVELENGTH, W2)
        assert d.matrix.shape[1] == 363
        xs = np.unique(d.points[:, 0])
        assert xs.size == 11
        np.testing.assert_allclose(np.diff(xs), 2 * 0.2 / 10, atol=1e-12)
        zs = np.unique(d.points[:, 2])
        np.testing.assert_allclose(np.diff(zs), 2 * 0.02 / 2, atol=1e-12)

    def test_true_center_on_grid_is_a_column(self):
        bs, ue, offsets = self._bs_ue()
        d = build_location((8, 1, -1), (0.1, 0.1, 0.01), (3, 3, 3), bs, offsets, WAVELENGTH, W2)
        truth = los_channel(bs, ue, WAVELENGTH)
        idx = np.argmin(np.linalg.norm(d.points - np.array([8, 1, -1]), axis=1))
        np.testing.assert_allclose(d.channels([idx])[:, 0], truth.ravel(order="F"),
                                   atol=1e-13)
        np.testing.assert_allclose(d.matrix[:, idx], truth @ W2, atol=1e-13)

    def test_precoder_length_must_match_user_array(self):
        bs, ue, offsets = self._bs_ue()
        with pytest.raises(ValueError, match="precoder"):
            build_location((8, 1, -1), (0.1, 0.1, 0.01), (3, 3, 3), bs, offsets, WAVELENGTH,
                           np.ones(3))

    def test_degenerate_grid_rejected(self):
        bs, ue, offsets = self._bs_ue()
        with pytest.raises(DegenerateGridError):
            build_location((8, 1, -1), (0.0, 0.1, 0.01), (3, 3, 3), bs, offsets, WAVELENGTH, W2)

    def test_x_grid_clamped_to_front_halfspace(self):
        bs, ue, offsets = self._bs_ue()
        d = build_location((0.15, 0, -1), (0.2, 0.1, 0.01), (3, 3, 3), bs, offsets, WAVELENGTH, W2)
        assert d.points[:, 0].min() >= 0.1


class TestSpherical:
    def test_single_atom(self):
        bs = build_upa(4, 4, HALF, HALF, (0, 0, 0))
        d = build_spherical_baseline(bs, 1, [10.0], WAVELENGTH)
        assert d.matrix.shape == (16, 1)
        np.testing.assert_allclose(np.abs(d.matrix), 1.0, atol=1e-13)

    def test_atom_count(self):
        bs = build_upa(4, 4, HALF, HALF, (0, 0, 0))
        d = build_spherical_baseline(bs, 5, [5.0, 10.0, 20.0], WAVELENGTH)
        assert d.matrix.shape[1] == 5 * 5 * 3

    def test_far_ring_matches_plane_wave_model(self):
        bs = build_upa(6, 8, HALF, HALF, (0, 0, 0))
        d = build_spherical_baseline(bs, 8, [1e6], WAVELENGTH)
        # an interior grid pair well inside the unit disk: column iy * 8 + iz of the one ring
        g = cosine_grid(8)
        col = d.matrix[:, 4 * 8 + 5]
        model = planar_far_field_steering(6, 8, HALF, HALF, g[4], g[5], WAVELENGTH)
        phase = np.angle(col * model.conj())
        phase -= phase.mean()
        assert np.abs(phase).max() < 1e-3

    def test_reciprocal_rings(self):
        rings = reciprocal_distance_rings(5.0, 25.0, 4)
        np.testing.assert_allclose(1.0 / rings, np.linspace(0.2, 0.04, 4))


def los_reference(bs, ue):
    """The LoS channel as one array expression over all antenna pairs."""
    diff = bs.positions[:, None, :] - ue.positions[None, :, :]
    d0, d1, d2 = diff[..., 0], diff[..., 1], diff[..., 2]
    r = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    return np.exp(-2j * np.pi * r / WAVELENGTH) / r


def steering_reference(bs, pos):
    """The steering vector with its distances from ``np.linalg.norm``."""
    r = np.linalg.norm(bs.positions - pos, axis=1)
    return np.exp(-2j * np.pi * r / WAVELENGTH)


def location_reference(center, half_widths, counts, bs, ue):
    """``build_location``'s matrix, one ``build_ula`` and LoS channel per atom."""
    axes = []
    for c, w, k in zip(center, half_widths, counts):
        axes.append(np.array([c]) if k == 1 else np.linspace(c - w, c + w, k))
    axes[0] = np.maximum(axes[0], 0.1)
    cols = []
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                moved = build_ula(ue.m_h, ue.d_h, (x, y, z))
                cols.append(los_reference(bs, moved).ravel(order="F"))
    return np.column_stack(cols)


def spherical_reference(bs, angle_grid, rings):
    """``build_spherical_baseline``'s matrix, one steering vector per atom."""
    g = cosine_grid(angle_grid) if angle_grid > 1 else np.array([0.0])
    cols = []
    for ky in g:
        for kz in g:
            direction = np.array([np.sqrt(max(0.0, 1.0 - ky * ky - kz * kz)), ky, kz])
            direction = direction / np.linalg.norm(direction)
            for r in rings:
                cols.append(steering_reference(bs, bs.center + r * direction))
    return np.column_stack(cols)


# antenna counts that the kernel's row blocks do not divide (35 = 27 + 8,
# 150 = 16 * 9 + 6 rows), odd atom counts and count-1 grid axes
LOCATION_CASES = [
    ((5, 7), 2, (4.0, 0.5, -1.0), (0.2, 0.2, 0.02), (5, 5, 3)),
    ((5, 7), 3, (6.0, -1.0, -1.0), (0.3, 0.0, 0.05), (3, 1, 5)),
    ((10, 15), 2, (8.0, 1.0, -1.0), (0.2, 0.2, 0.02), (11, 11, 3)),
    ((10, 15), 1, (0.12, 1.0, -1.0), (0.2, 0.2, 0.0), (7, 3, 1)),
]


def precoded_reference(reference, w):
    """Contract vec(H) columns with ``w``: antenna n's block times ``w[n]``, summed in order."""
    blocks = reference.reshape(len(w), -1, reference.shape[1])
    atoms = np.zeros(blocks.shape[1:], dtype=complex)
    for block, w_n in zip(blocks, w):
        atoms += block * w_n
    return atoms


def random_precoder(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("shape,n_ue,center,half_widths,counts", LOCATION_CASES)
def test_location_bit_identical_to_per_atom_loop(shape, n_ue, center, half_widths, counts):
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    ue = build_ula(n_ue, HALF, center)
    d = build_location(center, half_widths, counts, bs, ula_offsets(n_ue, HALF), WAVELENGTH,
                       random_precoder(n_ue, 0))
    np.testing.assert_array_equal(
        d.channels(np.arange(d.matrix.shape[1])),
        location_reference(center, half_widths, counts, bs, ue))


@pytest.mark.parametrize("shape,n_ue,center,half_widths,counts", LOCATION_CASES)
def test_precoded_atoms_bit_identical_to_contracted_reference(
        shape, n_ue, center, half_widths, counts):
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    ue = build_ula(n_ue, HALF, center)
    reference = location_reference(center, half_widths, counts, bs, ue)
    for w in (random_precoder(n_ue, 1), np.full(n_ue, 1 / np.sqrt(n_ue), dtype=complex)):
        d = build_location(center, half_widths, counts, bs, ula_offsets(n_ue, HALF), WAVELENGTH, w)
        assert d.matrix.shape == (bs.size, reference.shape[1])
        np.testing.assert_array_equal(d.matrix, precoded_reference(reference, w))
    idx = np.array([d.matrix.shape[1] - 1, 0, d.matrix.shape[1] // 2])
    np.testing.assert_array_equal(d.channels(idx), reference[:, idx])
    assert d.channels(np.array([], dtype=int)).shape == (reference.shape[0], 0)


@pytest.mark.parametrize("shape,angle_grid,rings", [
    ((5, 7), 7, [2.0, 3.5, 9.0]),
    ((5, 7), 1, [4.0]),
    ((10, 15), 6, [1.5, 8.0]),
    ((4, 1), 5, [3.0, 6.0, 12.0]),
])
def test_spherical_bit_identical_to_per_atom_loop(shape, angle_grid, rings):
    bs = build_upa(*shape, HALF, HALF, (0.5, -0.2, 1.0))
    d = build_spherical_baseline(bs, angle_grid, rings, WAVELENGTH)
    np.testing.assert_array_equal(d.matrix, spherical_reference(bs, angle_grid, rings))
    np.testing.assert_allclose(d.column_norms, np.linalg.norm(d.matrix, axis=0),
                               rtol=1e-14)


def test_channel_helpers_bit_identical_to_one_expression():
    bs = build_upa(10, 15, HALF, HALF, (0, 0, 0))
    ue = build_ula(4, HALF, (6.0, 1.0, -1.0))
    np.testing.assert_array_equal(los_channel(bs, ue, WAVELENGTH), los_reference(bs, ue))
    for pos in ([3.0, -2.0, 0.5], [12.0, 4.0, -3.0]):
        np.testing.assert_array_equal(
            near_field_steering(bs, pos, WAVELENGTH), steering_reference(bs, np.array(pos)))


def test_angular_column_norms_match_matrix():
    d = build_angular(6, 10, HALF, HALF, WAVELENGTH, 16)
    np.testing.assert_allclose(d.column_norms, np.linalg.norm(d.columns(slice(None)), axis=0),
                               rtol=1e-14)


def traced_peak(build):
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_desk_builds_peak_near_their_output():
    # the temporaries are bounded blocks, not a copy of the whole grid
    cfg = desk_profile()
    half = cfg.wavelength / 2
    bs = build_upa(cfg.bs_m_h, cfg.bs_m_v, half, half, (0, 0, 0))
    offsets = ula_offsets(cfg.n_ue, half)
    r_min, r_max, count = cfg.spherical_rings
    builds = {
        "location": lambda: build_location(
            (4.0, 0.5, -1.0), cfg.stages.grid_half_widths, cfg.stages.grid_counts, bs, offsets,
            cfg.wavelength, np.full(cfg.n_ue, 1 / np.sqrt(cfg.n_ue), dtype=complex)),
        "spherical": lambda: build_spherical_baseline(
            bs, SPHERICAL_ANGLE_GRID,
            reciprocal_distance_rings(r_min, r_max, int(count)), cfg.wavelength),
    }
    for name, build in builds.items():
        d, peak = traced_peak(build)
        assert peak <= 1.25 * d.matrix.nbytes, (name, peak / d.matrix.nbytes)
