import tracemalloc

import numpy as np
import pytest
from helpers import (
    assert_near_absolute,
    grouped_reference,
    location_reference,
    planar_far_field_steering,
    spherical_reference,
    steering_reference,
    ula_offsets,
    wave_reference,
)

from nearmimo import dictionaries
from nearmimo.channel import _fill_waves as fill_waves
from nearmimo.channel import los_channel, near_field_steering
from nearmimo.dictionaries import (
    build_angular,
    build_location,
    build_spherical_baseline,
    cosine_grid,
    reciprocal_distance_rings,
)
from nearmimo.errors import DegenerateGridError, SingularGeometryError
from nearmimo.geometry import build_ula, build_upa
from nearmimo.harness import SPHERICAL_ANGLE_GRID, desk_profile, paper_profile

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
        assert d.shape == (16, 1)
        np.testing.assert_allclose(np.abs(d.columns(slice(None))), 1.0, atol=1e-13)

    def test_atom_count(self):
        bs = build_upa(4, 4, HALF, HALF, (0, 0, 0))
        d = build_spherical_baseline(bs, 5, [5.0, 10.0, 20.0], WAVELENGTH)
        assert d.shape == (16, 5 * 5 * 3)
        assert d.columns(slice(None)).shape == d.shape
        assert d.quarter.shape == (16, 3 * 3 * 3)  # -0.8 ... 0.8 fold onto 0, 0.4, 0.8

    def test_far_ring_matches_plane_wave_model(self):
        bs = build_upa(6, 8, HALF, HALF, (0, 0, 0))
        d = build_spherical_baseline(bs, 8, [1e6], WAVELENGTH)
        # an interior grid pair well inside the unit disk: column iy * 8 + iz of the one ring
        g = cosine_grid(8)
        col = d.columns([4 * 8 + 5])[:, 0]
        model = planar_far_field_steering(6, 8, HALF, HALF, g[4], g[5], WAVELENGTH)
        phase = np.angle(col * model.conj())
        phase -= phase.mean()
        assert np.abs(phase).max() < 1e-3

    def test_reciprocal_rings(self):
        rings = reciprocal_distance_rings(5.0, 25.0, 4)
        np.testing.assert_allclose(1.0 / rings, np.linspace(0.2, 0.04, 4))


# antenna counts that the group blocks do not divide, odd atom counts and count-1 grid axes
LOCATION_CASES = [
    ((5, 7), 2, (4.0, 0.5, -1.0), (0.2, 0.2, 0.02), (5, 5, 3)),
    ((5, 7), 3, (6.0, -1.0, -1.0), (0.3, 0.0, 0.05), (3, 1, 5)),
    ((10, 15), 2, (8.0, 1.0, -1.0), (0.2, 0.2, 0.02), (11, 11, 3)),
    ((10, 15), 1, (0.12, 1.0, -1.0), (0.2, 0.2, 0.0), (7, 3, 1)),
]


def random_precoder(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("shape,n_ue,center,half_widths,counts", LOCATION_CASES)
def test_location_bit_identical_to_per_atom_loop(shape, n_ue, center, half_widths, counts):
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    offsets = ula_offsets(n_ue, HALF)
    w = random_precoder(n_ue, 0)
    d = build_location(center, half_widths, counts, bs, offsets, WAVELENGTH, w)
    channels, atoms = grouped_reference(bs.positions, offsets, d.points, WAVELENGTH, w)
    np.testing.assert_array_equal(d.channels(np.arange(d.matrix.shape[1])), channels)
    np.testing.assert_array_equal(d.matrix, atoms)
    assert_near_absolute(channels, atoms, location_reference(
        center, half_widths, counts, bs, build_ula(n_ue, HALF, center), WAVELENGTH), w)


@pytest.mark.parametrize("shape,n_ue,center,half_widths,counts", LOCATION_CASES)
def test_precoded_atoms_bit_identical_to_contracted_reference(
        shape, n_ue, center, half_widths, counts):
    bs = build_upa(*shape, HALF, HALF, (0, 0, 0))
    offsets = ula_offsets(n_ue, HALF)
    reference = location_reference(center, half_widths, counts, bs,
                                   build_ula(n_ue, HALF, center), WAVELENGTH)
    for w in (random_precoder(n_ue, 1), np.full(n_ue, 1 / np.sqrt(n_ue), dtype=complex)):
        d = build_location(center, half_widths, counts, bs, offsets, WAVELENGTH, w)
        channels, atoms = grouped_reference(bs.positions, offsets, d.points, WAVELENGTH, w)
        assert d.matrix.shape == (bs.size, reference.shape[1])
        np.testing.assert_array_equal(d.matrix, atoms)
        assert_near_absolute(channels, d.matrix, reference, w)
    idx = np.array([d.matrix.shape[1] - 1, 0, d.matrix.shape[1] // 2])
    np.testing.assert_array_equal(d.channels(idx), channels[:, idx])
    assert d.channels(np.array([], dtype=int)).shape == (reference.shape[0], 0)


@pytest.mark.parametrize("profile", [desk_profile, paper_profile])
def test_kernel_rows_are_the_difference_co_array(profile, monkeypatch):
    # a y-axis user ULA at the BS's horizontal pitch: (m_h + N - 1) * m_v displacements
    cfg = profile()
    half = cfg.wavelength / 2
    bs = build_upa(cfg.bs_m_h, cfg.bs_m_v, half, half, (0, 0, 0))
    rows = []

    def counted(near, *args):
        rows.append(len(near))
        fill_waves(near, *args)

    monkeypatch.setattr(dictionaries, "_fill_waves", counted)
    d = build_location((6.0, 0.5, -1.0), cfg.stages.grid_half_widths, cfg.stages.grid_counts,
                       bs, ula_offsets(cfg.n_ue, half), cfg.wavelength, np.ones(cfg.n_ue))
    assert sum(rows) == len(d.displacements) == (cfg.bs_m_h + cfg.n_ue - 1) * cfg.bs_m_v
    assert d.groups.shape == (bs.size, cfg.n_ue)


def test_a_grid_point_on_a_displacement_raises():
    # pair (0, 0) leads its group, so its displacement is the one the kernel sees
    bs = build_upa(3, 2, HALF, HALF, (0.5, 0.0, 0.0))
    offsets = ula_offsets(2, HALF)
    on = bs.positions[0] - offsets[0]
    with pytest.raises(SingularGeometryError):
        build_location(on, (0, 0, 0), (1, 1, 1), bs, offsets, WAVELENGTH, np.ones(2))


@pytest.mark.parametrize("shape,angle_grid,rings", [
    ((5, 7), 7, [2.0, 3.5, 9.0]),
    ((5, 7), 1, [4.0]),
    ((10, 15), 6, [1.5, 8.0]),
    ((4, 1), 5, [3.0, 6.0, 12.0]),
])
def test_spherical_bit_identical_to_per_atom_loop(shape, angle_grid, rings):
    # the atoms depend only on the array's layout about its center
    bs = build_upa(*shape, HALF, HALF, (0.5, -0.2, 1.0))
    at_origin = build_upa(*shape, HALF, HALF, (0, 0, 0))
    d = build_spherical_baseline(bs, angle_grid, rings, WAVELENGTH)
    atoms = d.columns(slice(None))
    np.testing.assert_array_equal(
        atoms, build_spherical_baseline(at_origin, angle_grid, rings, WAVELENGTH).columns(
            slice(None)))
    np.testing.assert_array_equal(atoms, spherical_reference(at_origin, angle_grid, rings,
                                                             WAVELENGTH))
    reference = spherical_reference(bs, angle_grid, rings, WAVELENGTH)
    assert np.abs(atoms - reference).max() <= 1e-12
    np.testing.assert_allclose(d.column_norms, np.linalg.norm(atoms, axis=0), rtol=1e-14)


def held_bytes(operator) -> int:
    """Bytes of the arrays an operator holds in its fields."""
    return sum(v.nbytes for v in vars(operator).values() if isinstance(v, np.ndarray))


def test_spherical_holds_about_a_quarter_of_its_matrix():
    cfg = paper_profile()
    half = cfg.wavelength / 2
    bs = build_upa(cfg.bs_m_h, cfg.bs_m_v, half, half, (0, 0, 0))
    d = build_spherical_baseline(bs, SPHERICAL_ANGLE_GRID,
                                 reciprocal_distance_rings(*cfg.spherical_rings), cfg.wavelength)
    formed = d.shape[0] * d.shape[1] * np.dtype(complex).itemsize
    assert d.shape == (768, 4096)
    assert held_bytes(d) <= 0.26 * formed, held_bytes(d) / formed


def test_channel_helpers_bit_identical_to_one_expression():
    bs = build_upa(10, 15, HALF, HALF, (0, 0, 0))
    ue = build_ula(4, HALF, (6.0, 1.0, -1.0))
    np.testing.assert_array_equal(los_channel(bs, ue, WAVELENGTH),
                                  wave_reference(bs.positions, ue.positions, WAVELENGTH))
    for pos in ([3.0, -2.0, 0.5], [12.0, 4.0, -3.0]):
        np.testing.assert_array_equal(
            near_field_steering(bs, pos, WAVELENGTH),
            steering_reference(bs, np.array(pos), WAVELENGTH))


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
    paper = paper_profile()
    paper_half = paper.wavelength / 2
    paper_bs = build_upa(paper.bs_m_h, paper.bs_m_v, paper_half, paper_half, (0, 0, 0))
    builds = {
        "location": lambda: build_location(
            (4.0, 0.5, -1.0), cfg.stages.grid_half_widths, cfg.stages.grid_counts, bs, offsets,
            cfg.wavelength, np.full(cfg.n_ue, 1 / np.sqrt(cfg.n_ue), dtype=complex)),
        "paper location": lambda: build_location(
            (9.0, 1.0, -1.0), paper.stages.grid_half_widths, paper.stages.grid_counts, paper_bs,
            ula_offsets(paper.n_ue, paper_half), paper.wavelength,
            np.full(paper.n_ue, 1 / np.sqrt(paper.n_ue), dtype=complex)),
        "spherical": lambda: build_spherical_baseline(
            bs, SPHERICAL_ANGLE_GRID,
            reciprocal_distance_rings(r_min, r_max, int(count)), cfg.wavelength),
    }
    for name, build in builds.items():
        d, peak = traced_peak(build)
        output = held_bytes(d) if name == "spherical" else d.matrix.nbytes
        assert peak <= 1.25 * output, (name, peak / output)
