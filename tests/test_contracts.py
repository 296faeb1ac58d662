"""Property-based contracts, checked on derandomized hypothesis examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nearmimo.channel import _spherical_wave
from nearmimo.dictionaries import build_location
from nearmimo.geometry import build_ula, build_upa

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2

CONTRACT = settings(derandomize=True, max_examples=30, deadline=None)


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
    ue = build_ula(w.size, HALF, center, (0.3, 1.0, 0.2))
    d = build_location(center, 0.2, 0.2, 0.02, *counts, bs, ue, WAVELENGTH, w)
    expected = np.zeros((bs.size, d.num_atoms), dtype=complex)
    for offset, w_n in zip(d.offsets, w):
        expected += _spherical_wave(bs.positions, d.points + offset, WAVELENGTH, divide=True) * w_n
    np.testing.assert_array_equal(d.matrix, expected)
