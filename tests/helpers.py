"""Plane- and spherical-wave references, the dense combiner and a dense sensing operator,
for the tests only."""

import numpy as np

from nearmimo.channel import far_field_steering
from nearmimo.dictionaries import cosine_grid
from nearmimo.geometry import build_ula
from nearmimo.solvers import MatrixOperator


def dense_combiner(design) -> np.ndarray:
    """The dense (T*M_RF) x M combiner ``V`` of a ``CombinerDesign``."""
    return design.apply(np.eye(design.num_antennas))


def dense_operator(a) -> MatrixOperator:
    """A formed matrix as an operator, with its column norms from ``np.linalg.norm``."""
    a = np.asarray(a)
    return MatrixOperator(a, np.linalg.norm(a, axis=0))


def ula_offsets(n: int, spacing: float) -> np.ndarray:
    """The (n, 3) antenna offsets of a y-axis ULA from its center, as ``SweepContext`` keeps them."""
    return build_ula(n, spacing, (0.0, 0.0, 0.0)).positions


def wave_vector(theta: float, phi: float) -> np.ndarray:
    """Unit direction ``(sin θ cos φ, sin θ sin φ, cos θ)``: elevation θ from +z, azimuth φ from +x."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def planar_far_field_steering(
    m_h: int, m_v: int, d_h: float, d_v: float,
    cos_h: float, cos_v: float, wavelength: float,
) -> np.ndarray:
    """Kronecker plane-wave steering of a planar array, ``a_h ⊗ a_v``."""
    return np.kron(
        far_field_steering(m_h, d_h, cos_h, wavelength),
        far_field_steering(m_v, d_v, cos_v, wavelength),
    )


def steering_reference(bs, pos, wavelength: float) -> np.ndarray:
    """The steering vector with its distances from ``np.linalg.norm``."""
    r = np.linalg.norm(bs.positions - pos, axis=1)
    return np.exp(-2j * np.pi * r / wavelength)


def spherical_reference(bs, angle_grid: int, rings, wavelength: float) -> np.ndarray:
    """``build_spherical_baseline``'s atoms, one steering vector each, about ``bs.center``."""
    g = cosine_grid(angle_grid) if angle_grid > 1 else np.array([0.0])
    cols = []
    for ky in g:
        for kz in g:
            direction = np.array([np.sqrt(max(0.0, 1.0 - ky * ky - kz * kz)), ky, kz])
            direction = direction / np.linalg.norm(direction)
            for r in rings:
                cols.append(steering_reference(bs, bs.center + r * direction, wavelength))
    return np.column_stack(cols)
