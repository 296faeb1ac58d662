"""Plane-wave references, the dense combiner and a dense sparse problem, for the tests only."""

import numpy as np

from nearmimo.channel import far_field_steering
from nearmimo.solvers import MatrixOperator, SparseProblem


def dense_combiner(design) -> np.ndarray:
    """The dense (T*M_RF) x M combiner ``V`` of a ``CombinerDesign``."""
    return design.apply(np.eye(design.num_antennas))


def dense_problem(a, y) -> SparseProblem:
    """``y = A x`` over a formed matrix, with its column norms from ``np.linalg.norm``."""
    a = np.asarray(a)
    return SparseProblem(MatrixOperator(a, np.linalg.norm(a, axis=0)), y)


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
