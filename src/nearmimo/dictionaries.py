"""Dictionary construction for the sparse channel-recovery problems.

Three families:

* angular: plane-wave Kronecker atoms ``a_h ⊗ a_v`` over uniform
  direction-cosine grids ``(2z - Z - 1)/Z`` per axis, kept as the two
  axis factors.  OMP sees them through ``KroneckerOperator``, which
  scores all Z^2 atoms by two small matrix products and forms only a
  support's columns; no Z^2-column matrix is held,
* location-aided: LoS channels through the precoder, ``H(p) w``, over a
  small 3D grid of candidate user-center positions,
* spherical (baseline): full-array spherical steering vectors over a
  joint angle/distance grid, formed as a ``MatrixOperator``.

One kernel, ``channel._spherical_wave``, builds the location and spherical
atoms (and any location atom's vec(H), on demand); angular and spherical
atoms are unit-modulus, so their ``column_norms`` are ``sqrt(M)``, given
as that constant rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _spherical_wave, far_field_steering
from .errors import DegenerateGridError
from .geometry import ArrayGeometry, build_ula
from .sensing import CombinerDesign
from .solvers import MatrixOperator

# grid x-coordinates are kept in the physical half-space in front of the array
MIN_GRID_X = 0.1


@dataclass(frozen=True)
class AngularDictionary:
    """Plane-wave atoms ``a_h(g1) ⊗ a_v(g2)`` over a Z x Z cosine grid, kept as its factors.

    Columns are ordered g1-major: column ``(z1, z2)`` sits at index
    ``z1 * Z + z2``.  ``a_h`` (m_h x Z) and ``a_v`` (m_v x Z) hold the
    axis steering vectors; ``atoms`` forms the columns of a support, and
    ``operator`` / ``tile_operators`` serve the dictionary to OMP without
    forming its (m_h*m_v) x Z^2 matrix.
    """

    a_h: np.ndarray
    a_v: np.ndarray
    column_norms: np.ndarray
    cosines: np.ndarray
    z: int

    @property
    def num_atoms(self) -> int:
        return self.z * self.z

    def atoms(self, support) -> np.ndarray:
        """(m_h*m_v, K) Kronecker columns ``a_h ⊗ a_v`` of the atoms ``support`` indexes."""
        z1, z2 = np.divmod(np.arange(self.num_atoms)[support], self.z)
        rows = self.a_h.shape[0] * self.a_v.shape[0]
        return (self.a_h[:, None, z1] * self.a_v[None, :, z2]).reshape(rows, -1)

    def operator(self) -> KroneckerOperator:
        """The dictionary itself as an OMP operator, on antenna-order residuals."""
        return KroneckerOperator(self, self.column_norms)

    def tile_operators(self, combiner: CombinerDesign, scale: float):
        """Yield the OMP operator ``scale * V_i D`` of every tile ``i`` of ``combiner``, in order.

        Column norms ``||scale V_i a_q||`` come from the tile Gram; a tile
        whose chain blocks equal the previous tile's reuses them, so the
        designed combiner, whose tiles share one block set, computes them
        once per call.
        """
        blocks = norms = None
        for i in range(combiner.tiling.num_tiles):
            if blocks is None or not np.array_equal(combiner.chain_blocks[i], blocks):
                blocks = combiner.chain_blocks[i]
                norms = scale * self._gram_norms(combiner.tile_gram(i))
            yield KroneckerOperator(self, norms, combiner, i, scale)

    def _gram_norms(self, gram: np.ndarray) -> np.ndarray:
        """``sqrt(a_q^H G a_q)`` of every atom for an (m_h*m_v)-square Gram ``G``, one axis at a time."""
        m_h, m_v = self.a_h.shape[0], self.a_v.shape[0]
        g = gram.reshape(m_h, m_v, m_h, m_v)
        per_v = np.einsum("vb,hvgu,ub->bhg", self.a_v.conj(), g, self.a_v, optimize=True)
        quad = np.einsum("ha,bhg,ga->ab", self.a_h.conj(), per_v, self.a_h, optimize=True)
        return np.sqrt(quad.real).ravel()


@dataclass(frozen=True)
class KroneckerOperator:
    """OMP's view of ``scale * V_i (A_h ⊗ A_v)``, or of the bare dictionary with no combiner.

    Kronecker-OMP (Caiafa & Cichocki, Neural Computation 2013): the scores
    ``|A_bar^H r| / norms`` are ``scale * |A_h^H unvec(V_i^H r) conj(A_v)|``,
    a Z x Z product, and only the K columns of a support are formed.
    """

    dictionary: AngularDictionary
    column_norms: np.ndarray
    combiner: CombinerDesign | None = None
    tile: int = 0
    scale: float = 1.0

    @property
    def shape(self) -> tuple[int, int]:
        d = self.dictionary
        rows = d.a_h.shape[0] * d.a_v.shape[0] if self.combiner is None \
            else self.combiner.t_slots * self.combiner.m_rf_per_tile
        return rows, d.num_atoms

    def scores(self, residual: np.ndarray) -> np.ndarray:
        """Normalized correlations ``|a_q^H r| / ||a_q||`` of every column with ``residual``."""
        d = self.dictionary
        x = residual if self.combiner is None \
            else self.combiner.adjoint_tile(self.tile, residual[:, None])
        corr = d.a_h.conj().T @ x.reshape(d.a_h.shape[0], d.a_v.shape[0]) @ d.a_v.conj()
        return self.scale * np.abs(corr).ravel() / self.column_norms

    def columns(self, support) -> np.ndarray:
        """The (P, K) operator columns of the atoms ``support`` indexes."""
        atoms = self.dictionary.atoms(support)
        if self.combiner is not None:
            atoms = self.combiner.apply_tile(self.tile, atoms)
        return self.scale * atoms


@dataclass(frozen=True)
class LocationDictionary:
    """Column s of ``matrix`` (M x S) is ``H(p_s) w``: the LoS channel from grid point s.

    ``channels`` rebuilds the column-major ``vec(H(p_s))`` of chosen atoms.
    """

    matrix: np.ndarray
    points: np.ndarray  # (S, 3), x-major / z-fastest ordering
    antennas: np.ndarray  # (M, 3) base-station positions
    offsets: np.ndarray  # (N, 3) user antennas relative to the array center
    wavelength: float

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]

    def channels(self, support) -> np.ndarray:
        """(M*N, K) ``vec(H(p_s))`` of the K atoms ``support`` indexes; antenna n is block n."""
        points = self.points[support]
        return np.concatenate([_spherical_wave(self.antennas, points + offset, self.wavelength,
                                               divide=True) for offset in self.offsets])


def cosine_grid(z: int) -> np.ndarray:
    """The uniform direction-cosine grid ``(2z - Z - 1)/Z``, z = 1..Z."""
    return (2.0 * np.arange(1, z + 1) - z - 1) / z


def build_angular(
    m_ih: int, m_iv: int, d_h: float, d_v: float, wavelength: float, z: int
) -> AngularDictionary:
    """Build the subarray angular dictionary with Z^2 Kronecker atoms."""
    if z < 2:
        raise ValueError(f"need at least 2 grid points per axis, got {z}")
    g = cosine_grid(z)
    a_h = np.column_stack([far_field_steering(m_ih, d_h, c, wavelength) for c in g])
    a_v = np.column_stack([far_field_steering(m_iv, d_v, c, wavelength) for c in g])
    return AngularDictionary(a_h, a_v, np.full(z * z, np.sqrt(m_ih * m_iv)), g, z)


def _axis_grid(center: float, half_width: float, count: int, label: str) -> np.ndarray:
    if count < 1:
        raise ValueError(f"{label}: need at least one sample, got {count}")
    if half_width < 0:
        raise ValueError(f"{label}: negative half-width {half_width}")
    if count == 1:
        return np.array([center])
    if half_width == 0:
        raise DegenerateGridError(f"{label}: {count} samples but zero extent")
    return np.linspace(center - half_width, center + half_width, count)


def build_location(
    center,
    dx: float, dy: float, dz: float,
    s_x: int, s_y: int, s_z: int,
    bs: ArrayGeometry, ue_template: ArrayGeometry, wavelength: float, w,
) -> LocationDictionary:
    """Build the location-aided dictionary around an estimated center.

    Each axis is sampled uniformly over ``center ± half_width`` with the
    stated count (a count of 1 collapses the axis); grid x values are
    clamped to stay in front of the array.  Column ``s`` is the LoS
    channel with the user array moved to grid point ``s``, times the
    precoder column ``w``, summed over the user antennas inside the
    kernel's row blocks: no (M*N) x S vec(H) dictionary is formed.
    """
    w = np.asarray(w).reshape(-1)
    if w.size != ue_template.size:
        raise ValueError(f"precoder drives {w.size} antennas, user array has {ue_template.size}")
    center = np.asarray(center, dtype=float).reshape(3)
    gx = np.maximum(_axis_grid(center[0], dx, s_x, "x"), MIN_GRID_X)
    gy = _axis_grid(center[1], dy, s_y, "y")
    gz = _axis_grid(center[2], dz, s_z, "z")
    points = np.stack(np.meshgrid(gx, gy, gz, indexing="ij"), axis=-1).reshape(-1, 3)
    # user antenna n sits at p + offsets[n]
    offsets = build_ula(ue_template.m_h, ue_template.d_h, np.zeros(3)).positions
    matrix = _spherical_wave(bs.positions, points + offsets[:, None], wavelength,
                             divide=True, weights=w)
    return LocationDictionary(matrix, points, bs.positions, offsets, wavelength)


def build_spherical_baseline(
    bs: ArrayGeometry, angle_grid: int, distance_rings, wavelength: float
) -> MatrixOperator:
    """Full-array near-field dictionary over a joint angle/distance grid.

    One atom per (ky, kz, r) tuple, column ``(iy * G + iz) * R + ir`` over
    the ``G = angle_grid`` cosines and ``R`` rings; grid corners whose
    cosine pair leaves the unit disk are projected onto it (kx = 0),
    keeping the stated ``G**2 * R`` atom count.
    """
    rings = np.asarray(distance_rings, dtype=float)
    if angle_grid < 1 or rings.size == 0:
        raise ValueError("need a non-empty angle and distance grid")
    g = cosine_grid(angle_grid) if angle_grid > 1 else np.array([0.0])
    directions = []
    for ky in g:
        for kz in g:
            kx = np.sqrt(max(0.0, 1.0 - ky * ky - kz * kz))
            directions.append(np.array([kx, ky, kz]) / np.linalg.norm([kx, ky, kz]))
    points = (bs.center + np.array(directions)[:, None] * rings[:, None]).reshape(-1, 3)
    return MatrixOperator(_spherical_wave(bs.positions, points, wavelength),
                          np.full(len(points), np.sqrt(bs.size)))


def reciprocal_distance_rings(r_min: float, r_max: float, count: int) -> np.ndarray:
    """Distance rings uniform in 1/r over [r_min, r_max]."""
    if not (0 < r_min < r_max) or count < 1:
        raise ValueError("need 0 < r_min < r_max and count >= 1")
    if count == 1:
        return np.array([r_min])
    return 1.0 / np.linspace(1.0 / r_min, 1.0 / r_max, count)
