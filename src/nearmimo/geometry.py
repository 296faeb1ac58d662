"""Array layouts, subarray tiling and direction-vector algebra.

Conventions used throughout the library:

* A planar array lies in the yz-plane through its center, with the
  horizontal axis along y and the vertical axis along z.
* The linear antenna index runs vertical-fastest within horizontal,
  i.e. ``m = i_h * M_v + i_v``.  This makes a planar steering vector the
  Kronecker product ``a_h ⊗ a_v`` of its two axis factors.
* Direction vectors are unit 3-vectors of direction cosines
  ``(sin θ cos φ, sin θ sin φ, cos θ)`` with elevation ``θ`` measured
  from the +z axis and azimuth ``φ`` from the +x axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirectionError

_UNIT_NORM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable antenna layout.

    Parameters
    ----------
    kind : str
        ``"planar"`` or ``"linear"``.
    m_h, m_v : int
        Element counts along the horizontal and vertical axes.  Linear
        arrays use ``m_v = 1`` with elements along the y-axis.
    d_h, d_v : float
        Element spacings in meters.
    center : ndarray
        Array phase center, shape ``(3,)``.
    positions : ndarray
        Element positions, shape ``(M, 3)``, in the canonical
        vertical-fastest order.
    """

    kind: str
    m_h: int
    m_v: int
    d_h: float
    d_v: float
    center: np.ndarray
    positions: np.ndarray

    @property
    def size(self) -> int:
        return self.m_h * self.m_v


@dataclass(frozen=True)
class SubarrayTile:
    """One tile of a partitioned planar array."""

    geometry: ArrayGeometry
    antenna_indices: np.ndarray  # global indices, within-tile canonical order


@dataclass(frozen=True)
class SubarrayTiling:
    """Partition of a planar array into I_h x I_v contiguous tiles."""

    parent: ArrayGeometry
    i_h: int
    i_v: int
    tiles: tuple[SubarrayTile, ...]

    @property
    def num_tiles(self) -> int:
        return self.i_h * self.i_v


def build_upa(m_h: int, m_v: int, d_h: float, d_v: float, center) -> ArrayGeometry:
    """Build a uniform planar array in the yz-plane.

    Element ``(i_h, i_v)`` sits at the center plus
    ``(0, (i_h - (m_h-1)/2) * d_h, (i_v - (m_v-1)/2) * d_v)``; the linear
    index is ``i_h * m_v + i_v``.

    Raises
    ------
    ValueError
        If a count is < 1 or a spacing is <= 0.
    """
    if m_h < 1 or m_v < 1:
        raise ValueError(f"antenna counts must be >= 1, got {m_h} x {m_v}")
    if d_h <= 0 or d_v <= 0:
        raise ValueError(f"antenna spacings must be > 0, got {d_h}, {d_v}")
    center = np.asarray(center, dtype=float).reshape(3)
    off_h = (np.arange(m_h) - (m_h - 1) / 2.0) * d_h
    off_v = (np.arange(m_v) - (m_v - 1) / 2.0) * d_v
    pos = np.zeros((m_h * m_v, 3))
    pos[:, 1] = np.repeat(off_h, m_v)
    pos[:, 2] = np.tile(off_v, m_h)
    pos += center
    return ArrayGeometry(
        kind="planar", m_h=m_h, m_v=m_v, d_h=d_h, d_v=d_v,
        center=_readonly(center), positions=_readonly(pos),
    )


def build_ula(n: int, spacing: float, center) -> ArrayGeometry:
    """Build a uniform linear array along the y-axis."""
    if n < 1:
        raise ValueError(f"antenna count must be >= 1, got {n}")
    if spacing <= 0:
        raise ValueError(f"antenna spacing must be > 0, got {spacing}")
    center = np.asarray(center, dtype=float).reshape(3)
    offsets = (np.arange(n) - (n - 1) / 2.0) * spacing
    pos = center + np.outer(offsets, (0.0, 1.0, 0.0))
    return ArrayGeometry(
        kind="linear", m_h=n, m_v=1, d_h=spacing, d_v=spacing,
        center=_readonly(center), positions=_readonly(pos),
    )


def partition(geom: ArrayGeometry, i_h: int, i_v: int) -> SubarrayTiling:
    """Partition a planar array into ``i_h x i_v`` contiguous tiles.

    Each tile is an axis-aligned ``(m_h/i_h) x (m_v/i_v)`` block; tile
    centers are the centroids of the tile element positions.  Tiles are
    ordered vertical-fastest, mirroring the element order.

    Raises
    ------
    ValueError
        If a tile count does not divide the matching element count.
    """
    if geom.kind != "planar":
        raise ValueError("only planar arrays can be tiled")
    if i_h < 1 or i_v < 1:
        raise ValueError(f"tile counts must be >= 1, got {i_h} x {i_v}")
    if geom.m_h % i_h or geom.m_v % i_v:
        raise ValueError(
            f"tile counts ({i_h} x {i_v}) must divide antenna counts "
            f"({geom.m_h} x {geom.m_v})"
        )
    m_ih = geom.m_h // i_h
    m_iv = geom.m_v // i_v
    tiles = []
    for t_h in range(i_h):
        for t_v in range(i_v):
            ih = np.arange(t_h * m_ih, (t_h + 1) * m_ih)
            iv = np.arange(t_v * m_iv, (t_v + 1) * m_iv)
            idx = (ih[:, None] * geom.m_v + iv[None, :]).ravel()
            pos = geom.positions[idx]
            centroid = pos.mean(axis=0)
            tile_geom = ArrayGeometry(
                kind="planar", m_h=m_ih, m_v=m_iv, d_h=geom.d_h, d_v=geom.d_v,
                center=_readonly(centroid), positions=_readonly(pos),
            )
            tiles.append(SubarrayTile(geometry=tile_geom, antenna_indices=_readonly(idx)))
    return SubarrayTiling(parent=geom, i_h=i_h, i_v=i_v, tiles=tuple(tiles))


def recover_kx(k_y: float, k_z: float) -> np.ndarray:
    """Complete a unit direction from its y and z cosines.

    Takes the non-negative root for the x component (sources lie in the
    x > 0 half-space); radicands within 1e-12 of zero are clamped.

    Raises
    ------
    InvalidDirectionError
        If ``k_y**2 + k_z**2`` exceeds 1 beyond tolerance.
    """
    radicand = 1.0 - k_y * k_y - k_z * k_z
    if radicand < -_UNIT_NORM_TOL:
        raise InvalidDirectionError(
            f"direction cosines ({k_y}, {k_z}) have squared sum > 1"
        )
    return np.array([np.sqrt(max(radicand, 0.0)), k_y, k_z])
