"""Dictionary construction for the sparse channel-recovery problems.

Three families:

* angular: plane-wave Kronecker atoms ``a_h ⊗ a_v`` over uniform
  direction-cosine grids ``(2z - Z - 1)/Z`` per axis, kept as the two
  axis factors.  The dictionary is itself an OMP operator, and
  ``TileOperator`` is its view through every combiner tile at once, each
  OMP problem seen through its own tile; both score a (B, P) stack of
  residuals, all Z^2 atoms each, by one batched product per axis and form
  only the picked atoms' columns; no Z^2-column matrix is held,
* location-aided: LoS channels through the precoder, ``H(p) w``, over a
  small 3D grid of candidate user-center positions, built from the waves
  of the grouped BS-user displacements ``b_m - u_n``,
* spherical (baseline): full-array spherical steering vectors over a
  joint angle/distance grid, kept as the quarter of the atoms with
  non-negative cosines, whose mirrors are the rest; also an OMP operator,
  which scores a stack of B residuals with one (4B, M) x (M, Q/4) product.

One kernel, ``channel._fill_waves``, forms the location atoms' group waves
block by block, and through ``channel._spherical_wave`` the spherical atoms
and any location atom's vec(H), on demand; angular and spherical
atoms are unit-modulus, so their ``column_norms`` are ``sqrt(M)``, given
as that constant rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _fill_waves, _spherical_wave, far_field_steering
from .errors import DegenerateGridError
from .geometry import ArrayGeometry, build_upa
from .sensing import _ORTHO_TOL, CombinerDesign
from .solvers import _check_operator

# grid x-coordinates are kept in the physical half-space in front of the array
MIN_GRID_X = 0.1
# Antenna-pair displacements that agree to this fraction of a wavelength are one group.
# The BS and user positions round differently, so exact equality would split the
# co-array (1,392 groups instead of 912 at paper scale); 1e-9 λ, 44 pm at 6.8 GHz, is
# far above that rounding and far below any distance the atoms resolve.
GROUP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AngularDictionary:
    """Plane-wave atoms ``a_h(g1) ⊗ a_v(g2)`` over a Z x Z cosine grid, kept as its factors.

    Columns are ordered g1-major: column ``(z1, z2)`` sits at index
    ``z1 * Z + z2``.  ``a_h`` (m_h x Z) and ``a_v`` (m_v x Z) hold the
    axis steering vectors.  The dictionary is an OMP operator on
    antenna-order residuals (``shape``, ``scores``, ``columns``), and
    ``tile_operator`` serves its view through every combiner tile, neither
    forming its (m_h*m_v) x Z^2 matrix.
    """

    a_h: np.ndarray
    a_v: np.ndarray
    column_norms: np.ndarray
    cosines: np.ndarray

    def __post_init__(self):
        _check_operator(self.shape, self.column_norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a_h.shape[0] * self.a_v.shape[0], self.a_h.shape[1] * self.a_v.shape[1]

    def scores(self, residuals: np.ndarray, problems=None) -> np.ndarray:
        """(n, Q) normalized correlations ``|a_q^H r| / ||a_q||`` of every atom with each
        of the (n, m_h*m_v) ``residuals``."""
        scores = np.abs(self._correlations(residuals))
        scores /= self.column_norms
        return scores

    def columns(self, support, problems=None) -> np.ndarray:
        """(m_h*m_v, K) Kronecker columns ``a_h ⊗ a_v`` of the atoms ``support`` indexes."""
        z1, z2 = np.divmod(np.arange(self.shape[1])[support], self.a_v.shape[1])
        return (self.a_h[:, None, z1] * self.a_v[None, :, z2]).reshape(self.shape[0], -1)

    def _correlations(self, x: np.ndarray) -> np.ndarray:
        """(n, Z^2): the correlations ``A_h^H unvec(x_j) conj(A_v)`` of every atom with each
        (m_h*m_v) row of ``x``, one batched product per axis, the narrower axis last
        (``Z^2 m_v`` against ``Z^2 m_h`` products per row)."""
        m_h, m_v = self.a_h.shape[0], self.a_v.shape[0]
        x = x.reshape(-1, m_h, m_v)
        if m_v <= m_h:
            z = (self.a_h.conj().T @ x) @ self.a_v.conj()
        else:
            z = self.a_h.conj().T @ (x @ self.a_v.conj())
        return z.reshape(z.shape[0], -1)

    def tile_operator(self, combiner: CombinerDesign, scale: float, tiles) -> TileOperator:
        """The OMP operator of a batch whose problem b is ``scale * V_i D`` for ``i = tiles[b]``.

        Column norms ``||scale V_i a_q||`` come from the combiner's chain
        Grams.  When every chain Gram is ``c I`` to the combiner's build
        tolerance, as ``verify_blocks`` checks for the designed combiner,
        each tile Gram is ``c I`` and the norms are the constant
        ``scale * sqrt(c) * ||a_q||``, with no product; otherwise all
        tiles' norms come from one contraction with their Grams.
        """
        c = combiner.t_slots * combiner.entry_modulus ** 2
        if combiner.gram_error <= _ORTHO_TOL:
            norms = np.broadcast_to(scale * (np.sqrt(c) * self.column_norms),
                                    (combiner.tiling.num_tiles, self.shape[1]))
        else:
            norms = scale * self._gram_norms(combiner.tile_grams())
        return TileOperator(self, norms, combiner, np.asarray(tiles), scale)

    def _gram_norms(self, grams: np.ndarray) -> np.ndarray:
        """(I, Z^2) ``sqrt(a_q^H G_i a_q)`` of every atom for I (m_h*m_v)-square Grams.

        With ``G[(h, v), (g, u)]`` regrouped as ``W[(h, g), (v, u)]`` and the
        axis products ``P_h[(h, g), z1] = conj(a_h[h, z1]) a_h[g, z1]`` (and
        ``P_v`` alike), the quadratic forms are ``P_h^T W P_v``: one GEMM over
        all tiles, then one small product per tile.  A Gram is block diagonal
        in its chains, so only the row pairs (h, g) that some chain spans are
        kept: the m_h pairs h = g when every chain lies within one row.
        """
        (m_h, z_h), (m_v, z_v) = self.a_h.shape, self.a_v.shape
        tiles = len(grams)
        w = grams.reshape(tiles, m_h, m_v, m_h, m_v).transpose(0, 1, 3, 2, 4)
        w = w.reshape(tiles, m_h * m_h, m_v * m_v)
        spanned = np.flatnonzero(np.any(w != 0, axis=(0, 2)))
        p_h = (self.a_h.conj()[:, None] * self.a_h).reshape(m_h * m_h, z_h)[spanned]
        p_v = (self.a_v.conj()[:, None] * self.a_v).reshape(m_v * m_v, z_v)
        per_v = (w[:, spanned].reshape(-1, m_v * m_v) @ p_v).reshape(tiles, len(spanned), z_v)
        quad = p_h.T @ per_v  # (I, Z_h, Z_v)
        return np.sqrt(quad.real).reshape(tiles, z_h * z_v)


@dataclass(frozen=True)
class TileOperator:
    """OMP's view of a batch of ``scale * V_i (A_h ⊗ A_v)``: problem b sees tile ``tiles[b]``.

    Kronecker-OMP (Caiafa & Cichocki, Neural Computation 2013): the scores
    ``|A_bar^H r| / norms`` are ``scale * |A_h^H unvec(V_i^H r) conj(A_v)|``,
    two small products per problem, batched over the problems, and only
    the picked atoms' columns are formed.  ``column_norms`` is (I, Z^2),
    one row per tile.
    """

    dictionary: AngularDictionary
    column_norms: np.ndarray
    combiner: CombinerDesign
    tiles: np.ndarray
    scale: float

    def __post_init__(self):
        _check_operator(self.shape, self.column_norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.combiner.t_slots * self.combiner.m_rf_per_tile, self.dictionary.shape[1]

    def scores(self, residuals: np.ndarray, problems) -> np.ndarray:
        """(n, Q) normalized correlations of every column with each of the (n, P)
        ``residuals``, row j through the tile of problem ``problems[j]``."""
        tiles = self.tiles[problems]
        comb = self.combiner
        # chain m of tile i gets F^H z_m: (n, M_rf, M_s, T) @ (n, M_rf, T, 1)
        blocks_h = comb.chain_blocks[tiles].conj().swapaxes(-1, -2)
        per_chain = residuals.reshape(-1, comb.t_slots, comb.m_rf_per_tile).swapaxes(1, 2)
        x = blocks_h @ per_chain[..., None]
        scores = np.abs(self.dictionary._correlations(x.reshape(len(tiles), -1)))
        scores *= self.scale
        scores /= self.column_norms[tiles]
        return scores

    def columns(self, support, problems) -> np.ndarray:
        """(P, K): column j is column ``support[j]`` of the operator of problem ``problems[j]``."""
        comb = self.combiner
        atoms = self.dictionary.columns(support).T.reshape(-1, comb.m_rf_per_tile, comb.m_s, 1)
        out = comb.chain_blocks[self.tiles[problems]] @ atoms  # (K, M_rf, T, 1)
        return self.scale * out[..., 0].swapaxes(1, 2).reshape(len(atoms), -1).T


@dataclass(frozen=True)
class SphericalDictionary:
    """Spherical atoms over a (ky, kz, r) grid, kept as the quarter with ``ky, kz >= 0``.

    Atom ``q`` is column ``column[q]`` of ``quarter`` read in the antenna
    order ``orders[mirror[q]]``: as is, mirrored in y, in z, or in both.
    The dictionary is an OMP operator on antenna-order residuals that
    scores every atom of a stack of n residuals with one (4n, M) x (M, Q/4)
    product.
    """

    quarter: np.ndarray
    orders: np.ndarray
    mirror: np.ndarray
    column: np.ndarray
    column_norms: np.ndarray

    def __post_init__(self):
        _check_operator(self.shape, self.column_norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.quarter.shape[0], self.column.size

    def scores(self, residuals: np.ndarray, problems=None) -> np.ndarray:
        """(n, Q) normalized correlations ``|a_q^H r| / ||a_q||`` of every atom with each of
        the (n, M) ``residuals``: one (4n, M) x (M, Q/4) product."""
        r = residuals.reshape(-1, self.shape[0]).conj()
        magnitudes = np.abs(r[:, self.orders].reshape(-1, r.shape[1]) @ self.quarter)
        scores = magnitudes.reshape(len(r), 4, -1)[:, self.mirror, self.column]
        scores /= self.column_norms
        return scores

    def columns(self, support, problems=None) -> np.ndarray:
        """The (M, K) atoms ``support`` indexes."""
        return self.quarter[self.orders[self.mirror[support]].T, self.column[support]]


@dataclass(frozen=True)
class LocationDictionary:
    """Column s of ``matrix`` (M x S) is ``H(p_s) w``: the LoS channel from grid point s.

    Entry (m, n) of ``H(p_s)`` is the wave from ``p_s`` at the displacement
    ``displacements[groups[m, n]]``, BS antenna m minus user offset n.
    ``channels`` rebuilds the column-major ``vec(H(p_s))`` of chosen atoms
    from one kernel call on the groups.
    """

    matrix: np.ndarray
    points: np.ndarray  # (S, 3), x-major / z-fastest ordering
    displacements: np.ndarray  # (U, 3), one per group of antenna pairs
    groups: np.ndarray  # (M, N) group of each (BS antenna, user antenna) pair
    wavelength: float

    def channels(self, support) -> np.ndarray:
        """(M*N, K) ``vec(H(p_s))`` of the K atoms ``support`` indexes; antenna n is block n."""
        waves = _spherical_wave(self.displacements, self.points[support], self.wavelength,
                                divide=True)
        return waves[self.groups.T.ravel()]


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
    return AngularDictionary(a_h, a_v, np.full(z * z, np.sqrt(m_ih * m_iv)), g)


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


def _group_pairs(antennas: np.ndarray, offsets: np.ndarray, wavelength: float):
    """Group the antenna pairs (m, n) by their displacement ``antennas[m] - offsets[n]``.

    Returns the (U, 3) displacement of each group, taken from its first pair
    in the order ``m * N + n``, and the (M, N) group of each pair.  Groups are
    numbered in the lexicographic (x, y, z) order of their displacements
    rounded to ``GROUP_TOLERANCE`` wavelengths.
    """
    pairs = (antennas[:, None] - offsets).reshape(-1, 3)
    keys = np.round(pairs / (GROUP_TOLERANCE * wavelength)).astype(np.int64)
    order = np.lexsort(keys.T[::-1])  # stable: each group's first pair leads it
    first = np.concatenate(([True], np.any(np.diff(keys[order], axis=0) != 0, axis=1)))
    groups = (np.cumsum(first) - 1)[np.argsort(order)]
    return pairs[order[first]], groups.reshape(len(antennas), len(offsets))


def _scatter_runs(groups: np.ndarray, rows: int) -> list:
    """For each block of ``rows`` groups, the runs ``[m, g, n, length]`` of its terms.

    Term (m, n) adds the wave of group ``groups[m, n]``, row ``g`` of its
    block, to row m.  Terms go by block, then by the rank of their group
    within their row, so each row takes its terms in increasing group number.
    A run is a stretch of one user antenna n whose rows and groups both step
    by one: a slice of the output and of the block.
    """
    m, n = groups.shape
    key = (groups // rows * n + np.argsort(np.argsort(groups, axis=1), axis=1)).ravel()
    order = np.argsort(key, kind="stable")
    row, user = np.divmod(order, n)
    group = groups.ravel()[order]
    step = ((np.diff(key[order]) == 0) & (np.diff(row) == 1) & (np.diff(group) == 1)
            & (np.diff(user) == 0))
    starts = np.flatnonzero(np.concatenate(([True], ~step)))
    first = group[starts]
    runs = np.column_stack((row[starts], first % rows, user[starts],
                            np.diff(np.append(starts, m * n))))
    blocks = np.split(runs, np.searchsorted(first // rows, np.arange(1, first[-1] // rows + 1)))
    return [block.tolist() for block in blocks]


def _precoded_atoms(displacements, groups, points, wavelength, w) -> np.ndarray:
    """The (M, S) atoms: row m sums ``w[n]`` times the wave of group ``groups[m, n]``.

    A row adds its N terms in increasing group number.  The group waves are
    formed in blocks of M/32 groups, and each block's terms are added before
    the next block is formed, so the block, its distances and a term's
    product each hold at most 1/32 of the output.
    """
    m, u, s = len(groups), len(displacements), len(points)
    rows = max(1, m // 32)
    runs = _scatter_runs(groups, rows)
    out = np.zeros((m, s), dtype=complex)
    waves, r = np.empty((min(rows, u), s), dtype=complex), np.empty((min(rows, u), s))
    for lo, block_runs in zip(range(0, u, rows), runs):
        block = waves[:min(rows, u - lo)]
        _fill_waves(displacements[lo:lo + rows], points, wavelength, True, block, r[:len(block)])
        for top, g, user, length in block_runs:
            out[top:top + length] += block[g:g + length] * w[user]
    return out


def build_location(
    center, half_widths, counts, bs: ArrayGeometry, offsets: np.ndarray, wavelength: float, w,
) -> LocationDictionary:
    """Build the location-aided dictionary around an estimated center.

    Each axis is sampled uniformly over ``center ± half_widths`` with the
    stated ``counts`` (a count of 1 collapses the axis); grid x values are
    clamped to stay in front of the array.  Column ``s`` is the LoS
    channel from the user antennas at grid point ``s`` plus ``offsets``
    (N, 3), times the precoder column ``w``.  The distance from BS antenna
    ``b_m`` to user antenna ``p_s + u_n`` is ``|(b_m - u_n) - p_s|``, so the
    M*N pairs are grouped by their displacement ``b_m - u_n`` and the kernel
    runs once per group: a user ULA at the BS's horizontal pitch makes
    (m_h + N - 1)*m_v groups, 912 of 3,072 pairs at paper scale.  No
    (M*N) x S vec(H) dictionary is formed.
    """
    w = np.asarray(w).reshape(-1)
    if w.size != len(offsets):
        raise ValueError(f"precoder drives {w.size} antennas, user array has {len(offsets)}")
    center = np.asarray(center, dtype=float).reshape(3)
    gx, gy, gz = (_axis_grid(c, hw, n, label)
                  for c, hw, n, label in zip(center, half_widths, counts, "xyz"))
    points = np.stack(np.meshgrid(np.maximum(gx, MIN_GRID_X), gy, gz, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    displacements, groups = _group_pairs(bs.positions, offsets, wavelength)
    matrix = _precoded_atoms(displacements, groups, points, wavelength, w)
    return LocationDictionary(matrix, points, displacements, groups, wavelength)


def build_spherical_baseline(
    bs: ArrayGeometry, angle_grid: int, distance_rings, wavelength: float
) -> SphericalDictionary:
    """Full-array near-field dictionary over a joint angle/distance grid.

    One atom per (ky, kz, r) tuple, column ``(iy * G + iz) * R + ir`` over
    the ``G = angle_grid`` cosines and ``R`` rings; grid corners whose
    cosine pair leaves the unit disk are projected onto it (kx = 0),
    keeping the stated ``G**2 * R`` atom count.  Atoms are built about the
    array center from the layout's own offsets, so any center gives the
    origin-centered array's bits, and only those with ``ky, kz >= 0`` are
    formed: the offsets and the cosine grid are exactly symmetric.
    """
    rings = np.asarray(distance_rings, dtype=float)
    if angle_grid < 1 or rings.size == 0:
        raise ValueError("need a non-empty angle and distance grid")
    g = cosine_grid(angle_grid)
    half = angle_grid // 2  # g[half:] >= 0, and g[i] == -g[G - 1 - i]
    directions = []
    for ky in g[half:]:
        for kz in g[half:]:
            kx = np.sqrt(max(0.0, 1.0 - ky * ky - kz * kz))
            directions.append(np.array([kx, ky, kz]) / np.linalg.norm([kx, ky, kz]))
    points = (np.array(directions)[:, None] * rings[:, None]).reshape(-1, 3)
    offsets = build_upa(bs.m_h, bs.m_v, bs.d_h, bs.d_v, (0.0, 0.0, 0.0)).positions
    grid = np.arange(bs.size).reshape(bs.m_h, bs.m_v)
    orders = np.stack([grid, grid[::-1], grid[:, ::-1], grid[::-1, ::-1]]).reshape(4, -1)
    iy, iz, ir = np.indices((angle_grid, angle_grid, rings.size)).reshape(3, -1)
    jy, jz = (np.maximum(i, angle_grid - 1 - i) - half for i in (iy, iz))  # quarter grid
    return SphericalDictionary(
        _spherical_wave(offsets, points, wavelength), orders, (iy < half) + 2 * (iz < half),
        (jy * (angle_grid - half) + jz) * rings.size + ir, np.full(iy.size, np.sqrt(bs.size)))


def reciprocal_distance_rings(r_min: float, r_max: float, count: int) -> np.ndarray:
    """Distance rings uniform in 1/r over [r_min, r_max]."""
    if not (0 < r_min < r_max) or count < 1:
        raise ValueError("need 0 < r_min < r_max and count >= 1")
    if count == 1:
        return np.array([r_min])
    return 1.0 / np.linspace(1.0 / r_min, 1.0 / r_max, count)
