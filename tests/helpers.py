"""Plane- and spherical-wave references, the dense combiner and its tile rows, a dense
sensing operator and one-problem references of OMP and MUSIC, for the tests only."""

import numpy as np

from nearmimo.channel import far_field_steering
from nearmimo.dictionaries import GROUP_TOLERANCE, cosine_grid
from nearmimo.errors import NumericalRankError
from nearmimo.geometry import build_ula
from nearmimo.solvers import MatrixOperator, SparseSolution


def dense_combiner(design) -> np.ndarray:
    """The dense (T*M_RF) x M combiner ``V`` of a ``CombinerDesign``."""
    return design.apply(np.eye(design.num_antennas))


def tile_rows(combiner, i: int) -> np.ndarray:
    """Row indices of tile ``i``'s RF chains within a ``CombinerDesign``'s combined output."""
    start = i * combiner.m_rf_per_tile
    per_slot = np.arange(start, start + combiner.m_rf_per_tile)
    return (np.arange(combiner.t_slots)[:, None] * combiner.m_rf_total + per_slot).ravel()


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


def wave_reference(displacements, points, wavelength: float) -> np.ndarray:
    """``exp(-j*2*pi*r/λ)/r`` from each of the (S, 3) ``points`` to each (..., 3) displacement,
    as one array expression: shape (..., S)."""
    diff = displacements[..., None, :] - points
    d0, d1, d2 = diff[..., 0], diff[..., 1], diff[..., 2]
    r = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    return np.exp(-2j * np.pi * r / wavelength) / r


def location_reference(center, half_widths, counts, bs, ue, wavelength: float) -> np.ndarray:
    """``build_location``'s vec(H) atoms in absolute coordinates: one ``build_ula`` and LoS
    channel ``|b_m - (p_s + u_n)|`` per grid point."""
    axes = []
    for c, w, k in zip(center, half_widths, counts):
        axes.append(np.array([c]) if k == 1 else np.linspace(c - w, c + w, k))
    axes[0] = np.maximum(axes[0], 0.1)
    cols = []
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                moved = build_ula(ue.m_h, ue.d_h, (x, y, z))
                cols.append(wave_reference(bs.positions, moved.positions, wavelength)
                            .ravel(order="F"))
    return np.column_stack(cols)


def grouped_reference(antennas, offsets, points, wavelength: float, w):
    """``build_location``'s vec(H) atoms and precoded atoms, pair by pair, from its grouping.

    Pair (m, n) takes the displacement ``antennas[m] - offsets[n]`` of the first pair, in the
    order ``m * N + n``, that rounds to the same multiple of ``GROUP_TOLERANCE`` wavelengths.
    Row m of the precoded atoms adds ``w[n]`` times its pairs' waves in the lexicographic
    (x, y, z) order of their rounded displacements.
    """
    pairs = antennas[:, None] - offsets
    keys = [[tuple(np.round(v / (GROUP_TOLERANCE * wavelength)).astype(int).tolist())
             for v in row] for row in pairs]
    first = {}
    for m, row in enumerate(keys):
        for n, key in enumerate(row):
            first.setdefault(key, pairs[m, n])
    waves = wave_reference(np.array([[first[key] for key in row] for row in keys]),
                           points, wavelength)
    atoms = np.zeros((len(antennas), len(points)), dtype=complex)
    for m, row in enumerate(keys):
        for n in sorted(range(len(offsets)), key=row.__getitem__):
            atoms[m] += waves[m, n] * w[n]
    return np.concatenate(waves.transpose(1, 0, 2)), atoms


def assert_near_absolute(channels, atoms, reference, w, rtol=1e-12):
    """vec(H) atoms within ``rtol`` of the absolute-coordinate ``reference`` in Frobenius norm,
    and precoded atoms within ``rtol`` of the norm of the magnitudes of the terms they sum.

    The two differ by the rounding of ``b_m - u_n - p_s`` against ``b_m - (p_s + u_n)``: a
    few ulps of a distance, which a single entry 15 m out reads as up to about 1e-12.
    """
    assert np.linalg.norm(channels - reference) <= rtol * np.linalg.norm(reference)
    blocks = reference.reshape(len(w), -1, reference.shape[1])
    exact = np.einsum("n,nms->ms", w, blocks)
    scale = np.einsum("n,nms->ms", np.abs(w), np.abs(blocks))
    assert np.linalg.norm(atoms - exact) <= rtol * np.linalg.norm(scale)


def omp_reference(matrix, y, max_atoms=None, residual_tol=None) -> SparseSolution:
    """OMP on one problem over a formed matrix, refit by ``lstsq`` after every pick.

    Scores ``|a_q^H r| / ||a_q||``, ties toward the lowest index, chosen
    atoms masked; stops after ``max_atoms`` picks (``min(P, Q)`` if
    omitted) or once ``||r|| / ||y|| <= residual_tol``.  Raises
    ``NumericalRankError`` when ``lstsq(rcond=None)`` finds the support
    rank deficient.
    """
    p, q = matrix.shape
    norms = np.linalg.norm(matrix, axis=0)
    y_norm = np.linalg.norm(y)
    x = np.zeros(q, dtype=complex)
    if y_norm == 0 or (residual_tol is not None and residual_tol >= 1.0):
        return SparseSolution(x, np.array([], dtype=int), (float(y_norm),), 0, True)
    support, residual, history, converged = [], y.copy(), [y_norm], False
    budget = max_atoms if max_atoms is not None else min(p, q)
    while not converged and len(support) < budget:
        scores = np.abs(residual.conj() @ matrix) / norms
        scores[support] = -1.0
        support.append(int(np.argmax(scores)))
        basis = matrix[:, support]
        coef, _res, rank, _sv = np.linalg.lstsq(basis, y, rcond=None)
        if rank < len(support):
            raise NumericalRankError(f"rank-deficient refit on support of size {len(support)}")
        residual = y - basis @ coef
        history.append(float(np.linalg.norm(residual)))
        converged = residual_tol is not None and history[-1] / y_norm <= residual_tol
    x[support] = coef
    return SparseSolution(x, np.array(support, dtype=int), tuple(history), len(support),
                          converged)


def music_reference(cov, m_e: int, d_e: float, wavelength: float, grid_points: int = 4096):
    """1D MUSIC on one covariance by projecting centered steering vectors on the
    ``m_e - 1`` noise eigenvectors; returns the grid, the pseudo-spectrum and the
    parabolic-refined peak."""
    _w, v = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    grid = np.linspace(-1.0, 1.0, grid_points)
    offsets = np.arange(m_e) - (m_e - 1) / 2.0
    steering = np.exp(2j * np.pi / wavelength * d_e * offsets[:, None] * grid[None, :])
    denom = np.sum(np.abs(v[:, :-1].conj().T @ steering) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, 1e-300)
    k = int(np.argmax(values))
    peak = grid[k]
    if 0 < k < grid_points - 1:
        logs = np.log(values[k - 1:k + 2])
        curvature = logs[0] - 2 * logs[1] + logs[2]
        if curvature < 0:
            shift = 0.5 * (logs[0] - logs[2]) / curvature
            if abs(shift) <= 1.0:
                peak = grid[k] + shift * (grid[1] - grid[0])
    return grid, values, float(np.clip(peak, -1.0, 1.0))
