"""Direction-cosine refinement from subarray channel estimates.

The reconstructed subarray channel is turned into a rank-one covariance
whose Kronecker factorization over the two array axes is read off the
block structure: each M_iv x M_iv diagonal block of ``C`` repeats the
vertical factor and the block-diagonal traces carry the horizontal one.
A 1D MUSIC scan per axis then refines the LoS direction cosines beyond
the angular-grid quantization of the sparse recovery stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

_SPECTRUM_EPS = 1e-300


@dataclass(frozen=True)
class MusicSpectrum:
    """Pseudo-spectrum over a direction-cosine grid with its refined peak."""

    grid: np.ndarray
    values: np.ndarray
    peak: float


def subarray_covariance(h_hat: np.ndarray) -> np.ndarray:
    """Rank-one covariance ``h h^H`` of a reconstructed subarray channel."""
    h = np.asarray(h_hat).reshape(-1)
    if np.linalg.norm(h) == 0:
        raise DegenerateInputError("zero channel estimate has no covariance structure")
    return np.outer(h, h.conj())


def _unit_diagonal(c: np.ndarray) -> np.ndarray:
    d = np.real(np.diag(c)).copy()
    d[d <= 0] = 1.0
    scale = 1.0 / np.sqrt(d)
    return c * np.outer(scale, scale)


def extract_axis_factors(
    c: np.ndarray, m_ih: int, m_iv: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a subarray covariance into horizontal and vertical factors.

    The vertical factor is the average of the M_ih diagonal
    M_iv x M_iv blocks; the horizontal factor averages, for each block
    pair (p, q), the diagonal of block (p, q).  Both are returned,
    horizontal first, rescaled to a unit diagonal.  Averaging rather than
    reading a single block suppresses leakage from non-Kronecker
    components; for an exact rank-one Kronecker input every block gives
    the same answer.
    """
    c = np.asarray(c)
    if c.shape != (m_ih * m_iv, m_ih * m_iv):
        raise ValueError(f"covariance shape {c.shape} != ({m_ih * m_iv},)^2")
    blocks = c.reshape(m_ih, m_iv, m_ih, m_iv)
    c_v = np.mean([blocks[p, :, p, :] for p in range(m_ih)], axis=0)
    # diagonal of each (p, q) block: einsum over the within-block index
    c_h = np.einsum("pmqm->pq", blocks) / m_iv
    return _unit_diagonal(c_h), _unit_diagonal(c_v)


@functools.lru_cache(maxsize=8)
def _steering(
    m_e: int, d_e: float, wavelength: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cosine grid over [-1, 1] and the (m_e, grid_points) ULA steering matrix.

    Built once per argument tuple and shared by every later scan of an
    axis with the same geometry; both arrays are read-only.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    offsets = np.arange(m_e) - (m_e - 1) / 2.0
    # allocated before the temporaries of the phase, so the kept array is
    # not left above freed heap that the allocator then cannot return
    steering = np.empty((m_e, grid_points), dtype=complex)
    np.exp(2j * np.pi / wavelength * d_e * offsets[:, None] * grid[None, :], out=steering)
    grid.flags.writeable = False
    steering.flags.writeable = False
    return grid, steering


def music_1d(
    cov: np.ndarray,
    m_e: int,
    d_e: float,
    wavelength: float,
    grid_points: int = 4096,
) -> MusicSpectrum:
    """1D MUSIC for one source over direction cosines in [-1, 1].

    Eigendecomposes the axis covariance (of ``m_e >= 2`` antennas),
    projects steering vectors on the ``m_e - 1`` dimensional noise
    subspace, and refines the grid peak with a parabolic fit
    of the log pseudo-spectrum.  The grid and steering matrix are built
    once per ``(m_e, d_e, wavelength, grid_points)`` and shared read-only,
    so the returned ``grid`` must not be written to.
    """
    c = np.asarray(cov)
    if c.shape != (m_e, m_e):
        raise ValueError(f"covariance shape {c.shape} != ({m_e}, {m_e})")
    if m_e < 2:
        raise ValueError(f"MUSIC needs at least 2 antennas on an axis, got {m_e}")
    _eigvals, eigvecs = np.linalg.eigh(0.5 * (c + c.conj().T))
    noise_basis = eigvecs[:, :-1]  # ascending eigenvalues: all but the source's

    grid, steering = _steering(m_e, d_e, wavelength, grid_points)
    denom = np.sum(np.abs(noise_basis.conj().T @ steering) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, _SPECTRUM_EPS)

    k = int(np.argmax(values))
    peak = grid[k]
    if 0 < k < grid_points - 1:
        logs = np.log(values[k - 1:k + 2])
        curvature = logs[0] - 2 * logs[1] + logs[2]
        if curvature < 0:
            shift = 0.5 * (logs[0] - logs[2]) / curvature
            if abs(shift) <= 1.0:
                peak = grid[k] + shift * (grid[1] - grid[0])
    return MusicSpectrum(grid=grid, values=values, peak=float(np.clip(peak, -1.0, 1.0)))
