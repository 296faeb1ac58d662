"""Direction-cosine refinement from subarray channel estimates, for a stack of tiles.

Each tile's reconstructed channel ``h = vec(H)`` (H is m_h x m_v, one row
per horizontal position) stands for the rank-one covariance ``h h^H``,
whose Kronecker factors over the two array axes are its block averages:
the horizontal one ``H H^H / m_v`` and the vertical one ``H^T conj(H) /
m_h``, taken from H without forming the M_i x M_i covariance.  A 1D MUSIC
scan per axis then refines the LoS direction cosines beyond the
angular-grid quantization of the sparse recovery stage, for every tile's
covariance at once.  The MUSIC denominator ``a(theta)^H P a(theta)`` of
the noise projector P is the trigonometric polynomial that root-MUSIC
roots (Barabell, ICASSP 1983), ``c_0 + 2 Re sum_d c_d exp(j phi d theta)``
in the diagonal sums ``c_d`` of P, evaluated on the grid with one real
(B, 2 m_e) x (2 m_e, G) product instead of m_e - 1 projections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_SPECTRUM_EPS = 1e-300


@dataclass(frozen=True)
class MusicSpectrum:
    """Pseudo-spectra over a direction-cosine grid with their refined peaks.

    For a stack of covariances ``values`` is (..., G) and ``peak`` (...);
    for one covariance ``peak`` is a float.
    """

    grid: np.ndarray
    values: np.ndarray
    peak: float | np.ndarray


def _unit_diagonal(c: np.ndarray) -> np.ndarray:
    d = np.real(np.diagonal(c, axis1=-2, axis2=-1)).copy()
    d[d <= 0] = 1.0
    scale = 1.0 / np.sqrt(d)
    return c * (scale[..., :, None] * scale[..., None, :])


def extract_axis_factors(
    h: np.ndarray, m_ih: int, m_iv: int
) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical covariance factors of (..., M_i) tile estimates.

    ``h`` holds ``vec(H)`` of an m_ih x m_iv channel ``H`` in its last axis,
    horizontal-major.  The vertical factor ``H^T conj(H) / m_ih`` averages
    the M_ih diagonal M_iv x M_iv blocks of ``h h^H``; the horizontal one
    ``H H^H / m_iv`` averages the diagonal of each block (p, q).  Both are
    returned, horizontal first, rescaled to a unit diagonal.  Averaging
    rather than reading a single block suppresses leakage from
    non-Kronecker components; for an exact Kronecker input ``a_h ⊗ a_v``
    every block gives the same answer.
    """
    h = np.asarray(h)
    if h.shape[-1] != m_ih * m_iv:
        raise ValueError(f"tile estimate length {h.shape[-1]} != {m_ih} * {m_iv}")
    mat = h.reshape(*h.shape[:-1], m_ih, m_iv)
    c_h = mat @ np.swapaxes(mat.conj(), -1, -2) / m_iv
    c_v = np.swapaxes(mat, -1, -2) @ mat.conj() / m_ih
    return _unit_diagonal(c_h), _unit_diagonal(c_v)


@functools.lru_cache(maxsize=8)
def _steering(
    m_e: int, d_e: float, wavelength: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cosine grid over [-1, 1] and the real (2 m_e, grid_points) table of the
    ULA steering ``exp(j phi d theta)``, d = 0..m_e-1: rows ``2 cos`` then ``-2 sin``,
    with row 0 set to 1, so ``[Re c, Im c] @ table`` is ``c_0 + 2 Re sum_{d>=1} c_d
    exp(j phi d theta)`` for a real ``c_0``.

    Built once per argument tuple and shared by every later scan of an
    axis with the same geometry; both arrays are read-only.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    # allocated before the temporaries of the phase, so the kept array is
    # not left above freed heap that the allocator then cannot return
    table = np.empty((2 * m_e, grid_points))
    phase = 2 * np.pi / wavelength * d_e * np.arange(m_e)[:, None] * grid[None, :]
    np.multiply(np.cos(phase), 2.0, out=table[:m_e])
    np.multiply(np.sin(phase), -2.0, out=table[m_e:])
    table[0] = 1.0
    grid.flags.writeable = False
    table.flags.writeable = False
    return grid, table


@functools.lru_cache(maxsize=8)
def _diagonals(m_e: int) -> np.ndarray:
    """(m_e^2, m_e) 0/1 matrix whose column d sums the d-th superdiagonal of a
    flattened m_e x m_e matrix."""
    rows, cols = np.indices((m_e, m_e))
    return ((cols - rows)[..., None] == np.arange(m_e)).reshape(m_e * m_e, m_e).astype(float)


def music_1d(
    cov: np.ndarray,
    m_e: int,
    d_e: float,
    wavelength: float,
    grid_points: int = 4096,
) -> MusicSpectrum:
    """1D MUSIC for one source over direction cosines in [-1, 1], for each covariance.

    ``cov`` is one (m_e, m_e) axis covariance or a (..., m_e, m_e) stack
    (``m_e >= 2`` antennas).  One batched eigendecomposition gives each
    noise projector ``P = U U^H`` over the ``m_e - 1`` smallest
    eigenvectors; its diagonal sums ``c_d = sum_m P[m, m + d]`` give the
    denominator ``a^H P a = c_0 + 2 Re sum_{d>=1} c_d exp(j phi d theta)``
    on the grid.  The grid peak is refined with a parabolic fit of the log
    pseudo-spectrum.  The grid and the steering table are built once per
    ``(m_e, d_e, wavelength, grid_points)`` and shared read-only, so the
    returned ``grid`` must not be written to.
    """
    c = np.asarray(cov)
    if c.shape[-2:] != (m_e, m_e):
        raise ValueError(f"covariance shape {c.shape} != ({m_e}, {m_e})")
    if m_e < 2:
        raise ValueError(f"MUSIC needs at least 2 antennas on an axis, got {m_e}")
    stack = c.reshape(-1, m_e, m_e)
    _eigvals, eigvecs = np.linalg.eigh(0.5 * (stack + stack.conj().swapaxes(-1, -2)))
    noise_basis = eigvecs[..., :-1]  # ascending eigenvalues: all but the source's
    projector = noise_basis @ noise_basis.conj().swapaxes(-1, -2)
    sums = projector.reshape(-1, m_e * m_e) @ _diagonals(m_e)  # c_d, d = 0..m_e-1
    grid, table = _steering(m_e, d_e, wavelength, grid_points)
    denom = np.concatenate([sums.real, sums.imag], axis=1) @ table
    values = 1.0 / np.maximum(denom, _SPECTRUM_EPS)

    rows = np.arange(len(values))
    k = np.argmax(values, axis=1)
    inner = np.clip(k, 1, grid_points - 2)
    logs = np.log(values[rows[:, None], inner[:, None] + np.arange(-1, 2)])
    curvature = logs[:, 0] - 2 * logs[:, 1] + logs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * (logs[:, 0] - logs[:, 2]) / curvature
    refine = (k == inner) & (curvature < 0) & (np.abs(shift) <= 1.0)
    peak = grid[k] + np.where(refine, shift, 0.0) * (grid[1] - grid[0])
    peak = np.clip(peak, -1.0, 1.0).reshape(c.shape[:-2])
    return MusicSpectrum(grid=grid, values=values.reshape(*c.shape[:-2], grid_points),
                         peak=float(peak) if c.ndim == 2 else peak)
