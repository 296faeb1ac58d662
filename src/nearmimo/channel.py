"""Ground-truth channel synthesis: spherical-wave LoS plus scattered paths.

The LoS MIMO channel between two arrays has entries
``(1/r_mn) * exp(-j*2*pi*r_mn/lambda)`` over the exact antenna-pair
distances, so it is full column rank in the near field.  Scattered paths
are rank-one: a near-field steering vector at the scatterer times a
far-field steering vector at the (small) user array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import threads
from .errors import SingularGeometryError
from .geometry import ArrayGeometry

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class PathParams:
    """One scattered path: gain, scatterer position, user-side AoD.

    ``gain=None`` asks :func:`synthesize` to draw a complex Gaussian gain
    scaled by the scene's LoS-to-NLoS power ratio.
    """

    position: np.ndarray
    aod: float
    gain: complex | None = None


@dataclass(frozen=True)
class Scene:
    """Everything needed to synthesize one uplink channel realization."""

    bs: ArrayGeometry
    ue: ArrayGeometry
    wavelength: float
    paths: tuple[PathParams, ...] = ()
    power: float = 1.0
    noise_var: float = 0.0
    los_nlos_ratio_db: float = 20.0

    def with_noise_var(self, noise_var: float) -> "Scene":
        return replace(self, noise_var=noise_var)


@dataclass(frozen=True)
class ChannelRealization:
    """A synthesized channel with its LoS and scattered parts."""

    h: np.ndarray
    h_los: np.ndarray
    h_nlos: np.ndarray


def _spherical_wave(antennas, points, wavelength, divide=False, weights=None):
    """Return the complex (M, S) array of ``exp(-j*2*pi*r/λ)``.

    Over ``r`` if ``divide``.  Entry (m, s), from ``points[s]`` at ``antennas[m]``, is
    bit-identical to a one-point call; row blocks of 2,048-16,384 entries and one
    block-sized buffer for ``r`` bound the temporaries.  With ``weights`` (N,) and (N, S, 3)
    ``points``, entry (m, s) sums ``weights[n]`` times the wave from ``points[n, s]`` in order
    of n; a complex scratch holds each later wave.  The blocks go in contiguous groups to
    ``threads.kernel_threads`` threads, each with its own buffers and rows of the output, so
    the thread count changes no bit.
    """
    sets = [points] if weights is None else points
    out = np.empty((len(antennas), len(sets[0])), dtype=complex)
    m, s = out.shape
    rows = max(1, min(16384, max(m * s // 16, 2048)) // max(s, 1) // min(len(sets), 2))

    def fill(lo, hi):
        r_buf = np.empty((min(rows, hi - lo), s))
        scratch = np.empty_like(r_buf, dtype=complex) if len(sets) > 1 else None
        for start in range(lo, hi, rows):
            near = antennas[start:start + rows]
            block = out[start:start + rows]
            r = r_buf[:len(block)]
            for n, pts in enumerate(sets):
                w = block if n == 0 else scratch[:len(block)]
                d = w.real  # a square lands there before the wave overwrites it
                # r summed as (dx^2 + dy^2) + dz^2, the same order for every block
                np.subtract(near[:, 0, None], pts[:, 0], out=r)
                np.multiply(r, r, out=r)
                for k in (1, 2):
                    np.subtract(near[:, k, None], pts[:, k], out=d)
                    np.multiply(d, d, out=d)
                    r += d
                np.sqrt(r, out=r)
                if np.any(r <= 0):
                    raise SingularGeometryError("a point coincides with an antenna")
                np.multiply(-2j * np.pi, r, out=w)
                w /= wavelength
                np.exp(w, out=w)
                if divide:
                    w /= r
                if weights is not None:
                    w *= weights[n]
                    if n:
                        block += w

    blocks = -(-m // rows)
    groups = threads.kernel_threads(blocks)
    edges = [min(m, rows * (blocks * g // groups)) for g in range(groups + 1)]
    threads.run_spans(fill, list(zip(edges[:-1], edges[1:])))
    return out


def los_channel(bs: ArrayGeometry, ue: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Spherical-wave LoS channel, entry (m, n) = exp(-j*2*pi*r/λ)/r."""
    return _spherical_wave(bs.positions, ue.positions, wavelength, divide=True)


def near_field_steering(geom: ArrayGeometry, source, wavelength: float) -> np.ndarray:
    """Unit-modulus spherical steering vector toward a point source."""
    source = np.asarray(source, dtype=float).reshape(1, 3)
    return _spherical_wave(geom.positions, source, wavelength)[:, 0]


def far_field_steering(m_e: int, d_e: float, cosine: float, wavelength: float) -> np.ndarray:
    """Plane-wave steering vector of one array axis.

    Entry m (1-based) is ``exp(j*(2π/λ)*ϖ*(-(M_e-1)/2 + m - 1)*Δ_e)`` for
    direction cosine ``ϖ``.
    """
    offsets = np.arange(m_e) - (m_e - 1) / 2.0
    return np.exp(2j * np.pi / wavelength * cosine * offsets * d_e)


def synthesize(scene: Scene, rng_seed: int) -> ChannelRealization:
    """Draw one channel realization.

    The LoS part is deterministic from the geometry.  Each scattered path
    adds ``α * h(p_scat) * a_ue(sin ψ)^H``; gains left unset in the scene
    are drawn as CN(0, ρ) with ρ chosen so the total expected NLoS power
    sits ``los_nlos_ratio_db`` below the LoS power.
    """
    rng = np.random.default_rng(rng_seed)
    h_los = los_channel(scene.bs, scene.ue, scene.wavelength)
    m, n = h_los.shape
    h_nlos = np.zeros_like(h_los)
    num_paths = len(scene.paths)
    if num_paths:
        los_power = np.linalg.norm(h_los, "fro") ** 2
        rho = los_power * 10.0 ** (-scene.los_nlos_ratio_db / 10.0) / (num_paths * m * n)
        for path in scene.paths:
            gain = path.gain
            if gain is None:
                g = rng.standard_normal(2)
                gain = np.sqrt(rho / 2.0) * complex(g[0], g[1])
            bs_vec = near_field_steering(scene.bs, path.position, scene.wavelength)
            ue_vec = far_field_steering(
                scene.ue.m_h, scene.ue.d_h, np.sin(path.aod), scene.wavelength
            )
            h_nlos = h_nlos + gain * np.outer(bs_vec, ue_vec.conj())
    return ChannelRealization(h=h_los + h_nlos, h_los=h_los, h_nlos=h_nlos)
