"""Reception simulation, the three estimator stages and the baselines.

Only ``simulate_reception`` sees the scene.  The stages and baselines
work from its record (whose combiner tiles the array), the wavelength
and the user antennas' offsets from their center; ``harness`` composes them.
Stage 1 slices the single-block observation per subarray and recovers
each subarray channel over the angular dictionary by Kronecker-OMP, which
never forms a tile's sensing operator ``V_i D``; its estimate is one
M-vector ``h_sub``.  Stage 2 reads it tile by tile, turns each tile's
reconstruction into refined LoS direction cosines (MUSIC on the
Kronecker covariance factors) and triangulates the user center by
least squares.  Stage 3 builds a location-aided dictionary around the
estimate and recovers the full MIMO channel, by SBL by default.
``StageOptions`` holds stage 3's grid and SBL knobs; the rest are constants.

Baselines: antenna-wise SIMO estimation (B = N pilot blocks, DFT
precoder) over a full-array dictionary, or tile by tile through stage
1's tile-OMP loop, and a single-location eigen-dictionary LS fit.  All
baselines spend the same total pilot energy as the single-block schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, Scene, _spherical_wave
from .dictionaries import AngularDictionary, build_location
from .doa import extract_axis_factors, music_1d, subarray_covariance
from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    InvalidDirectionError,
    StageFailure,
)
from .geometry import SubarrayTiling, recover_kx
from .localization import LocationEstimate, Ray, ls_intersect
from .sensing import CombinerDesign, PrecoderDesign
from .solvers import MatrixOperator, SparseSolution, _is_integer, _is_real, omp, sbl_em

# noise-variance floor used when solving noiseless problems with SBL,
# relative to the per-sample observation energy
_NOISELESS_SBL_FLOOR = 1e-10


@dataclass(frozen=True)
class ReceptionRecord:
    """Received pilot blocks with everything needed to invert them."""

    observations: np.ndarray  # (T*M_RF, B)
    combiner: CombinerDesign
    precoder: PrecoderDesign
    power: float
    noise_var: float

    @property
    def num_blocks(self) -> int:
        return self.observations.shape[1]


# OMP stops at this residual share of ||y||: stage 1, stage-3 OMP and the antenna-wise baselines
OMP_TOL = 1e-3
# stage-1 atoms per tile: the spherical wavefront leaks LoS energy across
# plane-wave atoms, and stage 2's direction refinement needs that fidelity
STAGE1_MAX_ATOMS = 6
BASELINE_MAX_ATOMS = 3  # antenna-wise atoms per SIMO channel: L + 1 for L = 2 paths
STAGE3_OMP_ATOMS = 1  # the LoS-only location model is 1-sparse
SBL_GAMMA_FLOOR = 1e-4  # stage-3 SBL prunes prior variances below this share of the largest


@dataclass(frozen=True)
class StageOptions:
    """Stage 3's knobs: the location grid and the SBL stopping controls.

    The defaults are the desk profile's, a coarser grid and a shorter SBL
    run than the paper's (see ``harness.paper_profile``).
    """

    grid_half_widths: tuple[float, float, float] = (0.4, 0.4, 0.05)
    grid_counts: tuple[int, int, int] = (5, 5, 3)
    sbl_max_iters: int = 40
    sbl_tol: float = 1e-5

    def __post_init__(self):
        # types first: a string would escape the range checks as a TypeError
        shaped = np.shape(self.grid_half_widths) == (3,) and np.shape(self.grid_counts) == (3,)
        if shaped and not all(_is_integer(n) for n in (*self.grid_counts, self.sbl_max_iters)):
            raise ValueError(f"grid_counts and sbl_max_iters must be integers, got "
                             f"{self.grid_counts} and {self.sbl_max_iters!r}")
        if shaped and not all(_is_real(x) for x in (*self.grid_half_widths, self.sbl_tol)):
            raise ValueError(f"grid_half_widths and sbl_tol must be numbers, got "
                             f"{self.grid_half_widths} and {self.sbl_tol!r}")
        if not shaped or min(self.grid_counts) < 1 \
                or not all(0 <= w < np.inf for w in self.grid_half_widths):
            raise ValueError(f"need 3 grid_counts >= 1 and 3 finite grid_half_widths >= 0, got "
                             f"{self.grid_counts} and {self.grid_half_widths}")
        for axis, half_width, count in zip("xyz", self.grid_half_widths, self.grid_counts):
            if count > 1 and half_width == 0:  # every sample would be the center
                raise ValueError(f"grid axis {axis}: {count} samples need a grid_half_width > 0")
        if self.sbl_max_iters < 1 or not self.sbl_tol >= 0:
            raise ValueError(f"need sbl_max_iters >= 1 and sbl_tol >= 0, got "
                             f"{self.sbl_max_iters} and {self.sbl_tol}")


def simulate_reception(
    scene: Scene,
    channel: ChannelRealization,
    combiner: CombinerDesign,
    precoder: PrecoderDesign,
    seed: int,
    power: float | None = None,
) -> ReceptionRecord:
    """Simulate the sub-connected uplink reception of all pilot blocks.

    Block tau observes ``sqrt(p) V H w_tau`` plus the per-slot combined
    antenna noise; deterministic given the seed.
    """
    h = channel.h
    m, n = h.shape
    if combiner.num_antennas != m:
        raise ValueError(f"combiner covers {combiner.num_antennas} antennas, channel has {m}")
    if precoder.w.shape[0] != n:
        raise ValueError(f"precoder drives {precoder.w.shape[0]} antennas, channel has {n}")
    p = scene.power if power is None else power
    rng = np.random.default_rng(seed)
    t = combiner.t_slots
    b = precoder.num_blocks
    obs = np.sqrt(p) * combiner.apply(h @ precoder.w)
    sigma2 = scene.noise_var
    if sigma2 > 0:
        noise = rng.standard_normal((b, t, m, 2)) * np.sqrt(sigma2 / 2.0)
        obs += combiner.apply((noise[..., 0] + 1j * noise[..., 1]).transpose(1, 2, 0))
    return ReceptionRecord(
        observations=obs, combiner=combiner, precoder=precoder,
        power=p, noise_var=sigma2,
    )


def _effective_noise_var(record: ReceptionRecord) -> float:
    """Noise variance per combined sample; replaces zero with a floor."""
    sigma2 = record.noise_var * record.combiner.noise_scale
    if sigma2 > 0:
        return sigma2
    y = record.observations
    return _NOISELESS_SBL_FLOOR * float(np.mean(np.abs(y) ** 2))


def _tile_omp(combiner: CombinerDesign, dictionary: AngularDictionary, y: np.ndarray,
              scale: float, max_atoms: int) -> tuple[list[SparseSolution], np.ndarray]:
    """OMP over each tile's never formed ``scale * V_i D`` on its rows of every column of ``y``.

    ``y`` is (T*M_RF, K).  Returns the solutions, tile-major, and the M x K
    estimate that holds each tile's ``D x_hat`` at that tile's antennas.
    """
    solutions = []
    h_hat = np.zeros((combiner.num_antennas, y.shape[1]), dtype=complex)
    for i, op in enumerate(dictionary.tile_operators(combiner, scale)):
        antennas = combiner.tiling.tiles[i].antenna_indices
        for k, y_k in enumerate(y[combiner.tile_rows(i)].T):
            sol = omp(op, y_k, max_atoms=max_atoms, residual_tol=OMP_TOL)
            solutions.append(sol)
            # support-only product: against the dense D x it moved no support, finite-SNR
            # NMSE by <= 3.4e-7 dB and centers by <= 7e-13 m on paired desk and paper rows
            # (noiseless SBL rows move by up to 14 dB under any change of rounding)
            h_hat[antennas, k] = dictionary.columns(sol.support) @ sol.coefficients[sol.support]
    return solutions, h_hat


def stage1(
    record: ReceptionRecord, dictionary: AngularDictionary,
) -> tuple[list[SparseSolution], np.ndarray]:
    """Per-subarray OMP over the angular dictionary, on the single-block uniform-precoder record.

    Returns each tile's solution and ``h_sub`` (M,), which holds every
    tile's estimate ``D x_hat`` of its column sum ``H_i 1_N``.
    """
    if record.precoder.kind != "uniform" or record.num_blocks != 1:
        raise ValueError("stage 1 runs on the single-block uniform-precoder record")
    scale = np.sqrt(record.power / record.precoder.w.shape[0])
    solutions, h_sub = _tile_omp(record.combiner, dictionary, record.observations, scale,
                                 STAGE1_MAX_ATOMS)
    return solutions, h_sub[:, 0]


def stage2(
    h_sub: np.ndarray, tiling: SubarrayTiling, wavelength: float,
) -> tuple[LocationEstimate, list]:
    """Refine per-subarray LoS directions and triangulate the user center.

    ``h_sub`` (M,) is stage 1's estimate, read tile by tile.  Returns the
    estimate and each tile's direction cosines, ``None`` for a tile whose
    covariance degenerates or whose cosines leave the unit disk; at least
    two usable rays are required.
    """
    directions = []
    rays = []
    for tile in tiling.tiles:
        geom = tile.geometry
        try:
            cov = subarray_covariance(h_sub[tile.antenna_indices])
            c_h, c_v = extract_axis_factors(cov, geom.m_h, geom.m_v)
            k_y = music_1d(c_h, geom.m_h, geom.d_h, wavelength).peak
            k_z = music_1d(c_v, geom.m_v, geom.d_v, wavelength).peak
            k = recover_kx(k_y, k_z)
        except (DegenerateInputError, InvalidDirectionError):
            directions.append(None)
            continue
        directions.append(k)
        rays.append(Ray(origin=geom.center, direction=k))
    if len(rays) < 2:
        raise StageFailure("stage2", f"only {len(rays)} usable rays")
    try:
        estimate = ls_intersect(rays)
    except DegenerateGeometryError as exc:
        raise StageFailure("stage2", str(exc)) from exc
    return estimate, directions


def location_operator(record: ReceptionRecord, atoms: np.ndarray) -> np.ndarray:
    """``sqrt(p) V atoms``: the single-block observation of each received channel.

    ``atoms`` (M x K) holds channels already seen through the precoder,
    ``H w``, such as ``LocationDictionary.matrix``.
    """
    return np.sqrt(record.power) * record.combiner.apply(atoms)


def stage3(
    record: ReceptionRecord,
    p_hat,
    ue_offsets: np.ndarray,
    wavelength: float,
    options: StageOptions,
    solver: str = "sbl",
) -> tuple[SparseSolution, np.ndarray]:
    """Location-aided recovery of the full MIMO channel.

    Builds the received-channel atoms ``H(p_s) w``, user antennas at ``p_s
    + ue_offsets``, of the ``options`` grid around ``p_hat``, maps them
    through the combiner into the sensing matrix of the single-block record,
    and solves with ``solver`` (``"sbl"`` with the ``options`` stopping
    controls, or ``"omp"`` for the ablation).  The channel estimate
    ``unvec(A_L x_hat)`` is rebuilt from the vec(H) columns of the support alone.
    """
    if record.num_blocks != 1:
        raise ValueError("stage 3 consumes the single-block record")
    bs = record.combiner.tiling.parent
    loc_dict = build_location(p_hat, options.grid_half_widths, options.grid_counts, bs,
                              ue_offsets, wavelength, record.precoder.w[:, 0])
    a_bar = location_operator(record, loc_dict.matrix)
    op = MatrixOperator(a_bar, np.linalg.norm(a_bar, axis=0))
    y = record.observations[:, 0]
    if solver == "sbl":
        sol, _state = sbl_em(
            op, y, sigma2=_effective_noise_var(record),
            max_iters=options.sbl_max_iters, tol=options.sbl_tol,
            gamma_floor=SBL_GAMMA_FLOOR,
        )
    elif solver == "omp":
        sol = omp(op, y, max_atoms=STAGE3_OMP_ATOMS, residual_tol=OMP_TOL)
    else:
        raise ValueError(f"unknown stage-3 solver {solver!r}")
    h_hat = loc_dict.channels(sol.support) @ sol.coefficients[sol.support]
    return sol, h_hat.reshape(bs.size, len(ue_offsets), order="F")


def _dft_per_antenna(record: ReceptionRecord) -> np.ndarray:
    """``Y W^H``, whose column n observes user antenna n alone: ``sqrt(p) V h_n`` plus noise.

    Expects the B = N block record of the DFT precoder at per-block power
    ``p/N``, so the total pilot energy matches the single-block schemes.
    """
    precoder = record.precoder
    if precoder.kind != "dft" or precoder.num_blocks != precoder.w.shape[0]:
        raise ValueError("antenna-wise baseline needs the N-block DFT precoder")
    return record.observations @ precoder.w.conj().T


def baseline_antenna_wise(
    record: ReceptionRecord, operator: AngularDictionary | MatrixOperator,
) -> np.ndarray:
    """Antenna-wise SIMO estimation over a full-array dictionary, itself an operator.

    Right-multiplying the DFT-precoded record by W^H separates the user
    antennas; each SIMO channel is recovered independently with OMP and
    the estimate is assembled column by column from the atoms on its
    support.  Needs ``V^H V = I`` (else ``ValueError``) and runs OMP on the
    operator against ``V^H y / sqrt(p)``, as if on the never formed
    ``sqrt(p) V D``; the angular dictionary scores it as
    ``A_h^H unvec(V^H y) conj(A_v)``.
    """
    per_antenna = _dft_per_antenna(record)
    combiner = record.combiner
    combiner.verify_blocks()  # InfeasibleDesignError is a ValueError
    z = combiner.adjoint(per_antenna)
    scale = np.sqrt(record.power)
    # ||y - sVDx||² = ||z - sDx||² + ||y - Vz||²: the stop rule's residual
    # keeps the energy outside V's range, which a tall V (T > M_s) leaves
    y_norm, z_norm = np.linalg.norm(per_antenna, axis=0), np.linalg.norm(z, axis=0)
    outside = np.linalg.norm(per_antenna - combiner.apply(z), axis=0)
    tols = np.sqrt(np.maximum((OMP_TOL * y_norm) ** 2 - outside ** 2, 0)) / z_norm
    h_hat = np.zeros((combiner.num_antennas, per_antenna.shape[1]), dtype=complex)
    for col in range(h_hat.shape[1]):
        sol = omp(operator, z[:, col] / scale, max_atoms=BASELINE_MAX_ATOMS,
                  residual_tol=tols[col])
        h_hat[:, col] = operator.columns(sol.support) @ sol.coefficients[sol.support]
    return h_hat


def baseline_subarray_antenna_wise(record: ReceptionRecord,
                                   dictionary: AngularDictionary) -> np.ndarray:
    """Per-subarray SIMO estimation, any combiner: stage 1's tile OMP on ``Y W^H`` at sqrt(p)."""
    return _tile_omp(record.combiner, dictionary, _dft_per_antenna(record),
                     np.sqrt(record.power), BASELINE_MAX_ATOMS)[1]


def baseline_eigen_dictionary(
    record: ReceptionRecord, p_hat, ue_offsets: np.ndarray, wavelength: float,
) -> np.ndarray:
    """LS fit over the eigenbasis of the LoS channel at one location.

    Builds ``H_los(p_hat)``, user antennas at ``p_hat + ue_offsets``, with
    all its singular triplets ``u_k s_k v_k^H`` and fits the single-block
    observation over their received images ``u_k (v_k^H w)``; the estimate
    is ``sum_k c_k u_k v_k^H``, so no vec(H) basis is formed.
    """
    antennas = np.asarray(p_hat, dtype=float).reshape(3) + ue_offsets
    h0 = _spherical_wave(record.combiner.tiling.parent.positions, antennas, wavelength,
                         divide=True)
    u, _s, vh = np.linalg.svd(h0, full_matrices=False)
    g = location_operator(record, u * (vh @ record.precoder.w[:, 0]))
    coef, *_ = np.linalg.lstsq(g, record.observations[:, 0], rcond=None)
    return (u * coef) @ vh
