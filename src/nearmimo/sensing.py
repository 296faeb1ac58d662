"""Analog combiner and precoder design for sub-connected arrays.

Each RF chain drives ``M_s`` antennas through phase shifters, so the
whole combiner is fixed by one T x M_s unit-modulus block per chain and
the subarray tiling.  ``CombinerDesign`` stores only those blocks and
applies them by structure: the stacked (T*M_RF) x M combiner ``V``,
whose row ``t*M_RF + i*M_rf_i + m`` is chain m of tile i in slot t, is
never stored.  The designed combiner draws the blocks from strided rows
of a DFT matrix, which makes ``V`` column-orthonormal (``V^H V = I_M``),
makes each per-tile slice column-orthonormal, and keeps the effective
received noise white.

With entry modulus ``1/sqrt(T)`` the per-slot rows satisfy
``V_t V_t^H = (M_s/T) I``; for the nominal ``T = M_s`` this is exactly
the identity, so the effective noise keeps covariance ``sigma^2 I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleDesignError
from .geometry import SubarrayTiling

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class CombinerDesign:
    """Sub-connected analog combiner over T time slots.

    ``chain_blocks[i, m]`` is the T x M_s block of RF chain m of tile i:
    in slot t that chain combines tile antennas ``m*M_s .. (m+1)*M_s - 1``
    (within-tile order) with weights ``chain_blocks[i, m, t]``.  Outputs
    are ordered ``t*M_RF + i*M_rf_i + m``; a tile's own outputs
    (``apply_tile``) are ordered ``t*M_rf_i + m``.  ``apply`` (``V x``),
    ``adjoint`` (``V^H z``) and their per-tile forms never form ``V``.
    """

    tiling: SubarrayTiling
    t_slots: int
    m_s: int
    m_rf_per_tile: int
    chain_blocks: np.ndarray  # (I, M_rf_i, T, M_s)
    entry_modulus: float

    @property
    def m_rf_total(self) -> int:
        return self.m_rf_per_tile * self.tiling.num_tiles

    @property
    def num_antennas(self) -> int:
        return self.tiling.parent.size

    @property
    def noise_scale(self) -> float:
        """Variance multiplier of the effective noise: ``M_s * modulus^2``."""
        return self.m_s * self.entry_modulus ** 2

    def apply_tile(self, i: int, x: np.ndarray) -> np.ndarray:
        """Combine tile ``i``'s antennas, within-tile order, in O(T*M_i*K).

        ``x`` is a common (M_i, K) input seen in every slot, or a
        per-slot (T, M_i, K) input; returns (T*M_rf_i, K).
        """
        t, m_rf, m_s = self.t_slots, self.m_rf_per_tile, self.m_s
        blocks = self.chain_blocks[i]
        if x.ndim == 2:
            out = (blocks @ x.reshape(m_rf, m_s, -1)).transpose(1, 0, 2)
        else:
            out = np.einsum("mts,tmsk->tmk", blocks, x.reshape(t, m_rf, m_s, -1))
        return out.reshape(t * m_rf, -1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``V x`` for a common (M, K) input, or per-slot ``V_t x_t`` for (T, M, K).

        Returns (T*M_RF, K); loops over tiles so only one tile's rows of
        ``x`` are gathered at a time.
        """
        k = x.shape[-1]
        out = np.empty((self.t_slots, self.tiling.num_tiles, self.m_rf_per_tile, k),
                       dtype=np.result_type(x, self.chain_blocks))
        for i, tile in enumerate(self.tiling.tiles):
            out[:, i] = self.apply_tile(i, x[..., tile.antenna_indices, :]).reshape(
                self.t_slots, self.m_rf_per_tile, k)
        return out.reshape(-1, k)

    def adjoint_tile(self, i: int, z: np.ndarray) -> np.ndarray:
        """``V_i^H z`` for tile ``i``'s (T*M_rf_i, K) outputs; returns (M_i, K), within-tile order.

        ``z`` may also come as (T, M_rf_i, K).
        """
        blocks_h = self.chain_blocks[i].conj().swapaxes(-1, -2)  # (M_rf_i, M_s, T)
        # chain m's antennas get F^H z_m
        per_chain = z.reshape(self.t_slots, self.m_rf_per_tile, -1).swapaxes(0, 1)
        return (blocks_h @ per_chain).reshape(-1, per_chain.shape[-1])

    def _chain_grams(self) -> np.ndarray:
        """(I, M_rf_i, M_s, M_s): every chain's ``F^H F``, a diagonal block of ``V^H V``."""
        return self.chain_blocks.conj().swapaxes(-1, -2) @ self.chain_blocks

    def tile_grams(self) -> np.ndarray:
        """(I, M_i, M_i) ``V_i^H V_i`` of every tile, within-tile order: block diagonal in
        its chain Grams."""
        grams = self._chain_grams()
        tiles, m_rf, m_s = grams.shape[:3]
        out = np.zeros((tiles, m_rf, m_s, m_rf, m_s), dtype=grams.dtype)
        chains = np.arange(m_rf)
        out[:, chains, :, chains, :] = grams.swapaxes(0, 1)
        return out.reshape(tiles, m_rf * m_s, m_rf * m_s)

    @cached_property
    def gram_error(self) -> float:
        """Frobenius norm of ``V^H V - T modulus^2 I``, computed once per combiner.

        Chains touch disjoint antennas, so ``V^H V`` is block diagonal with
        the chain Grams ``F^H F`` as its blocks, and this is their error
        over all chains.
        """
        gram = self._chain_grams()
        gram -= self.t_slots * self.entry_modulus ** 2 * np.eye(self.m_s)
        return float(np.linalg.norm(gram))

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """``V^H z`` for a (T*M_RF, K) input, in O(T*M*K); returns (M, K)."""
        k = z.shape[-1]
        per_tile = z.reshape(self.t_slots, self.tiling.num_tiles, self.m_rf_per_tile, k)
        out = np.empty((self.num_antennas, k), dtype=np.result_type(z, self.chain_blocks))
        for i, tile in enumerate(self.tiling.tiles):
            out[tile.antenna_indices] = self.adjoint_tile(i, per_tile[:, i])
        return out

    def verify_blocks(self, tol: float = _ORTHO_TOL) -> None:
        """The build-time check: unit-modulus entries and every chain's Gram.

        ``V^H V`` is block diagonal in the chain Grams (``gram_error``), and
        each ``V_t V_t^H`` is diagonal with the blocks' squared row norms,
        which unit modulus fixes at ``noise_scale``.  These two checks so
        imply the dense global, tile and slot Gram identities.  Raises
        ``InfeasibleDesignError`` if either fails.
        """
        modulus_err = float(np.max(np.abs(np.abs(self.chain_blocks) - self.entry_modulus)))
        if modulus_err > tol:
            raise InfeasibleDesignError(f"entry modulus error {modulus_err:.2e}")
        err = self.gram_error
        if err > tol:
            raise InfeasibleDesignError(f"chain block Gram error {err:.2e}")


@dataclass(frozen=True)
class PrecoderDesign:
    """User-side analog precoder, one unit-modulus column per pilot block."""

    w: np.ndarray
    kind: str

    @property
    def num_blocks(self) -> int:
        return self.w.shape[1]


def _chain_layout(tiling: SubarrayTiling, m_rf_per_tile: int) -> int:
    """Antennas per RF chain, M_s, for equally sized tiles."""
    m_i = tiling.tiles[0].geometry.size
    for tile in tiling.tiles:
        if tile.geometry.size != m_i:
            raise ValueError("tiles must be equally sized for a common chain layout")
    if m_i % m_rf_per_tile:
        raise ValueError(
            f"RF chains per tile ({m_rf_per_tile}) must divide tile size ({m_i})"
        )
    return m_i // m_rf_per_tile


def design_combiner(
    t_slots: int, tiling: SubarrayTiling, m_rf_per_tile: int
) -> CombinerDesign:
    """Build the DFT-based combiner, checked by ``CombinerDesign.verify_blocks``.

    Chain ``m`` of every tile takes rows ``m, M_rf+m, ..., (T-1)M_rf+m``
    of the first ``M_s`` columns of the (T*M_rf)-point DFT matrix scaled
    to entry modulus ``1/sqrt(T)``.  Requires ``T >= M_s``.
    """
    m_s = _chain_layout(tiling, m_rf_per_tile)
    if t_slots < m_s:
        raise InfeasibleDesignError(
            f"need T >= M_s for orthogonal sub-connected sensing, got T={t_slots}, M_s={m_s}"
        )
    order = t_slots * m_rf_per_tile
    p = np.arange(order)
    dft = np.exp(-2j * np.pi * np.outer(p, p[:m_s]) / order) / np.sqrt(t_slots)
    blocks = np.stack([
        dft[np.arange(t_slots) * m_rf_per_tile + m, :]
        for m in range(m_rf_per_tile)
    ])
    design = CombinerDesign(
        tiling=tiling, t_slots=t_slots, m_s=m_s, m_rf_per_tile=m_rf_per_tile,
        chain_blocks=np.stack([blocks] * tiling.num_tiles),
        entry_modulus=1.0 / np.sqrt(t_slots),
    )
    design.verify_blocks()
    return design


def random_combiner(
    t_slots: int, tiling: SubarrayTiling, m_rf_per_tile: int, seed: int
) -> CombinerDesign:
    """Baseline combiner with i.i.d. uniform phases of modulus 1/sqrt(M_s).

    No orthogonality is asserted; used to quantify what the structured
    design buys.
    """
    m_s = _chain_layout(tiling, m_rf_per_tile)
    rng = np.random.default_rng(seed)
    modulus = 1.0 / np.sqrt(m_s)
    chain_blocks = np.stack([
        modulus * np.exp(
            2j * np.pi * rng.random((m_rf_per_tile, t_slots, m_s))
        )
        for _ in range(tiling.num_tiles)
    ])
    return CombinerDesign(
        tiling=tiling, t_slots=t_slots, m_s=m_s, m_rf_per_tile=m_rf_per_tile,
        chain_blocks=chain_blocks, entry_modulus=modulus,
    )


def design_precoder_dft(n: int) -> PrecoderDesign:
    """N-column DFT precoder for antenna-wise estimation; W W^H = I_N."""
    if n < 1:
        raise ValueError(f"need at least one user antenna, got {n}")
    idx = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    return PrecoderDesign(w=w, kind="dft")


def uniform_precoder(n: int) -> PrecoderDesign:
    """Single-block all-ones precoder ``1_N / sqrt(N)``."""
    if n < 1:
        raise ValueError(f"need at least one user antenna, got {n}")
    return PrecoderDesign(w=np.full((n, 1), 1.0 / np.sqrt(n), dtype=complex), kind="uniform")
