"""Run the three-stage estimator once on the full-scale geometry.

LoS-only noiseless scene with the user at (8, 1, -1): stage 1 recovers
each subarray channel on the angular grid, stage 2 triangulates the
user to centimeter level, and stage 3 rebuilds the full MIMO channel
from the location-aided dictionary.  Only the simulation sees the scene;
the stages know the user array by its antenna offsets from its center.
"""

import numpy as np

from nearmimo import (
    Scene,
    build_angular,
    build_ula,
    build_upa,
    design_combiner,
    paper_profile,
    partition,
    simulate_reception,
    stage1,
    stage2,
    stage3,
    synthesize,
    uniform_precoder,
)

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2

bs = build_upa(16, 48, HALF, HALF, (0, 0, 0))
tiling = partition(bs, 2, 4)
combiner = design_combiner(t_slots=6, tiling=tiling, m_rf_per_tile=16)
tile = tiling.tiles[0].geometry
dictionary = build_angular(tile.m_h, tile.m_v, tile.d_h, tile.d_v, WAVELENGTH, 64)

user_center = np.array([8.0, 1.0, -1.0])
ue = build_ula(4, HALF, user_center)
scene = Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, noise_var=0.0)
realization = synthesize(scene, rng_seed=0)
ue_offsets = build_ula(4, HALF, (0, 0, 0)).positions

record = simulate_reception(scene, realization, combiner, uniform_precoder(4), seed=1)
solutions, h_sub = stage1(record, dictionary)
estimate, _directions = stage2(h_sub, tiling, WAVELENGTH)
# stage 3 on the paper's location grid and SBL run
solution, h_hat = stage3(record, estimate.point, ue_offsets, WAVELENGTH, paper_profile().stages)

print("stage 1: per-subarray supports", [sol.support.size for sol in solutions])
print("stage 2: estimated center", np.round(estimate.point, 4))
print("         true center     ", user_center)
print(f"         error           {np.linalg.norm(estimate.point - user_center):.4f} m")
err = np.linalg.norm(h_hat - realization.h) ** 2
nmse_db = 10 * np.log10(err / np.linalg.norm(realization.h) ** 2)
print(f"stage 3: channel NMSE    {nmse_db:.1f} dB "
      f"({solution.support.size} retained atoms)")
