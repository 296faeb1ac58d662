"""Walk through the sub-connected combiner design and its guarantees.

Builds the DFT-based analog combiner for a 16x48 array split into 2x4
tiles (6 slots, 6 antennas per RF chain), prints the orthogonality
residuals and the exact effective-noise covariance, and contrasts the
column Gram against a random-phase combiner.
"""

import numpy as np

from nearmimo import build_upa, design_combiner, partition, random_combiner

WAVELENGTH = 299792458.0 / 6.8e9

bs = build_upa(16, 48, WAVELENGTH / 2, WAVELENGTH / 2, (0, 0, 0))
tiling = partition(bs, 2, 4)
design = design_combiner(t_slots=6, tiling=tiling, m_rf_per_tile=16)

print(f"array {bs.m_h}x{bs.m_v} = {bs.size} antennas, "
      f"{design.m_rf_total} RF chains, M_s = {design.m_s}, T = {design.t_slots}")

v = design.apply(np.eye(design.num_antennas))  # the dense combiner V
print("|V^H V - I|_F          =", np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
slc = design.apply_tile(0, np.eye(tiling.tiles[0].geometry.size))
print("|V_i^H V_i - I|_F      =", np.linalg.norm(slc.conj().T @ slc - np.eye(slc.shape[1])))
v_t = v[:design.m_rf_total]
print("|V_t V_t^H - I|_F      =", np.linalg.norm(v_t @ v_t.conj().T - np.eye(v_t.shape[0])))

# slots see independent noise, so the combined covariance is block diagonal
# with the exact blocks sigma^2 V_t V_t^H
sigma2 = 1.0
slots = v.reshape(design.t_slots, design.m_rf_total, -1)
err = max(np.abs(sigma2 * v_t @ v_t.conj().T - sigma2 * np.eye(design.m_rf_total)).max()
          for v_t in slots)
print(f"\nexact effective noise covariance sigma^2 V_t V_t^H over all {design.t_slots} slots:"
      f" max |entry - sigma^2 I| = {err:.1e}")

# random phases are white only in expectation; the designed combiner is
# orthogonal per realization, which is what preserves signal geometry
rand = random_combiner(6, tiling, 16, seed=0)
vr = rand.apply(np.eye(rand.num_antennas))
print("\nper-realization column Gram error |V^H V - I|_F:")
print(f"  designed {np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])):.2e}")
print(f"  random   {np.linalg.norm(vr.conj().T @ vr - np.eye(vr.shape[1])):.2e}")
