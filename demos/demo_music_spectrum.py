"""Dump a 1D MUSIC pseudo-spectrum to a two-column text file.

Builds a noiseless rank-one axis covariance for a direction cosine of
0.37, runs the scan, and writes (cosine, pseudo-spectrum) rows that
plot directly with any tool.
"""

import numpy as np

from nearmimo import far_field_steering
from nearmimo.doa import music_1d

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2

target = 0.37
a = far_field_steering(12, HALF, target, WAVELENGTH)
cov = np.outer(a, a.conj())
spectrum = music_1d(cov, 12, HALF, WAVELENGTH, grid_points=4096)

out = "music_spectrum.txt"
np.savetxt(out, np.column_stack([spectrum.grid, spectrum.values]),
           header="direction_cosine pseudo_spectrum")
print(f"true cosine {target}, refined peak {spectrum.peak:.6f}")
print(f"wrote {out} ({spectrum.grid.size} rows)")
