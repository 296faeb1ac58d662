"""Binary matrix-file format shared by channel, sensing and dictionary dumps.

Layout (little-endian):
  4 bytes   magic ``b"CMX1"``
  uint64    number of rows M
  uint64    number of columns N
  float64   carrier wavelength in meters (0.0 when not applicable)
  then M*N complex entries in row-major order, each stored as a
  (real, imag) pair of float64.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_MAGIC = b"CMX1"
_HEADER = struct.Struct("<QQd")


def save_matrix(path, matrix: np.ndarray, wavelength: float = 0.0) -> None:
    """Write a complex matrix (or vector) to ``path``."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError("only 1D/2D arrays can be saved")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(m.shape[0], m.shape[1], float(wavelength)))
        fh.write(np.ascontiguousarray(m).astype("<c16").tobytes())


def load_matrix(path) -> tuple[np.ndarray, float]:
    """Read a matrix written by :func:`save_matrix`.

    Returns the matrix and the stored wavelength.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a matrix file (bad magic)")
    if len(raw) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated matrix file")
    rows, cols, wavelength = _HEADER.unpack_from(raw, 4)
    body = raw[4 + _HEADER.size:]
    expected = rows * cols * 16
    if len(body) != expected:
        raise ValueError(f"{path}: truncated matrix file")
    m = np.frombuffer(body, dtype="<c16").reshape(rows, cols).astype(np.complex128)
    return m, wavelength
