"""Thread policy: BLAS and OpenMP default to one thread.

A sweep is many small solves (per-subarray OMP, 1-D MUSIC, a 3-D LS fit,
SBL on a few atoms), for which a multi-threaded BLAS only adds overhead.
OpenBLAS reads its thread count once, when numpy first loads it, so the
default must be in the environment before that: ``nearmimo.cli`` applies
it at the top of the module, and ``run_sweep`` applies it to the
environment its pool workers start with.  A user who sets any of
``THREAD_VARS`` keeps full control; then nothing is changed.  The
spherical-wave kernel (``channel._spherical_wave``) runs on the calling
thread.

Imports nothing but the standard library.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def single_thread_defaults() -> dict[str, str]:
    """The variables to add: OpenBLAS and OpenMP at 1, or none if the user set any."""
    if any(name in os.environ for name in THREAD_VARS):
        return {}
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@contextmanager
def single_thread_children():
    """Processes started inside the block get the defaults; ``os.environ`` is restored."""
    added = single_thread_defaults()
    os.environ.update(added)
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)
