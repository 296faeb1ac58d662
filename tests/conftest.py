"""Run the suite with BLAS and OpenMP at one thread, as ``nearmimo.cli`` does.

OpenBLAS reads its thread count once, when numpy first loads it, so the
defaults go into ``os.environ`` here, before any test module imports
numpy.  A thread variable set before the run keeps full control; then
nothing is added.
"""

import os
import sys

import pytest

from nearmimo.threads import single_thread_defaults

NUMPY_PRELOADED = "numpy" in sys.modules
ADDED = single_thread_defaults()
os.environ.update(ADDED)


@pytest.fixture
def suite_thread_defaults() -> dict:
    """The variables this file added, and whether numpy had loaded before."""
    return {"added": dict(ADDED), "numpy_preloaded": NUMPY_PRELOADED}
