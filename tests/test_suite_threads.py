"""The test process itself runs BLAS at one thread (see ``conftest.py``)."""

import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_threads() -> int | None:
    """numpy's OpenBLAS thread count, read through ctypes; None if not found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def test_suite_runs_blas_at_one_thread(suite_thread_defaults):
    if not suite_thread_defaults["added"]:
        pytest.skip("a thread variable was set before the run; the suite keeps it")
    assert suite_thread_defaults["added"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert not suite_thread_defaults["numpy_preloaded"]
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    assert threads == 1
