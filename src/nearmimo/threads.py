"""Thread policy: BLAS and OpenMP default to one thread; the wave kernel splits by cores.

A sweep is many small solves (per-subarray OMP, 1-D MUSIC, a 3-D LS fit,
SBL on a few atoms), for which a multi-threaded BLAS only adds overhead.
OpenBLAS reads its thread count once, when numpy first loads it, so the
default must be in the environment before that: ``nearmimo.cli`` applies
it at the top of the module, and ``run_sweep`` applies it to the
environment its pool workers start with.  A user who sets any of
``THREAD_VARS`` keeps full control; then nothing is changed.

``THREAD_VARS`` govern BLAS and OpenMP only.  The spherical-wave kernel
(``channel._spherical_wave``) runs its row blocks on up to
:func:`kernel_budget` threads: the CPUs this process may run on, shared
among the processes of a sweep pool.  No variable or option sets it;
``taskset -c 0`` gives one thread.  A call with fewer than
``BLOCKS_PER_THREAD`` row blocks a thread stays on the calling thread.

Imports nothing but the standard library.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# The row blocks bound the kernel's temporaries: a block is 1/16 of the
# output, or 2,048 entries if that is more.  Each thread holds one block at
# a time, so with at least 16 blocks a thread the blocks held at once stay
# within 1/16 of the output, and each thread gets at least 16 x 2,048
# entries (about 1 ms), far above the cost of handing a span to the pool.
BLOCKS_PER_THREAD = 16

_sharing = 1  # processes that share this one's cores: a sweep pool's workers
_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


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


def thread_budget(cores: int, workers: int = 1) -> int:
    """Kernel threads for each of ``workers`` processes that share ``cores`` CPUs."""
    return max(1, cores // workers)


def share_cores(workers: int) -> None:
    """Declare this process one of ``workers`` that share its CPUs (a sweep pool worker)."""
    global _sharing
    _sharing = workers


def kernel_budget() -> int:
    """The CPUs this process may run on, divided among the processes that share them."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cores = os.cpu_count() or 1
    return thread_budget(cores, _sharing)


def kernel_threads(blocks: int) -> int:
    """Threads for a kernel call of ``blocks`` row blocks: ``BLOCKS_PER_THREAD`` each at least."""
    most = blocks // BLOCKS_PER_THREAD
    return 1 if most < 2 else min(most, kernel_budget())


def run_spans(fill, spans) -> None:
    """Call ``fill(lo, hi)`` on each span: the first on this thread, the rest on the pool.

    Returns when every span is done; an error is raised then, the first
    span's before the others', in span order.
    """
    if len(spans) == 1:
        fill(*spans[0])
        return
    from concurrent.futures import wait

    futures = [_kernel_pool().submit(fill, *span) for span in spans[1:]]
    try:
        fill(*spans[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _kernel_pool():
    """The process's persistent thread pool, built on first use and again after a fork.

    A pool inherited through ``fork`` has no live threads, so work handed
    to it would never run.
    """
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="nearmimo-kernel")
            _pool_pid = os.getpid()
        return _pool
