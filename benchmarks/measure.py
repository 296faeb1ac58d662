"""Run one child command and measure it from outside: wall, CPU and peak RSS.

``os.wait4`` returns the resource usage of exactly the child it reaps,
including every descendant that child waited for (a sweep's pool
workers).  Unlike ``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is a running
maximum over every child the caller has ever reaped, it cannot carry
one command's peak into the next measurement.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Measured:
    code: int
    wall_s: float
    cpu_s: float  # user + sys of the child and its reaped descendants
    maxrss_mb: float  # largest single process's peak resident set


def run_measured(cmd, env: dict, cwd, timeout: float, log_path) -> Measured:
    """Run ``cmd`` in its own session; kill the whole session on timeout."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)  # reap nothing, but stop any descendant left behind
    return Measured(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def host_record(root) -> dict:
    """Machine, interpreter and source revision of this run."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"
