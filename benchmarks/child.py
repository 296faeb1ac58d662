"""Child-process entry points of the benchmark.

``child.py sweep INFO -- ARGS...``
    Runs ``nearmimo.cli`` exactly as ``python -m nearmimo.cli ARGS`` does,
    then writes INFO (JSON): library, version and thread count of the
    OpenBLAS copies numpy and scipy each use, numpy/scipy versions and the
    names of the ``NearMimoError`` classes.  BLAS is queried only after
    the sweep, so the query cannot pre-empt a thread policy of the
    program's own.

``child.py trace PLAN OUT``
    The traced run: runs the sweep command of PLAN (JSON) in this process,
    once to warm up and then alternately with and without every public
    ``nearmimo`` function wrapped, and writes the per-layer metrics, the
    spans and the walls of both kinds of sweep.

Both expect ``src`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import runpy
import sys
import time

import tracer as tr


def environment_info() -> dict:
    import numpy
    import scipy
    from nearmimo import errors

    return {
        "blas": _openblas_info(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "error_classes": sorted(_subclass_names(errors.NearMimoError)),
    }


def _subclass_names(cls) -> set[str]:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


# the OpenBLAS copies numpy and scipy each ship: package -> symbol suffix
_OPENBLAS = {"numpy": "64_", "scipy": ""}


def _openblas_info() -> dict:
    """Library, version and thread count of each OpenBLAS numpy and scipy load.

    numpy's copy runs the matrix products; scipy's runs ``scipy.linalg``
    (the Cholesky solves of SBL).  A package whose libraries hold no
    OpenBLAS (another BLAS) is left out.
    """
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's copy, as the program does)

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    info = {}
    for package, suffix in _OPENBLAS.items():
        for path in sorted(glob.glob(os.path.join(site, f"{package}.libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            threads = _symbol(lib, ("scipy_openblas_get_num_threads", "openblas_get_num_threads"),
                              suffix, ctypes.c_int)
            config = _symbol(lib, ("scipy_openblas_get_config", "openblas_get_config"),
                             suffix, ctypes.c_char_p)
            info[package] = {
                "library": os.path.basename(path),
                "version": config.decode() if config else None,
                "threads": threads,
            }
    return info


def _symbol(lib, names, suffix, restype):
    for name in names:
        fn = getattr(lib, name + suffix, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def _sweep(info_path: str, cli_args: list[str]) -> int:
    sys.argv = ["nearmimo"] + cli_args
    try:
        runpy.run_module("nearmimo.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    with open(info_path, "w") as fh:
        json.dump(environment_info(), fh)
    return code


def _trace(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    from nearmimo import cli

    for name in tr.LAYERS:
        importlib.import_module(f"nearmimo.{name}")
    # every loaded nearmimo module, so each binding of a wrapped function is rebound
    modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
               if name == "nearmimo" or name.startswith("nearmimo.")}

    def sweep(out_dir):
        tic = time.perf_counter()
        code = cli.main(["sweep", "--config", plan["config"], "--out", out_dir])
        if code != 0:
            raise SystemExit(f"traced sweep exited {code}")
        return time.perf_counter() - tic

    sweep(plan["untraced_out"])  # warm-up: first-call costs stay out of both sides
    tracer = tr.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    # alternate traced and untraced sweeps, so drifts in machine load hit both
    while not traced or (time.perf_counter() - start + traced[-1] + untraced[-1]
                         <= plan["seconds"]):
        installed = tracer.install(modules)
        try:
            traced.append(sweep(plan["traced_out"]))
        finally:
            tracer.uninstall()
        untraced.append(sweep(plan["untraced_out"]))
    metrics = tr.layer_metrics(tracer.spans)
    result = {
        "installed": installed,
        "calls": tracer.calls(),
        "untraced_s": untraced,
        "traced_s": traced,
        "metrics": metrics,
        "self_time_ms": tr.self_time_ranking(tracer.spans),
        "info": environment_info(),
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    with open(plan["spans_out"], "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.trial, s.attrs]) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["sweep"] and argv[2:3] == ["--"]:
        return _sweep(argv[1], argv[3:])
    if argv[:1] == ["trace"] and len(argv) == 3:
        return _trace(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
