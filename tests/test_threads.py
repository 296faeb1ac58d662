"""Thread policy and the process pool, checked in fresh interpreters.

OpenBLAS fixes its thread count when numpy first loads, so every check
of the default runs in a child process whose environment holds none of
the thread variables unless the test sets one.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from nearmimo.harness import desk_profile, run_sweep
from nearmimo.threads import THREAD_VARS, single_thread_children

SRC = Path(__file__).resolve().parents[1] / "src"

# the pooled sweep's wall may exceed the serial one's by at most this
# factor: spawning two workers costs about a second on top of the trials,
# and other load on a 2-core host moves single walls by 10-20%
POOL_MARGIN = 1.25

_REPORT = """
import ctypes, glob, json, os, sys
{body}
blas = None
if "numpy" in sys.modules:
    site = os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                blas = getattr(lib, name)()
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "vars": {{k: os.environ.get(k) for k in {names!r}}},
    "blas_threads": blas,
}}))
"""


def clean_env(**thread_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(thread_vars)
    return env


def report(body: str, **thread_vars) -> dict:
    code = _REPORT.format(body=body, names=THREAD_VARS)
    out = subprocess.run([sys.executable, "-c", code], env=clean_env(**thread_vars),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_nearmimo_loads_no_numpy_and_sets_nothing():
    r = report("import nearmimo")
    assert r["numpy"] is False
    assert all(v is None for v in r["vars"].values())


def test_public_names_resolve_lazily():
    import nearmimo

    for name in nearmimo.__all__:
        assert getattr(nearmimo, name) is not None
    assert "run_sweep" in dir(nearmimo)
    with pytest.raises(AttributeError):
        nearmimo.no_such_name


def test_cli_import_defaults_blas_to_one_thread():
    r = report("import nearmimo.cli")
    assert r["vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert r["vars"]["OMP_NUM_THREADS"] == "1"
    assert r["numpy"] is True
    if r["blas_threads"] is not None:  # numpy's OpenBLAS read the default
        assert r["blas_threads"] == 1


@pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
def test_cli_import_keeps_a_user_thread_setting(name):
    r = report("import nearmimo.cli", **{name: "2"})
    assert r["vars"][name] == "2"
    assert all(v is None for k, v in r["vars"].items() if k != name)


def test_single_thread_children_sets_spawned_env_and_restores(monkeypatch):
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    with single_thread_children():
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
    assert seen == "1"
    assert dict(os.environ) == before

    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    with single_thread_children():
        assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_pooled_run_sweep_leaves_environ_unchanged(monkeypatch):
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    cfg = desk_profile(methods=("stage1-only",), snr_db=(10.0,), trials=4, workers=2)
    assert len(run_sweep(cfg).rows) == 4
    assert dict(os.environ) == before


def test_pooled_cli_sweep_no_slower_than_serial_and_byte_identical(tmp_path):
    walls, outs = {}, {}
    for workers in (1, 2):
        cfg = desk_profile(snr_db=(15.0,), trials=8, workers=workers, base_seed=4711)
        path = tmp_path / f"w{workers}.json"
        path.write_text(cfg.to_json())
        outs[workers] = tmp_path / f"out{workers}"
        tic = time.perf_counter()
        subprocess.run([sys.executable, "-m", "nearmimo.cli", "sweep", "--config", str(path),
                        "--out", str(outs[workers])], env=clean_env(), check=True,
                       capture_output=True)
        walls[workers] = time.perf_counter() - tic
    assert walls[2] <= POOL_MARGIN * walls[1], walls
    for name in ("sweep_rows.csv", "sweep_aggregate.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()


def test_serial_sweep_of_every_method_loads_neither_scipy_nor_the_pool():
    # the program runs on numpy alone; the process pool serves only workers > 1
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from nearmimo.harness import METHODS, desk_profile, run_sweep\n"
        "from nearmimo.solvers import MatrixOperator, sbl_em\n"
        "table = run_sweep(desk_profile(methods=METHODS, snr_db=(15.0,), trials=1))\n"
        "sbl_em(MatrixOperator(np.eye(4, dtype=complex), np.ones(4)), np.ones(4), sigma2=0.1)\n"
        "print(json.dumps({'statuses': [r.status for r in table.rows], 'loaded': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')\n"
        "    or m.startswith('concurrent.futures.process'))}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=clean_env(), capture_output=True,
                         text=True, check=True)
    report = json.loads(out.stdout)
    assert report["statuses"] == ["ok"] * 8
    assert report["loaded"] == []
