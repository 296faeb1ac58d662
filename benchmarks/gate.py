"""Correctness gate and accuracy figures read from a sweep's CSV artifacts.

Pure Python (``csv`` and ``math``), so the checks can be tested on
hand-written files.
"""

from __future__ import annotations

import csv
import math

# serial and pooled, repeated, and traced rows must agree to this relative tolerance;
# going from 1 to 2 BLAS threads moves results by about 1e-14 relative
AGREE_RTOL = 1e-9
COMPARED = ("nmse_db", "rmse_m")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text)  # the artifacts write non-finite values as "nan"


def accuracy(rows: list[dict], aggregate: list[dict]) -> dict:
    """``nmse``, ``nmse_db``, ``rmse_m``, ``fail_frac`` and ``ok_frac`` of one sweep.

    ``nmse`` is the geometric mean of the per-trial NMSE (a linear ratio)
    over the ``ok`` rows, i.e. ``10 ** (mean nmse_db / 10)``: unlike the
    arithmetic mean, a few gross misses do not dominate it.  ``nmse_db``
    is the mean over (method, SNR) cells of ``nmse_mean_db``; ``rmse_m``
    is the mean of ``rmse_m`` over the cells that localize (NaN when none
    does); the fractions count rows by ``status``.
    """
    trial_db = [_num(r["nmse_db"]) for r in rows if r["status"] == "ok"]
    trial_db = [v for v in trial_db if math.isfinite(v)]
    cells_db = [_num(a["nmse_mean_db"]) for a in aggregate]
    cells_db = [v for v in cells_db if math.isfinite(v)]
    cells_rmse = [_num(a["rmse_m"]) for a in aggregate]
    cells_rmse = [v for v in cells_rmse if math.isfinite(v)]
    failed = sum(r["status"] != "ok" for r in rows)
    n = len(rows)
    return {
        "nmse": 10 ** (sum(trial_db) / len(trial_db) / 10) if trial_db else math.nan,
        "nmse_db": sum(cells_db) / len(cells_db) if cells_db else math.nan,
        "rmse_m": sum(cells_rmse) / len(cells_rmse) if cells_rmse else math.nan,
        "fail_frac": failed / n if n else math.nan,
        "ok_frac": (n - failed) / n if n else math.nan,
    }


def check_rows(rows: list[dict], expected: int, error_names) -> list[str]:
    """Problems with one sweep's rows; an empty list means it passed.

    Checks the row count, that every status is ``ok`` or the name of a
    ``NearMimoError`` class, and that every ``ok`` row has a finite NMSE.
    """
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    allowed = set(error_names) | {"ok"}
    for r in rows:
        key = f"{r['method']}@{r['snr_db']}#{r['trial']}"
        if r["status"] not in allowed:
            problems.append(f"{key}: unknown status {r['status']!r}")
        elif r["status"] == "ok" and not math.isfinite(_num(r["nmse_db"])):
            problems.append(f"{key}: ok row with NMSE {r['nmse_db']}")
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_rows(a: list[dict], b: list[dict], rtol: float = AGREE_RTOL) -> list[str]:
    """Value-for-value agreement of two sweeps' rows within ``rtol``."""
    if len(a) != len(b):
        return [f"row counts differ: {len(a)} vs {len(b)}"]
    problems = []
    for ra, rb in zip(a, b):
        key = f"{ra['method']}@{ra['snr_db']}#{ra['trial']}"
        if (ra["method"], ra["snr_db"], ra["trial"], ra["seed"], ra["status"]) != (
                rb["method"], rb["snr_db"], rb["trial"], rb["seed"], rb["status"]):
            problems.append(f"{key}: cell or status differs")
            continue
        for col in COMPARED:
            if not _close(_num(ra[col]), _num(rb[col]), rtol):
                problems.append(f"{key}: {col} {ra[col]} vs {rb[col]}")
    return problems
