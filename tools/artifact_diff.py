"""Compare two artifact trees written by ``tools/artifact_digest.py``.

    python tools/artifact_diff.py OLD NEW

Prints one line per file, paths relative to the tree roots and sorted:
``identical``, ``changed``, ``only-old`` or ``only-new``.  Then, for each
changed ``sweep_rows.csv``, one line per method and SNR: how many of its
rows changed, and the largest |Δ ``nmse_db``| and |Δ ``rmse_m``| over the
rows that both files hold for one (method, snr_db, trial).  A value that
is NaN on one side only counts as an infinite difference.

Exits 0 if the trees hold the same files, byte for byte, 1 if they differ,
and 2 on a usage error.  Uses only the standard library.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _rows(text: str) -> dict[tuple[str, str, str], dict[str, str]]:
    """The rows of a sweep_rows.csv keyed by (method, snr_db, trial)."""
    return {(r["method"], r["snr_db"], r["trial"]): r
            for r in csv.DictReader(text.splitlines())}


def _delta(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if not (math.isnan(a) or math.isnan(b)) else math.inf


def row_report(old_text: str, new_text: str) -> list[tuple[str, str, int, int, float, float]]:
    """Per (method, snr_db), in the old file's order: changed rows, rows, max |Δ nmse_db|
    and max |Δ rmse_m| over the rows both files hold."""
    old, new = _rows(old_text), _rows(new_text)
    cells: dict[tuple[str, str], list] = {}
    for key, row in old.items():
        cell = cells.setdefault(key[:2], [0, 0, 0.0, 0.0])
        cell[1] += 1
        other = new.get(key)
        if other != row:
            cell[0] += 1
        if other is not None:
            cell[2] = max(cell[2], _delta(row["nmse_db"], other["nmse_db"]))
            cell[3] = max(cell[3], _delta(row["rmse_m"], other["rmse_m"]))
    return [(method, snr, *cell) for (method, snr), cell in cells.items()]


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (_files(Path(a)) for a in argv)
    changed = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            status = "only-old"
        elif path not in old:
            status = "only-new"
        elif old[path] == new[path]:
            status = "identical"
        else:
            status = "changed"
            changed.append(path)
        print(f"{status:<10} {path}")
    for path in changed:
        if Path(path).name != "sweep_rows.csv":
            continue
        print(f"\n{path}\n  {'method':<26} {'snr_db':>6} {'changed':>9} "
              f"{'max|Δnmse_db|':>14} {'max|Δrmse_m|':>13}")
        for method, snr, moved, rows, d_nmse, d_rmse in row_report(
                old[path].decode(), new[path].decode()):
            print(f"  {method:<26} {snr:>6} {f'{moved}/{rows}':>9} "
                  f"{d_nmse:>14.3g} {d_rmse:>13.3g}")
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
