"""Write the standard artifact set through ``nearmimo.cli.main`` and print its digests.

    PYTHONPATH=src python tools/artifact_digest.py OUT

Writes into OUT, a directory that does not exist yet:

* ``sweep-<profile>-w<workers>/``: the config file and the three sweep
  artifacts of every method at 5, 10 and 25 dB and without noise, on the
  desk and paper profiles, with ``workers`` 1 and 2;
* ``simulate-<profile>/``: ``simulate`` of every method, on desk at 25 dB
  and on paper without noise;
* ``export-<profile>/``: ``export-dict`` of all three kinds on both profiles.

Then prints ``sha256  path`` for every file, paths relative to OUT and
sorted, so two checkouts compare with ``diff``.  The commands' own output
goes to standard error.  Exits 1 if any command fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from pathlib import Path

from nearmimo import cli  # first: it sets the BLAS thread defaults before numpy loads
from nearmimo.harness import METHODS, desk_profile, paper_profile

PROFILES = {"desk": desk_profile, "paper": paper_profile}
SWEEP_SNR_DB = (5.0, 10.0, 25.0, float("inf"))
SWEEP_TRIALS = {"desk": 4, "paper": 3}
SIMULATE_SNR_DB = {"desk": "25", "paper": "inf"}


def _commands(out: Path):
    """Each CLI command line of the set, after writing the sweep configs it reads."""
    for profile, make in PROFILES.items():
        for workers in (1, 2):
            run = out / f"sweep-{profile}-w{workers}"
            run.mkdir(parents=True)
            cfg = make(methods=METHODS, snr_db=SWEEP_SNR_DB, trials=SWEEP_TRIALS[profile],
                       workers=workers)
            (run / "config.json").write_text(cfg.to_json())
            yield ["sweep", "--config", str(run / "config.json"), "--out", str(run)]
        for method in METHODS:
            yield ["simulate", "--profile", profile, "--method", method,
                   "--snr-db", SIMULATE_SNR_DB[profile], "--out", str(out / f"simulate-{profile}")]
        for kind in ("angular", "location", "spherical"):
            yield ["export-dict", "--profile", profile, "--kind", kind,
                   "--out", str(out / f"export-{profile}")]


def main(argv) -> int:
    if len(argv) != 1 or Path(argv[0]).exists():  # stale files would join the digest
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(argv[0])
    for command in _commands(out):
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(command)
        if code != 0:
            print(f"artifact_digest: {' '.join(command)} exited {code}", file=sys.stderr)
            return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
