"""Command-line interface.

Subcommands:
  verify       one desk trial per method at 25 dB (exit 0 iff all pass)
  simulate     one scene + one method; dumps the trial report JSON + matrices
  sweep        Monte-Carlo sweep from a config file; emits CSV + JSON
  export-dict  dump a dictionary matrix with a text manifest

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Output artifacts are byte-reproducible for a fixed (config, seed);
wall-clock timings are zeroed in files unless --timings is passed.

BLAS and OpenMP run one thread unless one of the thread variables
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS, ...) is set
(see ``nearmimo.threads``).
"""

from __future__ import annotations

import os

from .threads import single_thread_defaults

# before numpy first loads: OpenBLAS reads its thread count only then
os.environ.update(single_thread_defaults())

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from .dictionaries import build_location, reciprocal_distance_rings  # noqa: E402
from .errors import NearMimoError  # noqa: E402
from .harness import (  # noqa: E402
    METHODS, SPHERICAL_ANGLE_GRID, ExperimentConfig, SweepContext, desk_profile,
    paper_profile, run_sweep, run_trial, simulate_once,
)
from .matfile import save_matrix  # noqa: E402


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        cfg = paper_profile() if args.profile == "paper" else desk_profile()
    return cfg if getattr(args, "seed", None) is None else replace(cfg, base_seed=args.seed)


def _add_common(p, runs=True):
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--profile", choices=("desk", "paper"), default="desk",
                   help="built-in profile when --config is omitted")
    p.add_argument("--out", default=".", help="output directory")
    if runs:  # export-dict draws no scene and times nothing
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in output files "
                            "(breaks byte-reproducibility)")


def finite_xyz(text: str) -> tuple[float, float, float]:
    """Three finite numbers ``x,y,z``; argparse names the flag of any other value."""
    point = tuple(map(float, text.split(",")))
    if len(point) != 3 or not all(map(math.isfinite, point)):
        raise ValueError(text)
    return point


def build_parser() -> _Parser:
    parser = _Parser(prog="nearmimo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run one desk trial of every method")

    p = sub.add_parser("simulate", help="run one scene + one method")
    _add_common(p)
    p.add_argument("--method", default="proposed-sbl",
                   help="method name ('proposed' = proposed-sbl)")
    p.add_argument("--snr-db", type=float, default=10.0, help="SNR in dB ('inf' for noiseless)")

    p = sub.add_parser("sweep", help="run the Monte-Carlo sweep")
    _add_common(p)

    p = sub.add_parser("export-dict", help="dump a dictionary matrix")
    p.add_argument("--kind", choices=("angular", "location", "spherical"),
                   default="angular")
    p.add_argument("--center", type=finite_xyz, default=None,
                   help="location-grid center 'x,y,z' (location kind)")
    _add_common(p, runs=False)
    return parser


def _cmd_verify(args) -> int:
    """One desk trial of each method at 25 dB, through the sweep's own path.

    A method passes when its trial's status is ``ok`` and its NMSE is
    below 0 dB; one PASS/FAIL line per method.
    """
    ctx = SweepContext(desk_profile())
    failed = 0
    for method in METHODS:
        try:
            row = run_trial(ctx, method, 25.0, 0)
        except Exception as exc:  # a crashed trial is a failed check
            print(f"FAIL {method}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        ok = row.status == "ok" and row.nmse < 1.0
        failed += not ok
        nmse_db = f"{10 * math.log10(row.nmse):.1f} dB" if row.nmse > 0 else "nan"
        print(f"{'PASS' if ok else 'FAIL'} {method}: status {row.status}, NMSE {nmse_db}")
    return 2 if failed else 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    method = {"proposed": "proposed-sbl"}.get(args.method, args.method)
    result = simulate_once(cfg, method, args.snr_db, cfg.base_seed, include_timings=args.timings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"simulate_{method}_seed{cfg.base_seed}"  # --seed is the base seed
    with open(f"{stem}.json", "w") as fh:
        json.dump(result["report"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_matrix(f"{stem}_h_hat.cmx", result["h_hat"], cfg.wavelength)
    save_matrix(f"{stem}_h_true.cmx", result["h_true"], cfg.wavelength)
    print(f"wrote {stem}.json")
    nmse_db = result["report"]["nmse_db"]
    print(f"{method} @ {args.snr_db} dB: NMSE {nmse_db} dB, "
          f"status {result['report']['status']}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    table = run_sweep(cfg, progress=lambda i, n: print(f"  {i}/{n} trials", file=sys.stderr))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "sweep_rows.csv", include_timings=args.timings)
    table.aggregates_to_csv(out / "sweep_aggregate.csv")
    table.to_json(out / "sweep.json", include_timings=args.timings)
    failures = table.failure_summary()
    print(f"wrote {out}/sweep_rows.csv ({len(table.rows)} rows, "
          f"{failures['failed']} failed)")
    if failures["failed"]:
        print(f"failure summary: {failures['by_status']}")
    return 0


def _cmd_export_dict(args) -> int:
    cfg = _load_config(args)
    ctx = SweepContext(cfg)
    if args.kind == "angular":
        tile = ctx.tiling.tiles[0].geometry
        d = ctx.tile_dictionary
        matrix = d.columns(slice(None))  # the Kronecker product, formed only here
        manifest = (
            f"kind angular\nsubarray {tile.m_h}x{tile.m_v}\nz {d.cosines.size}\n"
            f"cosine_grid {' '.join(format(c, '.10g') for c in d.cosines)}\n"
        )
    elif args.kind == "spherical":
        matrix = ctx.spherical_dictionary().columns(slice(None))  # every atom, formed only here
        rings = reciprocal_distance_rings(*cfg.spherical_rings)
        manifest = (
            f"kind spherical\narray {cfg.bs_m_h}x{cfg.bs_m_v}\n"
            f"angle_grid {SPHERICAL_ANGLE_GRID}\n"
            f"rings {' '.join(format(r, '.10g') for r in rings)}\n"
        )
    else:
        center = args.center or tuple((lo + hi) / 2 for lo, hi in cfg.user_box)
        half_widths, counts = cfg.stages.grid_half_widths, cfg.stages.grid_counts
        d = build_location(center, half_widths, counts, ctx.bs, ctx.ue_offsets, cfg.wavelength,
                           [1] * cfg.n_ue)
        matrix = d.channels(slice(None))  # vec(H) atoms
        manifest = (
            f"kind location\ncenter {center[0]:.10g} {center[1]:.10g} {center[2]:.10g}\n"
            f"half_widths {' '.join(map(str, half_widths))}\ncounts {' '.join(map(str, counts))}\n"
            f"atoms {d.matrix.shape[1]}\n"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"dictionary_{args.kind}"
    save_matrix(f"{stem}.cmx", matrix, cfg.wavelength)
    Path(f"{stem}.manifest.txt").write_text(manifest)
    print(f"wrote {stem}.cmx ({matrix.shape[0]}x{matrix.shape[1]})")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "export-dict": _cmd_export_dict,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"nearmimo: config error: {exc}", file=sys.stderr)
        return 1
    except NearMimoError as exc:
        print(f"nearmimo: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
