"""Experiment configuration, metrics, and the Monte-Carlo sweep engine.

A sweep walks (method, SNR point, trial) cells.  Each cell derives its
own seed from the base seed and the cell key, draws a scene (user
center uniform in the configured box, scatterers uniform in theirs),
synthesizes the channel, sets the noise variance from the SNR
definition ``SNR = p * ||H||_F^2 / (M * N * sigma^2)``, runs the
method, and records NMSE / localization error.  Failures become rows
with a status string instead of aborting the sweep.

A config's defaults are the desk profile's, stage knobs included.  The
method runners are the one place that simulates reception and composes
the pipeline's stages, each timed into the trial's ``timings``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channel import SPEED_OF_LIGHT, ChannelRealization, PathParams, Scene, synthesize
from .dictionaries import (
    build_angular,
    build_spherical_baseline,
    reciprocal_distance_rings,
)
from .errors import NearMimoError
from .geometry import ArrayGeometry, build_ula, build_upa, partition
from .pipeline import (
    StageOptions,
    baseline_antenna_wise,
    baseline_eigen_dictionary,
    baseline_subarray_antenna_wise,
    simulate_reception,
    stage1,
    stage2,
    stage3,
)
from .sensing import design_combiner, design_precoder_dft, random_combiner, uniform_precoder
from .solvers import _is_integer, _is_real
from .threads import single_thread_children


@dataclass(frozen=True)
class TrialResult:
    """One method's output on one trial.

    ``location`` is the estimated user center, ``None`` for a method that
    does not locate; ``timings`` holds per-stage wall times in seconds.
    """

    h_hat: np.ndarray
    location: np.ndarray | None = None
    timings: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


class _Draw(NamedTuple):
    """One cell's scene, noise variance set, and the seeds its method uses."""

    scene: Scene
    realization: ChannelRealization
    noise_seed: int
    extra_seed: int


def _timed(timings, key, stage, *args, **kwargs):
    """``stage(*args, **kwargs)``, with its wall time stored in ``timings[key]``."""
    tic = time.perf_counter()
    out = stage(*args, **kwargs)
    timings[key] = time.perf_counter() - tic
    return out


def _stage1(ctx, draw, combiner, timings):
    """The trial's single-block uniform-precoder record, and stage 1's solutions and ``h_sub``."""
    record = simulate_reception(
        draw.scene, draw.realization, combiner, uniform_precoder(ctx.config.n_ue),
        draw.noise_seed,
    )
    return (record, *_timed(timings, "stage1", stage1, record, ctx.tile_dictionary))


def _three_stage(ctx, draw, combiner, stage3_solver="sbl") -> TrialResult:
    timings = {}
    wavelength = ctx.config.wavelength
    record, sols, h_sub = _stage1(ctx, draw, combiner, timings)
    estimate, directions = _timed(timings, "stage2", stage2, h_sub, ctx.tiling, wavelength)
    sol3, h_hat = _timed(timings, "stage3", stage3, record, estimate.point, ctx.ue_offsets,
                         wavelength, ctx.config.stages, solver=stage3_solver)
    detail = {
        "location": {
            "point": estimate.point.tolist(),
            "residual": estimate.residual,
            "condition": estimate.condition,
        },
        "directions": [None if d is None else d.tolist() for d in directions],
        "stage1_supports": [s.support.tolist() for s in sols],
        "stage3_support_size": int(sol3.support.size),
        "stage3_iterations": sol3.iterations,
        "stage3_converged": bool(sol3.converged),
    }
    return TrialResult(h_hat, estimate.point, timings, detail)


def _stage1_only(ctx, draw) -> TrialResult:
    timings = {}
    _record, sols, h_sub = _stage1(ctx, draw, ctx.combiner, timings)
    # stage 1 estimates each tile's column sum H_i 1_N; it is attributed equally
    h_hat = np.outer(h_sub, np.ones(ctx.config.n_ue)) / ctx.config.n_ue
    return TrialResult(h_hat, timings=timings,
                       detail={"stage1_supports": [s.support.tolist() for s in sols]})


def _antenna_wise(ctx, draw, baseline, dictionary) -> TrialResult:
    """The N-block DFT-precoded record at ``p/N`` per block, and the baseline on it as stage 1."""
    timings = {}
    scene = draw.scene
    record = simulate_reception(scene, draw.realization, ctx.combiner, ctx.dft_precoder,
                                draw.noise_seed, power=scene.power / ctx.config.n_ue)
    h_hat = _timed(timings, "stage1", baseline, record, dictionary)
    return TrialResult(h_hat, timings=timings)


def _eigen_dictionary(ctx, draw) -> TrialResult:
    timings = {}
    wavelength = ctx.config.wavelength
    record, _sols, h_sub = _stage1(ctx, draw, ctx.combiner, timings)
    estimate, _dirs = _timed(timings, "stage2", stage2, h_sub, ctx.tiling, wavelength)
    h_hat = _timed(timings, "stage3", baseline_eigen_dictionary, record, estimate.point,
                   ctx.ue_offsets, wavelength)
    return TrialResult(h_hat, estimate.point, timings,
                       detail={"location": {"point": estimate.point.tolist()}})


# method name -> runner(ctx, draw) -> TrialResult.  Runners call the
# pipeline through this module's globals when they run, never through a
# reference taken here, so a rebound global (a tracer's wrapper) is seen.
_RUNNERS = {
    "proposed-sbl": lambda ctx, draw: _three_stage(ctx, draw, ctx.combiner),
    "proposed-omp3": lambda ctx, draw: _three_stage(ctx, draw, ctx.combiner, "omp"),
    "stage1-only": _stage1_only,
    "antenna-wise-dft": lambda ctx, draw: _antenna_wise(
        ctx, draw, baseline_antenna_wise, ctx.full_array_dictionary()),
    "antenna-wise-spherical": lambda ctx, draw: _antenna_wise(
        ctx, draw, baseline_antenna_wise, ctx.spherical_dictionary()),
    "antenna-wise-subarray-dft": lambda ctx, draw: _antenna_wise(
        ctx, draw, baseline_subarray_antenna_wise, ctx.tile_dictionary),
    "eigen-dictionary": _eigen_dictionary,
    "random-combiner": lambda ctx, draw: _three_stage(ctx, draw, random_combiner(
        ctx.config.t_slots, ctx.tiling, ctx.m_rf_per_tile, seed=draw.extra_seed)),
}

METHODS = tuple(_RUNNERS)

CSV_COLUMNS = (
    "method", "snr_db", "trial", "seed", "nmse_db", "rmse_m",
    "t_stage1_ms", "t_stage2_ms", "t_stage3_ms", "status",
)

AGGREGATE_COLUMNS = (
    "method", "snr_db", "n_trials", "n_ok",
    "nmse_mean", "nmse_mean_db", "nmse_std", "rmse_m",
)

# directions per axis of the spherical baseline: 32 x 32 directions on each
# of 4 rings make 4,096 atoms, the size of the paper's 64 x 64 DFT dictionary
SPHERICAL_ANGLE_GRID = 32

# the least value of every count: below it a config would fail partway through a
# sweep or run a scene it does not describe (derive_seed takes any base seed)
_LEAST_VALUE = dict(bs_m_h=1, bs_m_v=1, tiles_h=1, tiles_v=1, t_slots=1, m_s=1, n_ue=1,
                    num_nlos=0, z_grid=2, trials=0, base_seed=-np.inf, workers=1)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: geometry, scene statistics, solvers, sweep grid.

    Its JSON layout is version ``schema``: stage 3's knobs sit in one
    ``stages`` object.  Every default, stage knobs included, is the desk
    profile's; ``profile`` is only a label.
    """

    schema = 4  # a class constant, not a field
    profile: str = "desk"
    carrier_freq_hz: float = 6.8e9
    bs_m_h: int = 12
    bs_m_v: int = 24
    tiles_h: int = 2
    tiles_v: int = 2
    t_slots: int = 6
    m_s: int = 6
    n_ue: int = 2
    num_nlos: int = 2
    los_nlos_ratio_db: float = 30.0
    user_box: tuple[tuple[float, float], ...] = ((2.0, 5.0), (-2.0, 2.0), (-1.0, -1.0))
    scatter_box: tuple[tuple[float, float], ...] = ((0.8, 4.0), (-2.5, 2.5), (-2.0, 0.0))
    z_grid: int = 32
    stages: StageOptions = StageOptions()
    spherical_rings: tuple[float, float, int] = (2.0, 10.0, 4)
    methods: tuple[str, ...] = METHODS
    snr_db: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0)
    trials: int = 50
    base_seed: int = 20240817
    workers: int = 1

    def __post_init__(self):
        # a float or bool count, or one below its least value, would fail or mislead later
        for name, least in _LEAST_VALUE.items():
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not (_is_real(self.carrier_freq_hz) and 0 < self.carrier_freq_hz < np.inf):
            raise ValueError(f"carrier_freq_hz must be finite and > 0, got {self.carrier_freq_hz!r}")
        _check_db("los_nlos_ratio_db", self.los_nlos_ratio_db)
        for name in ("methods", "snr_db"):  # a string would be read character by character
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        for snr_db in self.snr_db:
            _check_db("SNR", snr_db)
        for name, box in (("user_box", self.user_box), ("scatter_box", self.scatter_box)):
            if np.shape(box) != (3, 2) or not all(_is_real(lo) and _is_real(hi)
                                                  and -np.inf < lo <= hi < np.inf for lo, hi in box):
                raise ValueError(f"{name} must be 3 finite (low, high) pairs, low <= high: {box}")
        if self.user_box[0][0] <= 0:  # behind the array a user has its mirror image's channel
            raise ValueError(f"user_box must lie in front of the array, x > 0: {self.user_box}")
        unknown = [m for m in self.methods if m not in METHODS]  # a set() fails on a dict
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        # a repeated value would run its cells twice on the same seeds
        for name in ("methods", "snr_db"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        try:
            r_min, r_max, count = self.spherical_rings
            if not _is_integer(count):
                raise ValueError("the ring count must be an integer")
            reciprocal_distance_rings(r_min, r_max, count)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"spherical_rings {self.spherical_rings}: {exc}") from None
        if self.bs_m_h % self.tiles_h or self.bs_m_v % self.tiles_v:
            raise ValueError(f"{self.tiles_h}x{self.tiles_v} tiles must divide the "
                             f"{self.bs_m_h}x{self.bs_m_v} array")
        m_ih, m_iv = self.bs_m_h // self.tiles_h, self.bs_m_v // self.tiles_v
        if min(m_ih, m_iv) < 2:  # stage 2 runs MUSIC along each tile axis
            raise ValueError(f"tiles of {m_ih}x{m_iv} antennas: stage 2 needs 2 or more per axis")
        if (m_ih * m_iv) % self.m_s:
            raise ValueError(f"M_s={self.m_s} must divide the tile size {m_ih * m_iv}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    def to_dict(self) -> dict:
        return {"schema": self.schema, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        data = dict(data)
        schema = data.pop("schema", None)
        if schema != cls.schema:
            raise ValueError(
                f"config schema {schema!r} is not {cls.schema}; schema {cls.schema} has no power, "
                f"ue_orientation, baseline_z_grid or spherical_angle_grid (now constants)"
            )
        stages = _known_keys(StageOptions, data.pop("stages", {}), "stages")
        return cls(**_known_keys(cls, data, "config"), stages=StageOptions(**stages))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=_json_default)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _known_keys(cls, data: dict, what: str) -> dict:
    """``data`` with its lists as tuples; ``ValueError`` on a key ``cls`` lacks."""
    def to_tuple(v):
        return tuple(to_tuple(x) for x in v) if isinstance(v, list) else v

    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return {k: to_tuple(v) for k, v in data.items()}


def desk_profile(**overrides) -> ExperimentConfig:
    """Reduced geometry that sweeps quickly on a laptop."""
    return ExperimentConfig(**overrides)


def paper_profile(**overrides) -> ExperimentConfig:
    """Full-scale geometry with the paper's stage knobs; for overnight sweeps."""
    cfg = ExperimentConfig(
        profile="paper",
        bs_m_h=16, bs_m_v=48, tiles_h=2, tiles_v=4,
        t_slots=6, m_s=6, n_ue=4, z_grid=64,
        user_box=((5.0, 15.0), (-5.0, 5.0), (-1.0, -1.0)),
        scatter_box=((2.0, 12.0), (-5.0, 5.0), (-2.0, 0.0)),
        los_nlos_ratio_db=20.0,
        stages=StageOptions(grid_half_widths=(0.2, 0.2, 0.02), grid_counts=(11, 11, 3),
                            sbl_max_iters=200, sbl_tol=1e-6),
        spherical_rings=(5.0, 25.0, 4),
        trials=200,
    )
    return replace(cfg, **overrides)


def nmse(h_hat: np.ndarray, h: np.ndarray) -> float:
    """Normalized channel error ``||H_hat - H||_F^2 / ||H||_F^2``."""
    h_hat, h = np.asarray(h_hat), np.asarray(h)
    if h_hat.shape != h.shape:
        raise ValueError(f"shape mismatch: {h_hat.shape} vs {h.shape}")
    denom = np.linalg.norm(h) ** 2
    if denom == 0:
        raise ValueError("reference channel is identically zero")
    return float(np.linalg.norm(h_hat - h) ** 2 / denom)


def _db(x: float) -> float:
    """``10 log10(x)``; NaN unless ``x`` is finite and positive."""
    return float(10 * np.log10(x)) if np.isfinite(x) and x > 0 else float("nan")


def derive_seed(base_seed: int, method: str, snr_db: float, trial: int) -> int:
    """Stable per-cell seed: base XOR a cryptographic hash of the key."""
    key = f"{method}|{snr_db:.6g}|{trial}".encode()
    digest = hashlib.sha256(key).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "little")) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class TrialRow:
    method: str
    snr_db: float
    trial: int
    seed: int
    nmse: float
    loc_error_m: float
    t_stage1_ms: float
    t_stage2_ms: float
    t_stage3_ms: float
    status: str = "ok"


@dataclass
class ResultTable:
    """Per-trial rows in cell order, plus aggregates recomputable from them.

    The rows are put in the config's (method, SNR, trial) order when the
    table is built, so every writer takes them as they are.
    """

    config: ExperimentConfig
    rows: list[TrialRow] = field(default_factory=list)

    def __post_init__(self):
        methods, snrs = self.config.methods, self.config.snr_db
        self.rows = sorted(
            self.rows, key=lambda r: (methods.index(r.method), snrs.index(r.snr_db), r.trial))

    def aggregates(self) -> list[dict]:
        cells = {(m, s): [] for m in self.config.methods for s in self.config.snr_db}
        for r in self.rows:
            cells[r.method, r.snr_db].append(r)
        out, nan = [], float("nan")
        for (method, snr), cell in cells.items():
            ok = [r for r in cell if r.status == "ok"]
            nmses = np.array([r.nmse for r in ok if np.isfinite(r.nmse)])
            locs = np.array([r.loc_error_m for r in ok if np.isfinite(r.loc_error_m)])
            nmse_mean = float(nmses.mean()) if nmses.size else nan
            out.append(dict(zip(AGGREGATE_COLUMNS, (
                method, snr, len(cell), len(ok), nmse_mean, _db(nmse_mean),
                float(nmses.std()) if nmses.size else nan,
                float(np.sqrt(np.mean(locs ** 2))) if locs.size else nan,
            ))))
        return out

    def failure_summary(self) -> dict:
        by_status = Counter(r.status for r in self.rows if r.status != "ok")
        return {"total": len(self.rows), "failed": sum(by_status.values()),
                "by_status": dict(sorted(by_status.items()))}

    def _stored_rows(self, include_timings: bool) -> list[TrialRow]:
        """The rows as files store them: stage times zeroed unless ``include_timings``."""
        if include_timings:
            return self.rows
        return [replace(r, t_stage1_ms=0.0, t_stage2_ms=0.0, t_stage3_ms=0.0)
                for r in self.rows]

    def to_csv(self, path, include_timings: bool = False) -> None:
        """Write per-trial rows; wall-clock timings, which vary run to run, only if asked."""
        _write_csv(path, CSV_COLUMNS, (
            (r.method, r.snr_db, r.trial, r.seed, _db(r.nmse), r.loc_error_m,
             r.t_stage1_ms, r.t_stage2_ms, r.t_stage3_ms, r.status)
            for r in self._stored_rows(include_timings)
        ))

    def aggregates_to_csv(self, path) -> None:
        _write_csv(path, AGGREGATE_COLUMNS, (agg.values() for agg in self.aggregates()))

    def to_json(self, path, include_timings: bool = False) -> None:
        payload = {
            "schema": self.config.schema,
            "config": self.config.to_dict(),
            "rows": [asdict(r) for r in self._stored_rows(include_timings)],
            "aggregates": self.aggregates(),
            "failures": self.failure_summary(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")


def _write_csv(path, columns, records) -> None:
    """A header line, then one line per record with each value written by ``_fmt``."""
    lines = [",".join(columns), *(",".join(map(_fmt, record)) for record in records)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return format(float(x), ".10g")  # a noiseless SNR reads "inf", a NaN "nan"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


class SweepContext:
    """Immutable per-config assets shared by every trial.

    ``ue_offsets`` (N, 3), the user antennas about their center, is all the
    estimators know of the user array.  The two baseline dictionaries are
    built on first use, once per process: a pool worker builds its own.
    Neither is a formed matrix: the full-array angular one is its two axis
    factors, the spherical one the quarter of its atoms with non-negative
    cosines (12.6 MB at paper scale).
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        half = config.wavelength / 2
        self.bs = build_upa(config.bs_m_h, config.bs_m_v, half, half, (0.0, 0.0, 0.0))
        self.tiling = partition(self.bs, config.tiles_h, config.tiles_v)
        self.m_rf_per_tile = self.tiling.tiles[0].geometry.size // config.m_s
        self.combiner = design_combiner(config.t_slots, self.tiling, self.m_rf_per_tile)
        tile = self.tiling.tiles[0].geometry
        self.tile_dictionary = build_angular(tile.m_h, tile.m_v, tile.d_h, tile.d_v,
                                             config.wavelength, config.z_grid)
        self.dft_precoder = design_precoder_dft(config.n_ue)
        self.ue_offsets = build_ula(config.n_ue, half, (0.0, 0.0, 0.0)).positions
        self._lazy = {}

    def full_array_dictionary(self):
        if "dft" not in self._lazy:
            self._lazy["dft"] = build_angular(self.bs.m_h, self.bs.m_v, self.bs.d_h, self.bs.d_v,
                                              self.config.wavelength, self.config.z_grid)
        return self._lazy["dft"]

    def spherical_dictionary(self):
        if "spherical" not in self._lazy:
            self._lazy["spherical"] = build_spherical_baseline(
                self.bs, SPHERICAL_ANGLE_GRID,
                reciprocal_distance_rings(*self.config.spherical_rings), self.config.wavelength)
        return self._lazy["spherical"]


def draw_scene(config: ExperimentConfig, bs: ArrayGeometry, seed: int) -> Scene:
    """Draw user center, a ULA along y, and scatterer paths; the scene's power is 1."""
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1), (z0, z1) = config.user_box
    center = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(z0, z1)])
    ue = build_ula(config.n_ue, config.wavelength / 2, center)
    (sx0, sx1), (sy0, sy1), (sz0, sz1) = config.scatter_box
    paths = []
    for _ in range(config.num_nlos):
        pos = np.array([rng.uniform(sx0, sx1), rng.uniform(sy0, sy1), rng.uniform(sz0, sz1)])
        paths.append(PathParams(position=pos, aod=rng.uniform(-np.pi / 2, np.pi / 2)))
    return Scene(bs=bs, ue=ue, wavelength=config.wavelength, paths=tuple(paths),
                 los_nlos_ratio_db=config.los_nlos_ratio_db)


def _check_db(name: str, value) -> None:
    """``ValueError`` unless a number of dB or inf; a NaN or -inf would run an unmeant scene."""
    if not _is_real(value) or np.isnan(value) or value == -np.inf:
        raise ValueError(f"{name} must be a number of dB or inf, got {value!r}")


def noise_var_for_snr(power: float, h: np.ndarray, snr_db: float) -> float:
    """Invert ``SNR = p ||H||_F^2 / (M N sigma^2)`` at transmit power ``p``; inf SNR gives 0."""
    _check_db("SNR", snr_db)
    if snr_db == np.inf:
        return 0.0
    snr = 10.0 ** (snr_db / 10.0)
    m, n = h.shape
    return power * float(np.linalg.norm(h, "fro") ** 2) / (m * n * snr)


def _trial(ctx: SweepContext, method: str, snr_db: float, seed: int):
    """Draw one scene from ``seed`` and run ``method`` on it.

    Returns ``(draw, result, nmse, loc_error, status)``.  A
    ``NearMimoError`` gives its class name as the status, NaN metrics and
    an all-zero estimate; an unknown method raises ``ValueError``.
    """
    runner = _RUNNERS.get(method)
    if runner is None:
        raise ValueError(f"unknown method {method!r}")
    config = ctx.config
    scene_seed, chan_seed, noise_seed, extra_seed = (
        int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(4)
    )
    scene = draw_scene(config, ctx.bs, scene_seed)
    realization = synthesize(scene, chan_seed)
    scene = scene.with_noise_var(noise_var_for_snr(scene.power, realization.h, snr_db))
    draw = _Draw(scene, realization, noise_seed, extra_seed)
    nan = float("nan")
    try:
        result = runner(ctx, draw)
        value = nmse(result.h_hat, realization.h)
    except NearMimoError as exc:
        return draw, TrialResult(np.zeros_like(realization.h)), nan, nan, type(exc).__name__
    loc_error = nan if result.location is None else float(
        np.linalg.norm(result.location - scene.ue.center))
    return draw, result, value, loc_error, "ok"


def run_trial(ctx: SweepContext, method: str, snr_db: float, trial: int) -> TrialRow:
    """Run one (method, SNR, trial) cell; never raises on solver failure."""
    seed = derive_seed(ctx.config.base_seed, method, snr_db, trial)
    _draw, result, value, loc_error, status = _trial(ctx, method, snr_db, seed)
    stage_ms = (1e3 * result.timings.get(s, 0.0) for s in ("stage1", "stage2", "stage3"))
    return TrialRow(method, snr_db, trial, seed, value, loc_error, *stage_ms, status)


def simulate_once(
    config: ExperimentConfig, method: str, snr_db: float, seed: int,
    include_timings: bool = False,
) -> dict:
    """Run one scene + one method; returns a JSON-able report and matrices."""
    if seed < 0:  # it seeds the trial's SeedSequence as is; a sweep derives its own
        raise ValueError(f"simulate needs a non-negative seed, got {seed}")
    draw, result, value, loc_error, status = _trial(SweepContext(config), method, snr_db, seed)
    nmse_db = _db(value)
    report = {
        "method": method,
        "seed": seed,
        "snr_db": snr_db if np.isfinite(snr_db) else "inf",
        "status": status,
        "nmse_db": nmse_db if np.isfinite(nmse_db) else None,
        "loc_error_m": loc_error if np.isfinite(loc_error) else None,
        "true_center": draw.scene.ue.center.tolist(),
        "timings_ms": {
            k: (1e3 * v if include_timings else 0.0) for k, v in result.timings.items()
        },
        "detail": result.detail,
        "config": config.to_dict(),
    }
    return {"report": report, "h_hat": result.h_hat, "h_true": draw.realization.h}


def run_sweep(config: ExperimentConfig, progress=None) -> ResultTable:
    """Run the full (method x SNR x trial) grid; deterministic per config.

    The caller builds the sweep's one ``SweepContext``.  With ``workers >
    1`` the cells go to a pool of ``spawn``ed processes, which receive that
    context when they start but build the lazy baseline dictionaries once
    each; the pool starts them with BLAS at one thread unless a thread
    variable is set (see ``threads``).
    ``progress(done, total)`` is called every 25 trials.
    """
    cells = list(itertools.product(config.methods, config.snr_db, range(config.trials)))
    ctx = SweepContext(config)
    rows = []
    with ExitStack() as stack:
        if config.workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # a serial sweep never loads them
            from multiprocessing import get_context

            stack.enter_context(single_thread_children())
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers, mp_context=get_context("spawn"),
                initializer=_init_worker, initargs=(ctx,),
            ))
            results = pool.map(_run_cell, cells, chunksize=4)
        else:
            results = (run_trial(ctx, *cell) for cell in cells)
        for row in results:
            rows.append(row)
            if progress is not None and len(rows) % 25 == 0:
                progress(len(rows), len(cells))
    return ResultTable(config, rows)


_worker_ctx: SweepContext | None = None


def _init_worker(ctx: SweepContext) -> None:
    """Keep the caller's context for the pool worker's cells."""
    global _worker_ctx
    _worker_ctx = ctx


def _run_cell(cell) -> TrialRow:
    return run_trial(_worker_ctx, *cell)
