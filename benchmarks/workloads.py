"""The benchmark's workloads: which sweep cells each runs, in which environment.

Each workload is one timed ``nearmimo sweep`` config and one untimed
accuracy config.  Their ``base_seed`` is the benchmark's ``--seed``;
every other field comes from the program's own desk or paper profile, so
the program receives only the generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = (
    "proposed-sbl", "proposed-omp3", "stage1-only", "antenna-wise-dft",
    "antenna-wise-spherical", "antenna-wise-subarray-dft", "eigen-dictionary",
    "random-combiner",
)

# BLAS / OpenMP thread variables: removed for the desk workloads, set to 1
# for the paper workloads and the accuracy sweeps
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# pool workers of the accuracy sweep
ACCURACY_WORKERS = 2


def thread_env(base: dict, pin: bool) -> dict:
    """``base`` without its thread variables; with BLAS/OpenMP at 1 if ``pin``."""
    env = {k: v for k, v in base.items() if k not in THREAD_VARS}
    if pin:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


_TRIAL_SPANS = (
    "harness.run_sweep", "harness.SweepContext", "harness.write_artifacts",
    "sensing.design_combiner", "dictionaries.build_angular",
    "harness.run_trial", "channel.synthesize", "pipeline.simulate_reception",
    "pipeline.stage1", "pipeline.stage2", "solvers.omp", "doa.music_1d",
    "doa.extract_axis_factors", "localization.ls_intersect",
    "pipeline.location_operator",
)
_PROPOSED_SPANS = ("pipeline.stage3", "dictionaries.build_location", "solvers.sbl_em")
_BASELINE_SPANS = ("harness.lazy_assets", "dictionaries.build_spherical_baseline",
                   "pipeline.baseline_antenna_wise", "pipeline.baseline_eigen_dictionary")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # "desk" or "paper"
    methods: tuple[str, ...]
    snr_db: tuple[float, ...]
    pin_threads: bool  # True: BLAS/OpenMP pinned to 1; False: thread vars removed
    # the accuracy sweep: desk profile, the same methods, these SNRs and
    # trials a cell, BLAS pinned, through the process pool
    accuracy_snr_db: tuple[float, ...]
    accuracy_trials: int
    # wrapped spans that must record calls in the traced run
    expected_spans: tuple[str, ...]
    # > 0: the traced run also sweeps the timed cells once through
    # run_sweep's process pool with this many workers, in the workload's
    # own environment, for harness.pool.busy_frac
    pool_workers: int = 0

    @property
    def cells(self) -> int:
        return len(self.methods) * len(self.snr_db)

    @property
    def accuracy_cells(self) -> int:
        return len(self.methods) * len(self.accuracy_snr_db) * self.accuracy_trials

    def env(self, base: dict) -> dict:
        return thread_env(base, self.pin_threads)

    def thread_vars(self, env: dict) -> dict:
        return {k: env[k] for k in THREAD_VARS if k in env}

    def config_json(self, seed: int, trials: int = 1, workers: int = 1) -> str:
        """The sweep config for ``seed``, built from the program's profile.

        One trial a cell, serial; ``trials=0`` gives the set-up config:
        same geometry, no cells.
        """
        from nearmimo.harness import desk_profile, paper_profile

        profile = desk_profile if self.profile == "desk" else paper_profile
        cfg = profile(
            methods=self.methods, snr_db=self.snr_db,
            workers=workers, trials=trials, base_seed=int(seed),
        )
        return cfg.to_json()

    def accuracy_config_json(self, seed: int) -> str:
        """The accuracy sweep's config for ``seed``.

        Always the desk profile, so enough trials fit in a run to make
        the accuracy figures steady across seeds.
        """
        from nearmimo.harness import desk_profile

        cfg = desk_profile(
            methods=self.methods, snr_db=self.accuracy_snr_db,
            workers=ACCURACY_WORKERS, trials=self.accuracy_trials, base_seed=int(seed),
        )
        return cfg.to_json()


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-sweep", "desk", ALL_METHODS, (5.0, 15.0, 25.0), False,
            (5.0, 15.0, 25.0), 16,
            _TRIAL_SPANS + _PROPOSED_SPANS + _BASELINE_SPANS
            + ("sensing.random_combiner",),
            pool_workers=2,
        ),
        Workload(
            "paper-proposed", "paper", ("proposed-sbl", "proposed-omp3"), (10.0,), True,
            (10.0,), 60,
            _TRIAL_SPANS + _PROPOSED_SPANS,
        ),
        Workload(
            "paper-baselines", "paper",
            ("stage1-only", "antenna-wise-dft", "antenna-wise-spherical",
             "antenna-wise-subarray-dft", "eigen-dictionary"),
            (10.0,), True,
            (5.0, 15.0, 25.0), 24,
            _TRIAL_SPANS + _BASELINE_SPANS,
        ),
    )
}
