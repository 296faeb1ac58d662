"""Near-field XL-MIMO localization and channel estimation toolkit.

Simulates uplink reception through sub-connected planar arrays and
implements a three-stage estimator: subarray-wise sparse channel
recovery over angular dictionaries, MUSIC-refined least-squares 3D
localization, and location-aided dictionary recovery of the full MIMO
channel, together with antenna-wise and eigen-dictionary baselines and
a reproducible Monte-Carlo harness.

The public names below load lazily (PEP 562): ``import nearmimo`` imports
no submodule and no numpy, so an entry point such as ``nearmimo.cli``
can set the BLAS thread variables before numpy first loads.
"""

import importlib

_EXPORTS = {
    "channel": (
        "ChannelRealization", "PathParams", "Scene", "far_field_steering",
        "los_channel", "near_field_steering", "synthesize",
    ),
    "dictionaries": (
        "AngularDictionary", "LocationDictionary", "SphericalDictionary", "build_angular",
        "build_location", "build_spherical_baseline",
    ),
    "doa": ("extract_axis_factors", "music_1d"),
    "geometry": (
        "ArrayGeometry", "SubarrayTiling", "build_ula", "build_upa", "partition", "recover_kx",
    ),
    "harness": (
        "ExperimentConfig", "ResultTable", "desk_profile", "nmse", "paper_profile",
        "run_sweep",
    ),
    "localization": ("LocationEstimate", "Ray", "ls_intersect"),
    "matfile": ("load_matrix", "save_matrix"),
    "pipeline": (
        "ReceptionRecord", "StageOptions", "simulate_reception", "stage1", "stage2",
        "stage3",
    ),
    "sensing": (
        "CombinerDesign", "PrecoderDesign", "design_combiner", "design_precoder_dft",
        "random_combiner", "uniform_precoder",
    ),
    "solvers": ("MatrixOperator", "SblState", "SparseSolution", "omp", "sbl_em"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
