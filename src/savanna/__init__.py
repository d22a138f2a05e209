"""Tree-grass savanna dynamics under periodic fire pulses.

Simulation (positivity-preserving and reference schemes), closed-form
ecological thresholds with an eleven-case outcome classification, numerical
Floquet analysis of periodic orbits, and two-parameter sweep/level-curve
extraction, plus a CLI (``savanna --help``).
"""

from .model import (
    FireIntensityParams,
    LITERATURE_RANGES,
    ModelParams,
    NumericalError,
    PARAM_KEYS,
    ParameterError,
    RegionPreset,
    ValidationReport,
    VegState,
    dump_params_text,
    fire_intensity,
    fire_intensity_slope,
    impulse_map,
    in_omega,
    load_params_file,
    parse_params_text,
    region_preset,
    validate,
    vector_field,
)
from .thresholds import (
    Classification,
    CriticalValues,
    SigmaNSEstimation,
    ThresholdError,
    ThresholdReport,
    classify,
    compute_thresholds,
    critical_values,
    estimate_sigma_ns,
    eta_g_boundary,
    grassland_orbit,
    grassland_orbit_end,
    tau_boundary,
)
from .integrate import (
    DenominatorFunctions,
    Trajectory,
    denominators,
    nsfd_step,
    reference_step,
    simulate,
)
from .floquet import (
    FloquetReport,
    OrbitResult,
    cubic_eigenvalues,
    floquet_report,
    grassland_agreement,
    grassland_multipliers_analytic,
    jacobian,
    jump_jacobian,
    locate_savanna_orbit,
    monodromy,
    monodromy_full,
    rho_tg,
)
from .sweep import AxisSpec, GridScan, LevelCurve, classify_grid, level_curve, scan

__version__ = "0.1.0"

__all__ = [
    "FireIntensityParams", "LITERATURE_RANGES", "ModelParams",
    "NumericalError", "PARAM_KEYS", "ParameterError", "RegionPreset",
    "ValidationReport", "VegState", "dump_params_text", "fire_intensity",
    "fire_intensity_slope", "impulse_map", "in_omega", "load_params_file",
    "parse_params_text", "region_preset", "validate", "vector_field",
    "Classification", "CriticalValues", "SigmaNSEstimation",
    "ThresholdError", "ThresholdReport", "classify", "compute_thresholds",
    "critical_values", "estimate_sigma_ns", "eta_g_boundary",
    "grassland_orbit", "grassland_orbit_end", "tau_boundary",
    "DenominatorFunctions", "Trajectory", "denominators", "nsfd_step",
    "reference_step", "simulate",
    "FloquetReport", "OrbitResult", "cubic_eigenvalues", "floquet_report",
    "grassland_agreement", "grassland_multipliers_analytic", "jacobian",
    "jump_jacobian", "locate_savanna_orbit", "monodromy", "monodromy_full",
    "rho_tg",
    "AxisSpec", "GridScan", "LevelCurve", "classify_grid", "level_curve",
    "scan",
]
