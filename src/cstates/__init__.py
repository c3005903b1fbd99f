"""Coherent states for discrete spectra.

Builds the normalized superpositions labeled by an action-angle pair
(J, gamma) over a discrete nondegenerate spectrum, with the weight factors
fixed so that the energy expectation equals omega*J.  Provides certified
series evaluation, time evolution, resolution-of-unity verification, and
energy-variance curves with their small-J and near-J* asymptotics.
"""
from .dynamics import (
    EvolvedState,
    evolve_coefficients,
    evolve_label,
    kinematic_representation_check,
    temporal_stability_residual,
)
from .errors import (
    CertificationError,
    CrossCheckError,
    CStatesError,
    LabelRangeError,
    LevelRangeError,
    QuadratureError,
    SpectrumError,
    SpectrumMismatchError,
    TruncationError,
)
from .observables import (
    VariancePoint,
    energy_mean,
    moments_from_state,
    near_jstar_coefficient,
    near_jstar_exponent,
    small_j_slope,
    variance,
    variance_curve,
)
from .resolution import (
    Measure,
    ProjectorMatrix,
    builtin_measure,
    gamma_averaged_projector,
    load_measure,
    moment_check,
    unity_check,
)
from .spectrum import (
    Spectrum,
    ValidationReport,
    from_levels,
    from_rule,
    load_spectrum,
    make_builtin,
    power_gap_spectrum,
    validate,
)
from .state import StateCoefficients, StateLabel, coefficients, norm_deficit, overlap
from .weights import (
    SeriesValue,
    WeightTable,
    compute_weights,
    normalization,
    power_sums,
)

__all__ = [
    "CStatesError",
    "CertificationError",
    "CrossCheckError",
    "EvolvedState",
    "LabelRangeError",
    "LevelRangeError",
    "Measure",
    "ProjectorMatrix",
    "QuadratureError",
    "SeriesValue",
    "Spectrum",
    "SpectrumError",
    "SpectrumMismatchError",
    "StateCoefficients",
    "StateLabel",
    "TruncationError",
    "ValidationReport",
    "VariancePoint",
    "WeightTable",
    "builtin_measure",
    "coefficients",
    "compute_weights",
    "energy_mean",
    "evolve_coefficients",
    "evolve_label",
    "from_levels",
    "from_rule",
    "gamma_averaged_projector",
    "kinematic_representation_check",
    "load_measure",
    "load_spectrum",
    "make_builtin",
    "moment_check",
    "moments_from_state",
    "near_jstar_coefficient",
    "near_jstar_exponent",
    "norm_deficit",
    "normalization",
    "overlap",
    "power_gap_spectrum",
    "power_sums",
    "small_j_slope",
    "temporal_stability_residual",
    "unity_check",
    "validate",
    "variance",
    "variance_curve",
]

__version__ = "0.1.0"
