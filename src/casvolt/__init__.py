"""Vacuum electric-field correlators near reflecting plates and the
energy/voltage fluctuation statistics they induce on a charged particle
flying perpendicular to them.

Natural units throughout the numerics: energies in eV, lengths and times in
1/eV, with converters in casvolt.units. The closed forms continue through
the light-cone pole; the quadrature oracle refuses such domains, which is
what makes it an independent check where both are defined.

The oracle (and with it numpy) loads on first use: its names below resolve
through the module `__getattr__`, so `import casvolt` and the CLI commands
that never reach the oracle or the block image sums start without numpy.
"""
from .closed_forms import (
    PathSegment,
    one_plate_integral,
    one_plate_integral_smallv,
    one_plate_kernel,
    reflected_image_integral,
    reflected_image_integral_smallv,
    reflected_image_kernel,
    translated_image_integral,
    translated_image_integral_smallv,
    translated_image_kernel,
)
from .correlators import (
    MeanSquaredField,
    SpacetimePair,
    correlator_dual_plate,
    correlator_single_plate,
    mean_squared_field,
)
from .errors import (
    CasvoltError,
    ConvergenceError,
    DomainError,
    PoleInsideDomainError,
    SingularityError,
    VerificationError,
)
from .experiment import (
    DEFAULT_SCENARIO,
    EnhancementRatio,
    ExperimentConfig,
    MaterialMirror,
    ModdelRow,
    RegimeReport,
    enhancement_ratio,
    load_scenario,
    minkowski_rms,
    moddel_report,
    regime_classify,
    rms_estimate_eV,
)
from .summation import SummationControl, SummationResult
from .units import (
    CONSTANTS,
    Constants,
    charge_natural,
    kinetic_from_speed,
    length_to_natural,
    natural_to_length,
    speed_from_kinetic,
)
from .variance import (
    FluctuationResult,
    Particle,
    WindowReport,
    rms_one_plate_smallv,
    validity_window,
    variance_one_plate,
    variance_two_plate_exact,
    variance_two_plate_smallv,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "Constants",
    "CasvoltError",
    "ConvergenceError",
    "CscSeriesComparison",
    "DEFAULT_SCENARIO",
    "DerivativeReport",
    "DomainError",
    "EnhancementRatio",
    "ExperimentConfig",
    "FluctuationResult",
    "MaterialMirror",
    "MeanSquaredField",
    "ModdelRow",
    "Particle",
    "PathSegment",
    "PoleInsideDomainError",
    "QuadratureResult",
    "RegimeReport",
    "SingularityError",
    "SpacetimePair",
    "SummationControl",
    "SummationResult",
    "VerificationError",
    "VerificationReport",
    "WindowReport",
    "brute_dual_correlator",
    "charge_natural",
    "correlator_dual_plate",
    "correlator_single_plate",
    "csc_identity",
    "deriv_check",
    "enhancement_ratio",
    "kinetic_from_speed",
    "length_to_natural",
    "load_scenario",
    "mean_squared_field",
    "minkowski_rms",
    "moddel_report",
    "natural_to_length",
    "one_plate_integral",
    "one_plate_integral_smallv",
    "one_plate_kernel",
    "quad_image",
    "quad_one_plate",
    "reflected_image_integral",
    "reflected_image_integral_smallv",
    "reflected_image_kernel",
    "regime_classify",
    "rms_estimate_eV",
    "rms_one_plate_smallv",
    "run_verification",
    "speed_from_kinetic",
    "translated_image_integral",
    "translated_image_integral_smallv",
    "translated_image_kernel",
    "validity_window",
    "variance_one_plate",
    "variance_two_plate_exact",
    "variance_two_plate_series_smallv",
    "variance_two_plate_smallv",
    "zeta_two_series",
    "__version__",
]

_ORACLE_NAMES = frozenset({
    "CscSeriesComparison",
    "DerivativeReport",
    "QuadratureResult",
    "VerificationReport",
    "brute_dual_correlator",
    "csc_identity",
    "deriv_check",
    "quad_image",
    "quad_one_plate",
    "run_verification",
    "variance_two_plate_series_smallv",
    "zeta_two_series",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from importlib import import_module

        return getattr(import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
