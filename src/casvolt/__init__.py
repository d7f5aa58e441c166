"""Vacuum electric-field correlators near reflecting plates and the
energy/voltage fluctuation statistics they induce on a charged particle
flying perpendicular to them.

Natural units throughout the numerics: energies in eV, lengths and times in
1/eV, with converters in casvolt.units. The closed forms continue through
the light-cone pole; the quadrature oracle refuses such domains, which is
what makes it an independent check where both are defined.

Every module loads on first use. _EXPORTS maps each module to the public
names it declares; that row is the module's __all__, and the package
re-exports every row. `import casvolt` imports no submodule: the module
__getattr__ imports the owning module the first time one of its names (or
the module itself, as in casvolt.closed_forms) is looked up, and binds the
whole row into the package namespace, so later lookups are plain attribute
reads. Each CLI command therefore compiles only the modules it runs; images,
which declares no public name, loads with the first two-plate exact sum.
numpy loads only with a pair block longer than images._SCALAR_BLOCK or a
call of oracle.brute_dual_correlator.
"""
__version__ = "0.1.0"

# module -> the public names it declares, in its __all__ order
_EXPORTS = {
    "closed_forms": (
        "PathSegment",
        "one_plate_integral",
        "one_plate_integral_smallv",
        "reflected_image_integral",
        "translated_image_integral",
        "one_plate_kernel",
        "reflected_image_kernel",
        "translated_image_kernel",
    ),
    "correlators": (
        "SpacetimePair",
        "correlator_single_plate",
        "correlator_dual_plate",
    ),
    "errors": (
        "CasvoltError",
        "DomainError",
        "SingularityError",
        "PoleInsideDomainError",
        "ConvergenceError",
    ),
    "experiment": (
        "MaterialMirror",
        "ExperimentConfig",
        "RegimeReport",
        "EnhancementRatio",
        "ModdelRow",
        "DEFAULT_SCENARIO",
        "rms_estimate_eV",
        "minkowski_rms",
        "enhancement_ratio",
        "regime_classify",
        "load_scenario",
        "moddel_report",
    ),
    "oracle": (
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
    ),
    "summation": ("SummationControl", "SummationResult"),
    "units": (
        "Constants",
        "CONSTANTS",
        "length_to_natural",
        "speed_from_kinetic",
        "kinetic_from_speed",
        "charge_natural",
    ),
    "variance": (
        "Particle",
        "FluctuationResult",
        "WindowReport",
        "variance_one_plate",
        "rms_one_plate_smallv",
        "validity_window",
        "variance_two_plate_exact",
        "variance_two_plate_smallv",
    ),
}
_OWNER = {name: module for module, row in _EXPORTS.items() for name in row}

__all__ = sorted({*_OWNER, "__version__"})


def __getattr__(name: str):
    module = _OWNER.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    namespace = globals()
    for attr in _EXPORTS[module]:
        namespace[attr] = getattr(loaded, attr)
    # importing a submodule binds it here as well
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
