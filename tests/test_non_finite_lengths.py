"""Every public function that takes a plate separation, the length
conversions, the experiment layer's lengths, plasma frequencies and
voltage, and a particle's charge and mass refuse infinite and nan values
instead of returning 0.0, nan or a confident regime. The positive-and-finite
checks made with one inline comparison refuse, or accept, exactly as their
labelled checkers do."""
import math

import numpy as np
import pytest

from casvolt import (
    CONSTANTS,
    DEFAULT_SCENARIO,
    DomainError,
    ExperimentConfig,
    MaterialMirror,
    Particle,
    PathSegment,
    SpacetimePair,
    correlator_dual_plate,
    enhancement_ratio,
    length_to_natural,
    load_scenario,
    minkowski_rms,
    reflected_image_integral,
    reflected_image_kernel,
    regime_classify,
    rms_estimate_eV,
    speed_from_kinetic,
    translated_image_integral,
    translated_image_kernel,
    variance_two_plate_exact,
    variance_two_plate_smallv,
)
from casvolt.errors import _LENGTH_MAX, _LENGTH_MIN, check_positive_finite
from casvolt.images import image_pair_terms
from casvolt.oracle import (
    brute_dual_correlator,
    deriv_check,
    pole_entry_reflected,
    pole_entry_translated,
    quad_image,
    variance_two_plate_series_smallv,
)

SEG = PathSegment(z0=0.3, b=0.1, v=0.1)
ELECTRON = Particle.electron(speed=0.1)
PAIR = SpacetimePair(t=0.0, z=0.3, t_prime=0.0, z_prime=0.4)
CONFIG = {"cavity_nm": 50.0, "insulator_nm": 2.0, "electrode_nm": 8.0,
          "mirrors": (MaterialMirror("Au", 9.0, 20.0),), "applied_voltage_V": 1e-4}

SEPARATION = {
    "reflected_image_integral": lambda a: reflected_image_integral(SEG, a, 1),
    "translated_image_integral": lambda a: translated_image_integral(SEG, a, 1),
    "image_pair_terms": lambda a: image_pair_terms(SEG, a, np.arange(1.0, 5.0)),
    "reflected_image_kernel": lambda a: reflected_image_kernel(0.3, 0.4, 0.1, a, 1),
    "translated_image_kernel": lambda a: translated_image_kernel(0.3, 0.4, 0.1, a, 1),
    "correlator_dual_plate": lambda a: correlator_dual_plate(PAIR, a),
    "variance_two_plate_exact": lambda a: variance_two_plate_exact(ELECTRON, SEG, a),
    "variance_two_plate_smallv": lambda a: variance_two_plate_smallv(ELECTRON, 0.3, a),
    "variance_two_plate_series_smallv":
        lambda a: variance_two_plate_series_smallv(ELECTRON, 0.3, a),
    "quad_image": lambda a: quad_image(SEG, a, 1, "reflected"),
    "pole_entry_reflected": lambda a: pole_entry_reflected(0.3, 0.1, a, 1),
    "pole_entry_translated": lambda a: pole_entry_translated(0.1, a, 1),
    "deriv_check": lambda a: deriv_check("translation", 0.3, 0.4, 0.1, a=a, n=1),
    "brute_dual_correlator": lambda a: brute_dual_correlator(0.0, 0.3, 0.0, 0.4, a, 10),
}
LENGTH = {
    "length_to_natural": length_to_natural,
    "rms_estimate_eV": lambda z0_nm: rms_estimate_eV(1.0, z0_nm),
    "minkowski_rms": lambda a_nm: minkowski_rms(1.0, a_nm),
    "enhancement_ratio": lambda a_nm: enhancement_ratio(1.0, 10.0, a_nm),
    "MaterialMirror.plasma_frequency_eV": lambda x: MaterialMirror("Au", x, 20.0),
    "MaterialMirror.thickness_nm": lambda x: MaterialMirror("Au", 9.0, x),
    "MaterialMirror.distance_nm": lambda x: MaterialMirror("Au", 9.0, 20.0, x),
    **{f"ExperimentConfig.{field}": lambda x, field=field: ExperimentConfig(
        **dict(CONFIG, **{field: x}))
       for field in ("cavity_nm", "insulator_nm", "electrode_nm", "applied_voltage_V")},
    "regime_classify": lambda d: regime_classify(MaterialMirror("Au", 9.0, 20.0), d),
    # json.load reads Infinity and NaN as floats
    "load_scenario": lambda x: load_scenario(dict(DEFAULT_SCENARIO, cavities_nm=[x])),
    "Particle.mass_eV": lambda m: Particle(charge_e=1.0, mass_eV=m, speed=0.01),
}
CASES = ([(call, "plate separation a must be positive and finite")
          for call in SEPARATION.values()]
         + [(call, "must be positive and finite") for call in LENGTH.values()]
         + [(lambda q: Particle(charge_e=q, mass_eV=511e3, speed=0.01),
             "particle charge must be finite")])
IDS = [*SEPARATION, *LENGTH, "Particle.charge_e"]


@pytest.mark.parametrize("length", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call, message", CASES, ids=IDS)
def test_non_finite_length_raises(call, message, length):
    with pytest.raises(DomainError, match=message):
        call(length)



def _refusal(*checks):
    """The first refusal among checks, in the order a site makes them, or
    None: each check is a zero-argument call of a labelled checker, whose
    DomainError it takes, or the DomainError of a site's own message."""
    for check in checks:
        if isinstance(check, DomainError):
            return check
        try:
            check()
        except DomainError as exc:
            return exc
    return None


M_E = CONSTANTS.electron_mass_eV
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0.0, "-1": -1.0,
          "min": _LENGTH_MIN, "below_min": math.nextafter(_LENGTH_MIN, 0.0),
          "max": _LENGTH_MAX, "above_max": math.nextafter(_LENGTH_MAX, math.inf)}
# every positive-and-finite site that checks its input with one inline
# comparison: (the call at x, the checks the site makes on x, in order)
INLINE_SITES = {
    "Particle.mass_eV": (lambda x: Particle(1.0, x, None, 0.01),
                         lambda x: [lambda: check_positive_finite("particle mass", x)]),
    "Particle.mass_eV, kinetic": (
        lambda x: Particle(1.0, x, 1e-3, None),
        lambda x: [lambda: check_positive_finite("particle mass", x),
                   lambda: speed_from_kinetic(1e-3, x)]),
    "Particle.kinetic_energy_eV": (
        lambda x: Particle(1.0, M_E, x, None),
        lambda x: [lambda: speed_from_kinetic(x, M_E)] if x > 0.0 else [
            DomainError(f"kinetic energy must be positive, got {x!r}")]),
    "Particle.speed": (
        lambda x: Particle(1.0, M_E, None, x),
        lambda x: [] if 0.0 < x < 1.0 else [
            DomainError(f"speed must lie in (0, 1), got {x!r}")]),
    "MaterialMirror.plasma_frequency_eV": (
        lambda x: MaterialMirror("Au", x, 20.0, 2.0),
        lambda x: [lambda: check_positive_finite("plasma frequency", x)]),
    "MaterialMirror.thickness_nm": (
        lambda x: MaterialMirror("Au", 9.0, x, None),
        lambda x: [lambda: check_positive_finite("thickness", x)]),
    "MaterialMirror.distance_nm": (
        lambda x: MaterialMirror("Au", 9.0, 20.0, x),
        lambda x: [lambda: check_positive_finite("distance", x)]),
    "MaterialMirror, frequency before distance": (
        lambda x: MaterialMirror("Au", x, 20.0, -x),
        lambda x: [lambda: check_positive_finite("plasma frequency", x),
                   lambda: check_positive_finite("distance", -x)]),
    "regime_classify.distance_nm": (
        lambda x: regime_classify(MaterialMirror("Au", 9.0, 20.0), x),
        lambda x: [lambda: check_positive_finite("distance", x)]),
    "rms_estimate_eV.kinetic_eV": (
        lambda x: rms_estimate_eV(x, 100.0),
        lambda x: [lambda: check_positive_finite("kinetic energy", x),
                   lambda: speed_from_kinetic(x, M_E)]),
    "speed_from_kinetic.mass_eV": (
        lambda x: speed_from_kinetic(1e-300, x),
        lambda x: [lambda: check_positive_finite("mass", x)]),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
@pytest.mark.parametrize("call, checks", INLINE_SITES.values(), ids=INLINE_SITES)
def test_inline_checks_refuse_as_their_checkers(call, checks, value):
    # each site tests its input with one comparison and calls the labelled
    # checker only to raise: it refuses with the checker's class and message,
    # or accepts, exactly where the checker does
    expected = _refusal(*checks(value))
    if expected is None:
        call(value)
        return
    with pytest.raises(DomainError) as excinfo:
        call(value)
    assert type(excinfo.value) is type(expected)
    assert str(excinfo.value) == str(expected)


@pytest.mark.parametrize("kinetic, speed", [(None, None), (1.0, 0.01), (math.nan, math.nan)],
                         ids=["neither", "both", "both-nan"])
def test_particle_takes_exactly_one_of_kinetic_energy_or_speed(kinetic, speed):
    with pytest.raises(DomainError) as excinfo:
        Particle(1.0, M_E, kinetic, speed)
    assert str(excinfo.value) == (
        "exactly one of kinetic_energy_eV or speed must be given, "
        f"got kinetic_energy_eV={kinetic!r}, speed={speed!r}")


def test_material_mirror_without_a_distance_is_accepted():
    assert MaterialMirror("Au", 9.0, 20.0).distance_nm is None
    assert MaterialMirror("Au", 9.0, 20.0, None) == MaterialMirror("Au", 9.0, 20.0)
