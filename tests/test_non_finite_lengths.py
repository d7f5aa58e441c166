"""Every public function that takes a plate separation, the length
conversions, the experiment layer's lengths, plasma frequencies and
voltage, and a particle's charge and mass refuse infinite and nan values
instead of returning 0.0, nan or a confident regime."""
import math

import numpy as np
import pytest

from casvolt import (
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
    translated_image_integral,
    translated_image_kernel,
    variance_two_plate_exact,
    variance_two_plate_smallv,
)
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

