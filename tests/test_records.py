"""The record contract, for every record class casvolt defines.

A record is frozen: assignment and deletion raise
dataclasses.FrozenInstanceError. It equals, and hashes like, a record of the
same class with the same field values. It takes its fields positionally or
by keyword, with the defaults below, and validates them in __post_init__.
It survives pickle and copy.copy, and its repr is pinned."""
import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from casvolt import (
    CONSTANTS,
    Constants,
    CscSeriesComparison,
    DerivativeReport,
    DomainError,
    EnhancementRatio,
    ExperimentConfig,
    FluctuationResult,
    MaterialMirror,
    ModdelRow,
    Particle,
    PathSegment,
    QuadratureResult,
    RegimeReport,
    SpacetimePair,
    SummationControl,
    SummationResult,
    VerificationReport,
    WindowReport,
    correlator_dual_plate,
    regime_classify,
    rms_one_plate_smallv,
    validity_window,
    variance_one_plate,
    variance_two_plate_exact,
    variance_two_plate_smallv,
)
from casvolt.oracle import CheckResult
from casvolt.variance import _REFERENCE_FLOOR

M_E = CONSTANTS.electron_mass_eV
MIRROR = MaterialMirror("Au", 9.0, 20.0)
# class: (fields of one record, the defaults the class declares, its repr)
RECORDS = {
    Constants: (
        dict(hbar_c_eV_nm=197.3269804, alpha=1.0 / 137.035999, electron_mass_eV=510998.95),
        dict(hbar_c_eV_nm=197.3269804, alpha=0.007297352573756914, electron_mass_eV=510998.95),
        "Constants(hbar_c_eV_nm=197.3269804, alpha=0.007297352573756914, "
        "electron_mass_eV=510998.95)"),
    PathSegment: (
        dict(z0=0.3, b=0.1, v=0.01), {},
        "PathSegment(z0=0.3, b=0.1, v=0.01)"),
    SpacetimePair: (
        dict(t=0.2, z=0.3, t_prime=-0.1, z_prime=0.4), {},
        "SpacetimePair(t=0.2, z=0.3, t_prime=-0.1, z_prime=0.4)"),
    MaterialMirror: (
        dict(name="Pd", plasma_frequency_eV=7.0, thickness_nm=10.0, distance_nm=2.3),
        dict(distance_nm=None),
        "MaterialMirror(name='Pd', plasma_frequency_eV=7.0, thickness_nm=10.0, "
        "distance_nm=2.3)"),
    ExperimentConfig: (
        dict(cavity_nm=33.0, insulator_nm=2.3, electrode_nm=8.3, mirrors=(MIRROR,),
             applied_voltage_V=1e-4), {},
        "ExperimentConfig(cavity_nm=33.0, insulator_nm=2.3, electrode_nm=8.3, "
        "mirrors=(MaterialMirror(name='Au', plasma_frequency_eV=9.0, thickness_nm=20.0, "
        "distance_nm=None),), applied_voltage_V=0.0001)"),
    EnhancementRatio: (
        dict(formula_value=2.0, quotient_value=1.4142135623730951), {},
        "EnhancementRatio(formula_value=2.0, quotient_value=1.4142135623730951)"),
    RegimeReport: (
        dict(regime="partial", omega_p_distance=0.5, omega_p_thickness=0.9), {},
        "RegimeReport(regime='partial', omega_p_distance=0.5, omega_p_thickness=0.9)"),
    ModdelRow: (
        dict(cavity_nm=33.0, kinetic_energy_eV=1e-4, rms_energy_eV=2.5e-6,
             rms_over_kinetic=0.025, mirror_regimes=(("Au", "partial"),),
             skin_depths_nm=(("Au", 21.92),)), {},
        "ModdelRow(cavity_nm=33.0, kinetic_energy_eV=0.0001, rms_energy_eV=2.5e-06, "
        "rms_over_kinetic=0.025, mirror_regimes=(('Au', 'partial'),), "
        "skin_depths_nm=(('Au', 21.92),))"),
    SummationControl: (
        dict(tol=1e-8, n_max=5000), dict(tol=1e-10, n_max=10**6),
        "SummationControl(tol=1e-08, n_max=5000)"),
    SummationResult: (
        dict(value=1.5, terms_used=22, tail_estimate=1e-16), {},
        "SummationResult(value=1.5, terms_used=22, tail_estimate=1e-16)"),
    Particle: (
        dict(charge_e=-1.0, mass_eV=M_E, kinetic_energy_eV=None, speed=0.01),
        dict(kinetic_energy_eV=None, speed=None),
        "Particle(charge_e=-1.0, mass_eV=510998.95, kinetic_energy_eV=None, speed=0.01)"),
    FluctuationResult: (
        dict(variance_eV2=4e-6, rms_energy_eV=2e-3, rms_voltage_V=2e-3,
             regime=("exact", "two_plate"), terms_used=22, tail_estimate_eV2=1e-20),
        dict(terms_used=0, tail_estimate_eV2=0.0),
        "FluctuationResult(variance_eV2=4e-06, rms_energy_eV=0.002, rms_voltage_V=0.002, "
        "regime=('exact', 'two_plate'), terms_used=22, tail_estimate_eV2=1e-20)"),
    WindowReport: (
        dict(b=0.1, lower_bound=0.0034641016151377548, upper_bound=0.3,
             pole_entry=0.006060606060606061, inside=True, below_window=False), {},
        "WindowReport(b=0.1, lower_bound=0.0034641016151377548, upper_bound=0.3, "
        "pole_entry=0.006060606060606061, inside=True, below_window=False)"),
    QuadratureResult: (
        dict(value=1.25, error_estimate=1e-12, subdivisions=4), {},
        "QuadratureResult(value=1.25, error_estimate=1e-12, subdivisions=4)"),
    DerivativeReport: (
        dict(converged=True, relative_error=1e-9, observed_order=2.0, extrapolated=-3.5,
             reference=-3.5, message="ok"),
        dict(message=""),
        "DerivativeReport(converged=True, relative_error=1e-09, observed_order=2.0, "
        "extrapolated=-3.5, reference=-3.5, message='ok')"),
    CscSeriesComparison: (
        dict(series_value=9.86, closed_form=9.87, tail_bound=2e-4, terms=10000), {},
        "CscSeriesComparison(series_value=9.86, closed_form=9.87, tail_bound=0.0002, "
        "terms=10000)"),
    CheckResult: (
        dict(name="quad_one_plate_vs_closed", passed=True, worst=1e-12,
             detail="worst relative deviation 1.000e-12"), {},
        "CheckResult(name='quad_one_plate_vs_closed', passed=True, worst=1e-12, "
        "detail='worst relative deviation 1.000e-12')"),
    VerificationReport: (
        dict(seed=12345, elapsed_s=0.5,
             checks=(CheckResult("c", False, math.inf, "d"),)), {},
        "VerificationReport(seed=12345, elapsed_s=0.5, "
        "checks=(CheckResult(name='c', passed=False, worst=inf, detail='d'),))"),
}
IDS = [cls.__name__ for cls in RECORDS]


def test_the_table_names_every_record_class():
    from importlib import import_module

    modules = [import_module(f"casvolt.{name}") for name in (
        "closed_forms", "correlators", "errors", "experiment", "oracle", "summation", "units",
        "variance")]
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and value.__module__ == module.__name__
             and "_fields" in vars(value)}
    assert found == set(RECORDS)


def _record(cls):
    fields, _, _ = RECORDS[cls]
    return cls(**fields)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_are_frozen(cls):
    record = _record(cls)
    name = next(iter(RECORDS[cls][0]))
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        record.extra = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert record == _record(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(cls):
    fields, _, _ = RECORDS[cls]
    record = _record(cls)
    assert record == cls(**fields) and not record != cls(**fields)
    assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
    # a tuple of the same values, or a subclass instance with them, differs
    assert record != tuple(fields.values())
    subclass = type("Sub", (cls,), {})
    assert record != subclass(**fields) and subclass(**fields) != record
    assert record != object()


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    fields, defaults, _ = RECORDS[cls]
    assert cls(*fields.values()) == cls(**fields)
    assert [getattr(cls(*fields.values()), name) for name in fields] == list(fields.values())
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(fields) == list(cls._fields)
    assert {name: p.default for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == defaults
    for name, default in defaults.items():
        if cls is Particle and name == "speed":
            continue  # a Particle needs one of its two defaulted fields
        omitted = {key: value for key, value in fields.items() if key != name}
        assert cls(**omitted) == cls(**omitted, **{name: default})


def test_positional_defaults_apply():
    assert Particle(1.0, M_E, 2.0) == Particle(1.0, M_E, 2.0, None)
    assert MaterialMirror("Au", 9.0, 20.0) == MaterialMirror("Au", 9.0, 20.0, None)
    assert Constants() == CONSTANTS


def test_missing_and_unknown_arguments_raise_type_error():
    with pytest.raises(TypeError, match="PathSegment.__init__.. missing 1 required"):
        PathSegment(0.3, 0.1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'w'"):
        PathSegment(0.3, 0.1, 0.01, w=1.0)
    with pytest.raises(TypeError, match="multiple values for argument 'z0'"):
        PathSegment(0.3, 0.1, 0.01, z0=0.3)


# every __post_init__ refusal, with the message it gives
REFUSALS = [
    (PathSegment, dict(z0=0.0, b=0.1, v=0.01),
     "segment start z0 must be positive and finite, in [1e-60, 1e+60] 1/eV, got 0.0"),
    (PathSegment, dict(z0=0.3, b=1e61, v=0.01),
     "segment length b must be positive and finite, in [1e-60, 1e+60] 1/eV, got 1e+61"),
    (PathSegment, dict(z0=0.3, b=0.1, v=1.0), "speed v must lie in (0, 1), got 1.0"),
    (SpacetimePair, dict(t=math.inf, z=0.3, t_prime=0.0, z_prime=0.4),
     "event times must be finite, within 1e+60 1/eV of zero, got t=inf, t'=0.0"),
    (SpacetimePair, dict(t=0.0, z=-0.3, t_prime=0.0, z_prime=0.4),
     "evaluation point z must be positive and finite, in [1e-60, 1e+60] 1/eV, got -0.3"),
    (SpacetimePair, dict(t=0.0, z=0.3, t_prime=0.0, z_prime=math.nan),
     "evaluation point z' must be positive and finite, in [1e-60, 1e+60] 1/eV, got nan"),
    (MaterialMirror, dict(name="Au", plasma_frequency_eV=0.0, thickness_nm=20.0),
     "plasma frequency must be positive and finite, got 0.0"),
    (MaterialMirror, dict(name="Au", plasma_frequency_eV=9.0, thickness_nm=math.inf),
     "thickness must be positive and finite, got inf"),
    (MaterialMirror, dict(name="Au", plasma_frequency_eV=9.0, thickness_nm=20.0,
                          distance_nm=-1.0),
     "distance must be positive and finite, got -1.0"),
    (ExperimentConfig, dict(cavity_nm=math.nan, insulator_nm=2.3, electrode_nm=8.3,
                            mirrors=(MIRROR,), applied_voltage_V=1e-4),
     "cavity_nm must be positive and finite, got nan"),
    (ExperimentConfig, dict(cavity_nm=33.0, insulator_nm=2.3, electrode_nm=8.3,
                            mirrors=(MIRROR,), applied_voltage_V=0.0),
     "applied_voltage_V must be positive and finite, got 0.0"),
    (ExperimentConfig, dict(cavity_nm=33.0, insulator_nm=2.3, electrode_nm=8.3, mirrors=(),
                            applied_voltage_V=1e-4),
     "at least one mirror layer is required"),
    (SummationControl, dict(tol=1.0), "tol must lie in (0, 1), got 1.0"),
    (SummationControl, dict(n_max=True), "n_max must be an integer >= 1, got True"),
    (SummationControl, dict(n_max=40.5), "n_max must be an integer >= 1, got 40.5"),
    (Particle, dict(charge_e=math.nan, mass_eV=M_E, speed=0.01),
     "particle charge must be finite, got nan"),
    (Particle, dict(charge_e=1.0, mass_eV=-M_E, speed=0.01),
     "particle mass must be positive and finite, got -510998.95"),
    (Particle, dict(charge_e=1.0, mass_eV=M_E),
     "exactly one of kinetic_energy_eV or speed must be given, "
     "got kinetic_energy_eV=None, speed=None"),
    (Particle, dict(charge_e=1.0, mass_eV=M_E, kinetic_energy_eV=1.0, speed=0.01),
     "exactly one of kinetic_energy_eV or speed must be given, "
     "got kinetic_energy_eV=1.0, speed=0.01"),
    (Particle, dict(charge_e=1.0, mass_eV=M_E, speed=1.0), "speed must lie in (0, 1), got 1.0"),
    (Particle, dict(charge_e=1.0, mass_eV=M_E, kinetic_energy_eV=0.0),
     "kinetic energy must be positive, got 0.0"),
    (Particle, dict(charge_e=1.0, mass_eV=M_E, kinetic_energy_eV=1e6),
     "speed 1.97836 >= 1: the non-relativistic formula v = sqrt(2K/m) is invalid here"),
]


@pytest.mark.parametrize("cls, fields, message", REFUSALS,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(REFUSALS)])
def test_post_init_refusals_raise_as_before(cls, fields, message):
    with pytest.raises(DomainError) as excinfo:
        cls(**fields)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(cls):
    record = _record(cls)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, cls._fields[0], None)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_is_pinned(cls):
    assert repr(_record(cls)) == RECORDS[cls][2]


def test_verification_report_dict_lists_check_fields():
    report = VerificationReport(7, 0.25, (CheckResult("a", True, 0.5, "b"),))
    assert report.to_dict() == {
        "seed": 7, "passed": True, "elapsed_s": 0.25,
        "checks": [{"name": "a", "passed": True, "worst": 0.5, "detail": "b"}],
    }


# The package builds these records positionally; each field is checked by
# name against its definition, with values that differ field from field, so
# that two swapped arguments cannot pass. At charge 2 e the rms energy and
# the rms voltage differ, where at 1 e they are equal.
SEG = PathSegment(z0=0.3, b=0.1, v=0.01)
# name: (the variance of a particle, its leading regime flags)
VARIANCES = {
    "variance_one_plate": (lambda p: variance_one_plate(p, SEG), ("exact", "one_plate")),
    "rms_one_plate_smallv": (lambda p: rms_one_plate_smallv(p, SEG.z0), ("small_v", "one_plate")),
    "variance_two_plate_exact": (lambda p: variance_two_plate_exact(p, SEG, 1.0),
                                 ("exact", "two_plate")),
    "variance_two_plate_smallv": (lambda p: variance_two_plate_smallv(p, SEG.z0, 1.0),
                                  ("small_v", "two_plate")),
}


@pytest.mark.parametrize("name", VARIANCES)
def test_variance_results_carry_each_field_by_name(name):
    variance, regime = VARIANCES[name]
    result = variance(Particle(2.0, M_E, speed=SEG.v))
    assert 0.0 < result.variance_eV2 < 1.0
    assert result.rms_energy_eV == math.sqrt(result.variance_eV2)
    assert result.rms_voltage_V == result.rms_energy_eV / 2.0
    assert result.regime[:2] == regime
    assert type(result.terms_used) is int and type(result.tail_estimate_eV2) is float
    if name == "variance_two_plate_exact":
        assert result.terms_used >= _REFERENCE_FLOOR
        assert 0.0 < result.tail_estimate_eV2 <= 1e-10 * result.variance_eV2
    else:
        assert (result.terms_used, result.tail_estimate_eV2) == (0, 0.0)


def test_particle_electron_carries_each_field_by_name():
    by_speed = Particle.electron(speed=0.01)
    assert (by_speed.charge_e, by_speed.mass_eV) == (1.0, M_E)
    assert (by_speed.kinetic_energy_eV, by_speed.speed) == (None, 0.01)
    by_energy = Particle.electron(kinetic_energy_eV=2.0)
    assert (by_energy.kinetic_energy_eV, by_energy.speed) == (2.0, None)


@pytest.mark.parametrize("b", [0.1, 1e-3], ids=["inside", "below"])
def test_validity_window_carries_each_field_by_name(b):
    z0, v = 0.3, 0.01
    window = validity_window(PathSegment(z0=z0, b=b, v=v))
    lower = 2.0 * v * z0 / math.sqrt(3.0)
    assert window.b == b
    assert window.lower_bound == lower
    assert window.upper_bound == z0
    assert window.pole_entry == 2.0 * v * z0 / (1.0 - v)
    assert window.inside is (b == 0.1) and window.below_window is (b == 1e-3)


def test_regime_classify_carries_each_field_by_name():
    report = regime_classify(MaterialMirror("Al", 15.0, 150.0), 2.3)
    hbar_c = CONSTANTS.hbar_c_eV_nm
    assert report.regime == "partial"
    assert report.omega_p_distance == 15.0 * 2.3 / hbar_c
    assert report.omega_p_thickness == 15.0 * 150.0 / hbar_c


def test_correlator_dual_plate_carries_each_field_by_name():
    result = correlator_dual_plate(SpacetimePair(t=0.2, z=0.3, t_prime=0.0, z_prime=0.4), 1.0)
    assert type(result.value) is float and result.value > 0.0
    assert type(result.terms_used) is int and result.terms_used == 1
    assert type(result.tail_estimate) is float and result.tail_estimate == 0.0
