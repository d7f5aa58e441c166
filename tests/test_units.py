"""Unit conversions and physical constants."""
import copy
import dataclasses
import math
import pickle

import pytest

from casvolt import (
    CONSTANTS,
    Constants,
    DomainError,
    charge_natural,
    kinetic_from_speed,
    length_to_natural,
    speed_from_kinetic,
)


def test_constants_values():
    assert CONSTANTS.hbar_c_eV_nm == 197.3269804
    assert CONSTANTS.alpha == pytest.approx(1.0 / 137.035999, rel=1e-15, abs=0.0)
    assert CONSTANTS.electron_mass_eV == 510998.95


def test_constants_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.hbar_c_eV_nm = 1.0


def test_length_conversion_round_trip():
    for nm in (0.1, 1.0, 33.0, 100.0, 1100.0):
        nat = length_to_natural(nm)
        assert nat * CONSTANTS.hbar_c_eV_nm == pytest.approx(nm, rel=1e-15, abs=0.0)


def test_length_of_one_hbar_c_is_unity():
    assert length_to_natural(197.3269804) == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_length_to_natural_100nm():
    # 100 nm / (197.3269804 eV nm) = 0.50677 1/eV
    assert length_to_natural(100.0) == pytest.approx(0.5067730717679395, rel=1e-11, abs=0.0)


def test_length_rejects_nonpositive():
    with pytest.raises(DomainError):
        length_to_natural(0.0)
    with pytest.raises(DomainError):
        length_to_natural(-1.0)


def test_speed_from_kinetic_electron_1ev():
    # v = sqrt(2 K / m) = sqrt(2 / 510998.95)
    v = speed_from_kinetic(1.0, 510998.95)
    assert v == pytest.approx(1.9783585e-3, rel=1e-7, abs=0.0)
    assert kinetic_from_speed(v, 510998.95) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_speed_rejects_relativistic_and_bad_inputs():
    with pytest.raises(DomainError):
        speed_from_kinetic(510998.95, 510998.95)  # v would exceed 1
    with pytest.raises(DomainError):
        speed_from_kinetic(-1.0, 510998.95)
    with pytest.raises(DomainError):
        speed_from_kinetic(1.0, 0.0)
    with pytest.raises(DomainError):
        kinetic_from_speed(1.0, 510998.95)


@pytest.mark.parametrize("kinetic, mass", [
    (1.0, math.inf), (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (math.inf, math.inf),
    (math.nan, math.nan), (1.0, -math.inf),
])
def test_speed_from_kinetic_rejects_non_finite(kinetic, mass):
    with pytest.raises(DomainError):
        speed_from_kinetic(kinetic, mass)


@pytest.mark.parametrize("speed, mass", [
    (0.5, math.inf), (0.5, math.nan), (math.nan, 510998.95), (0.5, -math.inf),
])
def test_kinetic_from_speed_rejects_non_finite(speed, mass):
    with pytest.raises(DomainError):
        kinetic_from_speed(speed, mass)


def test_elementary_charge_natural():
    # e = sqrt(4 pi alpha) in Heaviside-Lorentz natural units
    expected = math.sqrt(4.0 * math.pi / 137.035999)
    assert CONSTANTS.elementary_charge_natural == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert CONSTANTS.elementary_charge_natural == pytest.approx(
        0.302822120965, rel=1e-11, abs=0.0
    )


def test_elementary_charge_natural_is_computed_once_and_stays_frozen():
    # read once and kept outside the fields: the same float as the formula,
    # no assignment, and a copy that has read it still equals CONSTANTS
    fresh = Constants()
    assert "elementary_charge_natural" not in vars(fresh)
    e = fresh.elementary_charge_natural
    assert e.hex() == math.sqrt(4.0 * math.pi * fresh.alpha).hex()
    assert fresh.elementary_charge_natural is e
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.elementary_charge_natural = 1.0
    assert fresh.elementary_charge_natural is e
    for clone in (copy.copy(fresh), pickle.loads(pickle.dumps(fresh))):
        assert clone == CONSTANTS and hash(clone) == hash(CONSTANTS)
        assert repr(clone) == repr(CONSTANTS)
        assert clone.elementary_charge_natural == CONSTANTS.elementary_charge_natural


def test_charge_natural_scales_linearly():
    assert charge_natural(2.0) == pytest.approx(
        2.0 * CONSTANTS.elementary_charge_natural, rel=1e-15, abs=0.0
    )
    assert charge_natural(0.0) == 0.0
    assert charge_natural(-1.0) == pytest.approx(
        -CONSTANTS.elementary_charge_natural, rel=1e-15, abs=0.0
    )
