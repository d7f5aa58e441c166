"""Natural-unit conversions and physical constants.

Internally everything is Lorentz-Heaviside natural units with hbar = c = 1:
energies in eV, lengths and times in 1/eV, speeds dimensionless, and the
elementary charge e = sqrt(4 pi alpha). Laboratory units (nm, eV, volts)
appear only at the I/O boundary.
"""
from __future__ import annotations

import math
from functools import cached_property

from . import _EXPORTS
from .errors import _LENGTH_MAX, _LENGTH_MIN, DomainError, check_positive_finite, record

__all__ = list(_EXPORTS["units"])


@record
class Constants:
    """Fixed CODATA-2018 values; frozen so golden tests are bit-stable.

    elementary_charge_natural is computed on its first read and kept in the
    instance dict, outside the fields, so eq, hash and repr do not see it."""

    hbar_c_eV_nm: float = 197.3269804
    alpha: float = 1.0 / 137.035999
    electron_mass_eV: float = 510998.95

    @cached_property
    def elementary_charge_natural(self) -> float:
        """e in Lorentz-Heaviside natural units: sqrt(4 pi alpha) ~ 0.302822."""
        return math.sqrt(4.0 * math.pi * self.alpha)


CONSTANTS = Constants()


def length_to_natural(length_nm: float) -> float:
    """Convert a laboratory length in nm to natural units (1/eV), refusing
    one whose natural value leaves errors' length window."""
    natural = length_nm / CONSTANTS.hbar_c_eV_nm
    if not _LENGTH_MIN <= natural <= _LENGTH_MAX:
        raise DomainError(
            f"length must be positive and finite, in [{_LENGTH_MIN * CONSTANTS.hbar_c_eV_nm:g}, "
            f"{_LENGTH_MAX * CONSTANTS.hbar_c_eV_nm:g}] nm, got {length_nm!r} nm"
        )
    return natural


def speed_from_kinetic(kinetic_eV: float, mass_eV: float) -> float:
    """Non-relativistic speed v = sqrt(2K/m) as a fraction of c.

    The analysis behind this package assumes slow motion; speeds at or above
    c are rejected rather than silently clipped.
    """
    if not 0.0 <= kinetic_eV < math.inf:
        raise DomainError(
            f"kinetic energy must be non-negative and finite, got {kinetic_eV!r} eV"
        )
    if not 0.0 < mass_eV < math.inf:
        check_positive_finite("mass", mass_eV)
    v = math.sqrt(2.0 * kinetic_eV / mass_eV)
    if v >= 1.0:
        raise DomainError(
            f"speed {v:.6g} >= 1: the non-relativistic formula v = sqrt(2K/m) is invalid here"
        )
    return v


def kinetic_from_speed(speed: float, mass_eV: float) -> float:
    """Kinetic energy K = m v^2 / 2 in eV for a dimensionless speed."""
    if not 0.0 <= speed < 1.0:
        raise DomainError(f"speed must lie in [0, 1), got {speed!r}")
    check_positive_finite("mass", mass_eV)
    return 0.5 * mass_eV * speed * speed


def charge_natural(charge_e: float) -> float:
    """Charge in natural units for a charge given in elementary-charge units."""
    return charge_e * CONSTANTS.elementary_charge_natural
