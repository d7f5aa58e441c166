"""Natural-unit conversions and physical constants.

Internally everything is Lorentz-Heaviside natural units with hbar = c = 1:
energies in eV, lengths and times in 1/eV, speeds dimensionless, and the
elementary charge e = sqrt(4 pi alpha). Laboratory units (nm, eV, volts)
appear only at the I/O boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_positive_finite

__all__ = [
    "Constants",
    "CONSTANTS",
    "length_to_natural",
    "natural_to_length",
    "speed_from_kinetic",
    "kinetic_from_speed",
    "charge_natural",
]


@dataclass(frozen=True)
class Constants:
    """Fixed CODATA-2018 values; frozen so golden tests are bit-stable."""

    hbar_c_eV_nm: float = 197.3269804
    alpha: float = 1.0 / 137.035999
    electron_mass_eV: float = 510998.95

    @property
    def elementary_charge_natural(self) -> float:
        """e in Lorentz-Heaviside natural units: sqrt(4 pi alpha) ~ 0.302822."""
        return math.sqrt(4.0 * math.pi * self.alpha)


CONSTANTS = Constants()


def length_to_natural(length_nm: float) -> float:
    """Convert a laboratory length in nm to natural units (1/eV)."""
    if not 0.0 < length_nm < math.inf:
        raise DomainError(f"length must be positive and finite, got {length_nm!r} nm")
    return length_nm / CONSTANTS.hbar_c_eV_nm


def natural_to_length(length_inv_eV: float) -> float:
    """Convert a natural-unit length (1/eV) back to nm."""
    if not 0.0 < length_inv_eV < math.inf:
        raise DomainError(f"length must be positive and finite, got {length_inv_eV!r} /eV")
    return length_inv_eV * CONSTANTS.hbar_c_eV_nm


def speed_from_kinetic(kinetic_eV: float, mass_eV: float) -> float:
    """Non-relativistic speed v = sqrt(2K/m) as a fraction of c.

    The analysis behind this package assumes slow motion; speeds at or above
    c are rejected rather than silently clipped.
    """
    if not 0.0 <= kinetic_eV < math.inf:
        raise DomainError(
            f"kinetic energy must be non-negative and finite, got {kinetic_eV!r} eV"
        )
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
