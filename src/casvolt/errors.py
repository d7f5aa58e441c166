"""Exception hierarchy shared by all casvolt modules, and the input checks
they share: positive and finite quantities, and lengths inside the window
the closed forms can evaluate.

The command line front end maps these onto its exit-code contract:
validation and singularity problems exit 2, convergence failures exit 3.
A failing `casvolt verify` exits 4 by its return value, not by an error.
"""
from __future__ import annotations

import math

__all__ = [
    "CasvoltError",
    "DomainError",
    "SingularityError",
    "PoleInsideDomainError",
    "ConvergenceError",
]


class CasvoltError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasvoltError, ValueError):
    """An input lies outside an operation's domain (validation failure)."""


class SingularityError(CasvoltError):
    """An evaluation point lies on (or within tolerance of) a singular locus.

    The message names the offending factor; optional attributes carry the
    numerical details so callers can perturb inputs programmatically.
    """

    def __init__(self, message: str, *, factor: float | None = None,
                 threshold: float | None = None) -> None:
        super().__init__(message)
        self.factor = factor
        self.threshold = threshold


class PoleInsideDomainError(DomainError):
    """A quadrature request whose integration square contains the singular locus.

    Carries the refusal threshold so callers know how far to shrink the segment.
    """

    def __init__(self, message: str, *, threshold: float) -> None:
        super().__init__(message)
        self.threshold = threshold


class ConvergenceError(CasvoltError):
    """A truncated sum or adaptive quadrature could not meet its tolerance."""


def check_positive_finite(label: str, value: float) -> None:
    """Raise DomainError, naming the quantity by label, unless value is
    positive and finite."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{label} must be positive and finite, got {value!r}")


# Every length, in natural units (1/eV), must lie in [_LENGTH_MIN, _LENGTH_MAX],
# and every event time within _LENGTH_MAX of zero. The kernels are inverse
# fourth powers of lengths, and their evaluations form fourth powers times
# constants: 64 v^3 (z0 (z0 + b))^2 with v > 1e-6 in the squares,
# 1e-12 (z + z')^4 in the correlators' singularity test, (pi/2a)^4 in the
# dual-plate sum and 16 pi^2 z^4 in mean_squared_field, and the two-plate
# sum at v near 1e-6 forms (a n)^4 out to image index n near 1/v. These
# leave the normal doubles [2.2e-308, 1.8e308] for lengths of one size below
# about 1e-74 or above about 1e72; short of that, scaling every length by a
# power of two scales each result by its power exactly
# (tests/test_length_window.py). The window keeps 12 decades from those
# edges; 1 fm to 1 km is 5e-9 to 5e9 1/eV.
_LENGTH_MIN = 1e-60
_LENGTH_MAX = 1e60


def check_length(label: str, value: float) -> None:
    """Raise DomainError, naming the length by label, unless value lies in
    [_LENGTH_MIN, _LENGTH_MAX]: positive, finite and within the window."""
    if not _LENGTH_MIN <= value <= _LENGTH_MAX:
        raise DomainError(
            f"{label} must be positive and finite, in [{_LENGTH_MIN:g}, {_LENGTH_MAX:g}] "
            f"1/eV, got {value!r}"
        )


def check_separation(a: float) -> None:
    """Raise DomainError unless the plate separation a is a length in the window."""
    check_length("plate separation a", a)
