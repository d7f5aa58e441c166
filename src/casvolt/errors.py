"""Exception hierarchy shared by all casvolt modules, and the positive-and-
finite checks they share.

The command line front end maps these onto its exit-code contract:
validation and singularity problems exit 2, convergence failures exit 3.
A failing `casvolt verify` exits 4 by its return value, not by an error.
"""
from __future__ import annotations

import math


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


def check_separation(a: float) -> None:
    """Raise DomainError unless the plate separation a is positive and finite."""
    check_positive_finite("plate separation a", a)
