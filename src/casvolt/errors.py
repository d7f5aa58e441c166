"""Exception hierarchy shared by all casvolt modules, the input checks they
share (positive and finite quantities, and lengths inside the window the
closed forms can evaluate), and the record decorator every casvolt record
class is built with.

The command line front end maps these onto its exit-code contract:
validation and singularity problems exit 2, convergence failures exit 3.
A failing `casvolt verify` exits 4 by its return value, not by an error.
"""
from __future__ import annotations

import math
import sys

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


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
# 1e-12 (z + z')^4 in the correlators' singularity test and (pi/2a)^4 in the
# dual-plate sum, and the two-plate sum at v near 1e-6 forms (a n)^4 out to
# image index n near 1/v. These leave the normal doubles [2.2e-308, 1.8e308]
# for lengths of one size below about 1e-74 or above about 1e72; short of
# that, scaling every length by a power of two scales each result by its
# power exactly (tests/test_length_window.py). The window keeps 12 decades
# from those edges; 1 fm to 1 km is 5e-9 to 5e9 1/eV.
_LENGTH_MIN = 1e-60
_LENGTH_MAX = 1e60


# The least normal double. A charged result below it has underflowed (a
# variance whose lengths' ratios leave the doubles, a lab-unit spread at
# K = 1e-320 eV) and refuses with DomainError rather than returning 0.0.
_NORMAL_MIN = sys.float_info.min


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


def record(cls):
    """Make cls a frozen record of the fields its class body annotates, in
    order; a field assigned a value in the class body takes it as its default.

    cls gets, built once here:
      - an __init__ taking the fields positionally or by keyword, which stores
        each in the instance dict and then calls cls.__post_init__, if cls
        defines one;
      - a __repr__ of the form Name(field=value, ...);
      - __eq__ and __hash__ over the tuple of field values, equal only to a
        record of the same class;
      - __setattr__ and __delattr__ that raise dataclasses.FrozenInstanceError,
        imported only then, so that no record user loads dataclasses;
      - _fields, the tuple of field names.
    Pickling and copy.copy restore the instance dict as it was stored, without
    running __init__ again.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    body = "".join(f"\n    store[{name!r}] = {name}" for name in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):\n    store = self.__dict__{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    def values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, fields))

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = init, __repr__, __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls._fields = fields
    return cls
