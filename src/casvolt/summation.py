"""Image-sum control and results.

SummationControl sets an image sum's relative tolerance and its budget of
image pairs; a sum that cannot certify within them raises ConvergenceError.
SummationResult reports a sum: its value, the image index it summed to term
by term and a certified bound on what truncation left out. The two-plate
variance's image sum (variance._two_plate_sum, which forms its analytic
Hurwitz zeta tail there too) takes the one and returns the other; the
dual-plate correlator returns one too, dropping no image: terms_used = 1
and tail_estimate = 0.0.
"""
from __future__ import annotations

from numbers import Integral

from . import _EXPORTS
from .errors import DomainError, record

__all__ = list(_EXPORTS["summation"])


@record
class SummationControl:
    """Relative truncation tolerance and the hard cap on the image index.

    n_max must be an integer; bools and floats, even integral or infinite
    ones, are refused.
    """

    tol: float = 1e-10
    n_max: int = 10**6

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise DomainError(f"tol must lie in (0, 1), got {self.tol!r}")
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, Integral) or self.n_max < 1:
            raise DomainError(f"n_max must be an integer >= 1, got {self.n_max!r}")


@record
class SummationResult:
    """An image sum, truncated or whole.

    tail_estimate bounds the truncation error of value: the dropped pair
    terms minus the tail added in closed form, or 0.0 where no image is
    dropped.
    """

    value: float
    terms_used: int       # the two-plate variance: the largest |n| summed
                          # term by term, every |n| beyond it added
                          # analytically; the dual-plate correlator: 1, the
                          # one image summed apart, the rest in closed form
    tail_estimate: float  # certified bound on the truncation error of value
                          # (0.0 where nothing is truncated)

