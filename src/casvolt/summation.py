"""Truncation control, truncated-sum results and the Hurwitz zeta function.

The two-plate quantities are sums over image index n = ..., -2, -1, 1, 2, ...
(n = 0 excluded), taken in symmetric +n/-n pairs. Each sum lives next to
its quantity and follows one pattern: a head of pairs summed term by term
and, beyond it, a tail whose leading asymptotics are added in closed form
through Hurwitz zeta values, with a rigorous bound on what is left.
variance._two_plate_sum stops at the first pair whose bound falls below
SummationControl.tol of the running total; correlators.correlator_dual_plate
picks its head length from the geometry and sums the tail to all orders.
Both report a SummationResult.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

from .errors import DomainError

__all__ = ["SummationControl", "SummationResult", "hurwitz_zeta"]

# Least argument x that hurwitz_zeta accepts; a subtracted tail built from
# zeta(s, N + 1) needs N + 1 >= this.
_ZETA_X_MIN = 16


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SummationResult:
    """A truncated image sum.

    tail_estimate bounds the truncation error of value: the dropped pair
    terms minus the tail added in closed form.
    """

    value: float
    terms_used: int       # largest |n| summed term by term (both sums add
                          # every |n| beyond it analytically)
    tail_estimate: float  # certified bound on the truncation error of value


# B_2, B_4, ..., B_20 as (numerator, denominator): enough Euler-Maclaurin
# terms for double precision at x >= 16
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330),
)


@lru_cache(maxsize=None)
def _euler_maclaurin_coefficients(s: int) -> tuple[float, ...]:
    """B_2k / (2k)! * s (s+1) ... (s+2k-2) for k = 1, ..., len(_BERNOULLI),
    each rounded once from exact integer arithmetic."""
    return tuple(
        num * math.prod(range(s, s + 2 * k - 1)) / (den * math.factorial(2 * k))
        for k, (num, den) in enumerate(_BERNOULLI, start=1)
    )


def hurwitz_zeta(s: int, x: float) -> float:
    """Hurwitz zeta(s, x) = sum_{k>=0} (x + k)^-s for an integer s >= 2 and x >= 16.

    Euler-Maclaurin summation from k = 0 (DLMF 25.11.5 with N = 0, 2.10.1):
    x^(1-s)/(s-1) + x^-s/2 + sum_k B_2k/(2k)! (s)_(2k-1) x^(1-s-2k), with
    ten Bernoulli terms. For real x the remainder is smaller than the first
    omitted term: below 1e-17 relative for s <= 8 and below 8e-14 for
    s <= 16 at x >= 16. Against 60-digit mpmath the result is within 2.5e-16
    relative for s <= 10 and 4.4e-14 at s = 16, the highest order the
    dual-plate correlator requests.
    """
    if s < 2 or not x >= _ZETA_X_MIN:
        raise DomainError(f"hurwitz_zeta needs s >= 2 and x >= 16, got s={s!r}, x={x!r}")
    inv_sq = 1.0 / (x * x)
    series = 0.0
    for coefficient in reversed(_euler_maclaurin_coefficients(s)):
        series = series * inv_sq + coefficient
    return x**-s * (x / (s - 1) + 0.5 + series / x)
