"""Renormalized electric-field correlators near one or two reflecting plates.

The boundary-induced part of <E_z E_z> at equal transverse position is built
from mirror images: a single plate at z=0 contributes the reflected image at
-z', and a second plate at z=a adds the doubly periodic image families at
separations z -+ z' - 2an. All quantities are natural units (eV^4 values,
1/eV coordinates). The correlators are positive everywhere they are defined:
reflecting boundaries enhance the longitudinal field fluctuations.
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .errors import (
    _LENGTH_MAX,
    _LENGTH_MIN,
    DomainError,
    SingularityError,
    check_length,
    check_separation,
    record,
)
from .summation import SummationResult

__all__ = list(_EXPORTS["correlators"])

# a denominator (difference of squares, then squared) counts as singular when
# it falls below this relative fraction of its scale to the fourth power
_SINGULAR_EPS = 1e-12
# sum over n != 0 of 1/(d^2 - (c - 2an)^2)^2 where |c| + |d| < 2a, as
# (node, weight): weight times the terms at n = +-node. |n| = 1, 2 are the
# images; the rest are the 4-point Gauss rule, in t = 1/n^2, of the measure
# sum_{n >= 3} 2 n^-4 delta(t - 1/n^2) (node t^-1/2, weight w t^-2 / 2). The
# rule's sum is within 6.2e-17 relative of the exact one as |c| + |d| -> 2a
# (tests/test_dual_plate_accuracy.py rebuilds it).
_IMAGE_RULE = (
    (1.0, 1.0),
    (2.0, 1.0),
    (3.00005240871634, 1.0004492031052405),
    (4.025038697955041, 1.1064317587406516),
    (5.573545283088666, 2.3409784194468224),
    (10.489686822713129, 10.067607876724928),
)


@record
class SpacetimePair:
    """Two evaluation events (t, z) and (t', z') at equal transverse position:
    z and z' above the plate at z = 0, each a length in errors' window, and
    t and t' within the window's upper edge of zero."""

    t: float
    z: float
    t_prime: float
    z_prime: float

    def __post_init__(self) -> None:
        if not (abs(self.t) <= _LENGTH_MAX and abs(self.t_prime) <= _LENGTH_MAX):
            raise DomainError(
                f"event times must be finite, within {_LENGTH_MAX:g} 1/eV of zero, "
                f"got t={self.t!r}, t'={self.t_prime!r}"
            )
        # one comparison on the way through; the labelled checks only raise
        z, z_prime = self.z, self.z_prime
        if not (_LENGTH_MIN <= z <= _LENGTH_MAX and _LENGTH_MIN <= z_prime <= _LENGTH_MAX):
            check_length("evaluation point z", z)
            check_length("evaluation point z'", z_prime)


def _singular(dt: float, separation: float, description: str) -> SingularityError:
    """The refusal of a light-like term, naming it and its factor."""
    factor = (dt - separation) * (dt + separation)
    scale = max(abs(dt), abs(separation))
    return SingularityError(
        f"singular correlator configuration: (t-t')^2 ~ {description}^2 "
        f"(factor {factor:.3e} with scale {scale:.3e})",
        factor=factor,
    )


def _inverse_square_factor(dt: float, separation: float, description: str) -> float:
    """1/(dt^2 - separation^2)^2 with relative singularity detection.

    The squared denominator is compared against eps * scale^4 with
    scale = max(|dt|, |separation|), so detection stays relative at any
    overall distance scale.
    """
    factor = (dt - separation) * (dt + separation)
    scale = max(abs(dt), abs(separation))
    denom = factor * factor
    if denom < _SINGULAR_EPS * scale**4:
        raise _singular(dt, separation, description)
    return 1.0 / denom


def correlator_single_plate(pair: SpacetimePair) -> float:
    """Renormalized <E_z E_z> for one plate: 1/(pi^2 [(t-t')^2 - (z+z')^2]^2)."""
    dt = pair.t - pair.t_prime
    return _inverse_square_factor(dt, pair.z + pair.z_prime, "(z+z')") / math.pi**2


def _raise_at_light_like_image(dt: float, dz: float, sz: float, a: float) -> None:
    """Raise SingularityError if an image c - 2an, c = z -+ z', is light-like.

    Only the n nearest (c -+ |dt|)/2a can be. The z + z' term (n = 0) takes
    _inverse_square_factor's relative test. An image n != 0 is light-like
    within 5e-7 min(|dt|, 2a) of its cone, or 4 ulps of |dt|, a window that
    stays below the gap between cones however large |dt| grows, and raises
    with _inverse_square_factor's message and factor. Images are tested in
    the order of the sum over images: z + z' first, then by |n|, +n before
    -n, z - z' before z + z'.
    """
    d = abs(dt)
    two_a = 2.0 * a
    window = max(5e-7 * min(d, two_a), 4.0 * math.ulp(d))
    hits = set()
    for family, c in enumerate((dz, sz)):
        for ratio in ((c - d) / two_a, (c + d) / two_a):
            n = round(ratio)
            if n or family:
                hits.add((abs(n), n < 0, family, n))
    for _, _, family, n in sorted(hits):
        separation = (sz if family else dz) - two_a * n
        if not n:
            _inverse_square_factor(dt, separation, "(z+z')")
        elif abs(d - abs(separation)) < window:
            raise _singular(dt, separation, f"(z{'+' if family else '-'}z'-2an), n={n}")


def _images_off_zero(d: float, c: float, a: float) -> float:
    """sum over n != 0 of 1/(d^2 - (c - 2an)^2)^2, for |c| <= a and d >= 0.

    Where |c| + d < 2a, _IMAGE_RULE: every term positive. Elsewhere the
    whole lattice sum less its n = 0 term, which there is at most 0.98 of
    the result, so little cancels. With
    k = pi/2a, A, B = k(c -+ d) and x = kd >= pi/2, the csc^2 and cot
    partial fractions combine through cot A - cot B = sin 2x / (sin A sin B):
        k^4 [cos^2(kc) sinc^2(x) / (sin A sin B)^2 + h(x) / (sin A sin B)],
    h(x) = (1 - sin 2x / 2x) / 2x^2, where 1 - sin 2x / 2x >= 1 - 1/pi does
    not cancel. d enters through d/2a reduced to [-1/2, 1/2] only, shared by
    A, B and x, so the two families stay consistent far from the plates.
    """
    two_a = 2.0 * a
    if abs(c) + d < two_a:
        total = 0.0
        for node, weight in _IMAGE_RULE:
            below = c - two_a * node
            above = c + two_a * node
            lower = (d - below) * (d + below)
            upper = (d - above) * (d + above)
            total += weight * (1.0 / (lower * lower) + 1.0 / (upper * upper))
        return total
    half_periods = d / two_a
    reduced = half_periods - round(half_periods)
    m = c / two_a
    x = math.pi * half_periods
    sines = math.sin(math.pi * (m - reduced)) * math.sin(math.pi * (m + reduced))
    sinc = math.sin(math.pi * reduced) / x
    h = (1.0 - math.sin(2.0 * math.pi * reduced) / (2.0 * x)) / (2.0 * x * x)
    lattice = (math.pi / two_a) ** 4 * ((math.cos(math.pi * m) * sinc / sines) ** 2 + h / sines)
    direct = (d - c) * (d + c)
    return lattice - 1.0 / (direct * direct)


def correlator_dual_plate(pair: SpacetimePair, a: float) -> SummationResult:
    """Renormalized <E_z E_z> between plates at z=0 and z=a.

    Both image families z -+ z' - 2an summed over every n, each image
    contributing f(s) = 1/(d^2 - s^2)^2 with d = t - t', less the direct
    n = 0 term of z - z', over pi^2. In O(1) for any d, as
    [f(c0) + F(c0) + F(z - z')] / pi^2 with F = _images_off_zero and c0 the
    z + z' image of least separation (z + z', or z + z' - 2a past a).

    Returns the SummationResult: the value, terms_used = 1 (the image c0,
    summed apart through _inverse_square_factor) and tail_estimate = 0.0,
    since no image is dropped. Rounding is not in tail_estimate; the value
    is within 2 u kappa of mpmath, kappa its condition number in d, z -+ z'
    and a (tests/test_dual_plate_accuracy.py). Raises SingularityError at a
    light-like image, with the image sum's message and factor.
    """
    check_separation(a)
    if not (pair.z < a and pair.z_prime < a):
        raise DomainError(
            f"evaluation points must lie between the plates: z={pair.z!r}, "
            f"z'={pair.z_prime!r}, a={a!r}"
        )
    dt = pair.t - pair.t_prime
    dz = pair.z - pair.z_prime
    sz = pair.z + pair.z_prime
    d = abs(dt)
    c0, label = (sz, "(z+z')") if sz <= a else (sz - 2.0 * a, "(z+z'-2an), n=1")
    # Below this reach only the image c0 can be light-like, and its term
    # raises; the margin lies far outside _SINGULAR_EPS's window.
    if max(abs(dz), abs(c0)) + d >= (1.0 - 1e-5) * 2.0 * a:
        _raise_at_light_like_image(dt, dz, sz, a)
    nearest = _inverse_square_factor(dt, c0, label)
    return SummationResult(
        (nearest + _images_off_zero(d, c0, a) + _images_off_zero(d, dz, a)) / math.pi**2, 1, 0.0)
