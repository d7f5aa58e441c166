"""Kinetic-energy and voltage fluctuation statistics for a charged particle.

A particle of charge q crossing the vacuum region perpendicular to the
plates, on the worldline t = z/v from z0 to z0 + b, picks up a fluctuating
momentum from the boundary-modified field. The variance of the energy shift
is q^2 v^4 / pi^2 times a double line integral of the correlator along the
path, which closed_forms evaluates in closed form over the segment square,
and over its images for two plates. Everything here works in natural units
internally and reports energies in eV (the natural unit of this package),
so variances are eV^2 and rms voltages are volts for a charge given in
units of e.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import _EXPORTS, units
from .closed_forms import (
    PathSegment,
    _check_small_speed,
    _check_v,
    _warn_small_speed,
    image_pair_terms,
    one_plate_integral,
)
from .errors import (
    ConvergenceError,
    DomainError,
    check_length,
    check_positive_finite,
    check_separation,
    record,
)
from .summation import SummationControl, SummationResult
from .units import CONSTANTS, speed_from_kinetic

__all__ = list(_EXPORTS["variance"])

_SPEED_MATCH_RTOL = 1e-9
# The two-plate sum subtracts its analytic tail from the first index
# n >= _ZETA_X_MIN at which U = v (2an - 2(z0+b)) / b reaches this value: there
# the pair terms' expansion in 1/n gains a factor (1/U)^2 <= 1/4 per order, so
# the envelope coefficient taken at that index is close to its limit.
_TAIL_REFERENCE_U = 2.0
# Least argument x at which _hurwitz_zeta reaches double precision with the
# Euler-Maclaurin terms of B_2, ..., B_20, here as (numerator, denominator); a
# subtracted tail built from zeta(s, N + 1) needs N + 1 >= this.
_ZETA_X_MIN = 16
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
              (43867, 798), (-174611, 330))
# The remainder past the six subtracted orders C_0, ..., C_5 falls like n^-16.
_REMAINDER_ORDER = 16
# Rounding allowance on the pair term at the reference index, relative to the
# summed magnitude of its parts R(z0 - an), R(z0 + an) and 2 T(n): past the
# light cone every part is positive, so that is the pair term itself. Against
# 60-digit mpmath the remainder pair - sum_j C_j n^-(4+2j), with the block's
# pair term and the float C_j, was off by at most 1.2e-15 of it over 1,500
# random geometries, v from 1e-4 to 0.3, at n_ref and up to 100 past it.
_PAIR_ROUNDING = 1e-12
# Rounding allowance on the subtracted tail T(n), relative to T(n): T is formed
# from _hurwitz_zeta, whose orders s = 4..14 are each within 14.5 ulps of
# 80-digit mpmath at x = n + 1 from 17 to 10^6. The allowance
# max(_TAIL_ROUNDING, n ulps) covers that with a wide margin.
_TAIL_ROUNDING = 1e-12
_ULP = 2.0**-53
# Least magnitude of a nonzero charge, in units of e. Every variance is q^2
# times a factor; the small-v forms' least factor, at the speed floor 1e-22
# with their lengths at errors' upper edge 1e60, is (e v / (2 pi z0))^2 =
# 2.3e-167 for rms_one_plate_smallv. So charges below 3.1e-71 give
# variances below the normal doubles, 0.0 among them. The floor keeps 12
# decades above that, as _SMALLV_MIN does above its edge.
_CHARGE_MIN = 1e-58
# The least normal double. The charge floor covers the charge's share of a
# variance, but the exact forms' factor also depends on the lengths' ratios,
# so a charged particle's variance below this has underflowed and refuses.
_NORMAL_MIN = sys.float_info.min


@record
class Particle:
    """A charged particle, with exactly one of kinetic energy or speed given.

    charge_e is in units of the elementary charge, either 0 (a neutral
    particle) or of magnitude at least _CHARGE_MIN = 1e-58; mass_eV in eV.
    The speed is derived nonrelativistically from the kinetic energy when
    needed: v = sqrt(2 K / m).
    """

    charge_e: float
    mass_eV: float
    kinetic_energy_eV: float | None = None
    speed: float | None = None

    def __post_init__(self) -> None:
        charge = self.charge_e
        if not (charge == 0.0 or _CHARGE_MIN <= abs(charge) < math.inf):
            if math.isfinite(charge):
                raise DomainError(f"particle charge must be 0 or at least {_CHARGE_MIN:g} "
                                  f"in magnitude, got {charge!r}")
            raise DomainError(f"particle charge must be finite, got {charge!r}")
        check_positive_finite("particle mass", self.mass_eV)
        given = (self.kinetic_energy_eV is not None) + (self.speed is not None)
        if given != 1:
            raise DomainError(
                "exactly one of kinetic_energy_eV or speed must be given, "
                f"got kinetic_energy_eV={self.kinetic_energy_eV!r}, speed={self.speed!r}"
            )
        if self.speed is not None and not 0.0 < self.speed < 1.0:
            raise DomainError(f"speed must lie in (0, 1), got {self.speed!r}")
        if self.kinetic_energy_eV is not None:
            if not self.kinetic_energy_eV > 0.0:
                raise DomainError(
                    f"kinetic energy must be positive, got {self.kinetic_energy_eV!r}"
                )
            # refuses an infinite energy, or one that gives v >= 1
            speed_from_kinetic(self.kinetic_energy_eV, self.mass_eV)

    @classmethod
    def electron(
        cls,
        kinetic_energy_eV: float | None = None,
        speed: float | None = None,
    ) -> "Particle":
        return cls(
            charge_e=1.0,
            mass_eV=CONSTANTS.electron_mass_eV,
            kinetic_energy_eV=kinetic_energy_eV,
            speed=speed,
        )

    @property
    def speed_value(self) -> float:
        """The particle speed in units of c, derived from K if necessary."""
        if self.speed is not None:
            return self.speed
        return speed_from_kinetic(self.kinetic_energy_eV, self.mass_eV)

    @property
    def kinetic_eV(self) -> float:
        """Kinetic energy in eV, derived from the speed if necessary."""
        if self.kinetic_energy_eV is not None:
            return self.kinetic_energy_eV
        return units.kinetic_from_speed(self.speed, self.mass_eV)

    @property
    def charge_natural(self) -> float:
        return units.charge_natural(self.charge_e)


@record
class FluctuationResult:
    """Energy-fluctuation statistics for one traversal.

    variance_eV2 is <(Delta U)^2>; rms_energy_eV its square root; the rms
    voltage is the energy spread per unit charge. regime records which
    approximations produced the number, terms_used and tail_estimate_eV2 how
    an image sum was truncated (both zero for closed-form evaluations):
    terms_used is the last pair summed term by term, the end of the pair
    block at which the sum certified, and tail_estimate_eV2 bounds the
    truncation error of variance_eV2.
    """

    variance_eV2: float
    rms_energy_eV: float
    rms_voltage_V: float
    regime: tuple[str, ...]
    terms_used: int = 0
    tail_estimate_eV2: float = 0.0


def _result(
    variance: float,
    charge_e: float,
    regime: tuple[str, ...],
    terms_used: int = 0,
    tail: float = 0.0,
) -> FluctuationResult:
    """The result record of a variance; a charged particle's variance below
    the normal doubles raises DomainError rather than returning a silent 0.0."""
    if variance < _NORMAL_MIN and charge_e != 0.0:
        raise DomainError(
            f"variance underflows: {variance!r} eV^2 lies below the least normal double "
            f"{_NORMAL_MIN:g}; the lengths' ratios put it out of range")
    rms = math.sqrt(variance)
    rms_voltage = rms / abs(charge_e) if charge_e != 0.0 else 0.0
    return FluctuationResult(
        variance_eV2=variance,
        rms_energy_eV=rms,
        rms_voltage_V=rms_voltage,
        regime=regime,
        terms_used=terms_used,
        tail_estimate_eV2=tail,
    )


def _check_speed_match(particle: Particle, seg: PathSegment) -> None:
    v = particle.speed_value
    if abs(v - seg.v) > _SPEED_MATCH_RTOL * v:
        raise DomainError(
            f"segment speed {seg.v!r} does not match particle speed {v!r}; "
            "build the segment from the particle's speed"
        )


@record
class WindowReport:
    """Where the exact one-plate result is trustworthy in flight distance b.

    Below lower_bound = 2 v z0 / sqrt(3) the fluctuation picture breaks down
    (the formal rms would exceed the mean kinetic energy scale). At
    pole_entry = 2 v z0 / (1 - v) a corner of the integration square
    reaches the image light cone. The closed form stays finite there but is
    sharply peaked: for z0 = 1, v = 0.01 it is 2.6 times the plateau
    1/(4 z0^2 v^2) at b = 0.02 and 5.2 times at b = 0.020203. Only a corner
    within rounding of the locus raises SingularityError. pole_entry lies
    above lower_bound, so `inside` is True across the peak. The upper edge
    z0 is soft: b must stay well below z0 for the one-plate geometry to be
    meaningful.
    """

    b: float
    lower_bound: float
    upper_bound: float
    pole_entry: float
    inside: bool
    below_window: bool


def validity_window(seg: PathSegment) -> WindowReport:
    """Place seg.b against the one-plate window edges described in WindowReport."""
    lower = 2.0 * seg.v * seg.z0 / math.sqrt(3.0)
    pole = 2.0 * seg.v * seg.z0 / (1.0 - seg.v)
    inside = lower <= seg.b <= seg.z0
    return WindowReport(
        b=seg.b,
        lower_bound=lower,
        upper_bound=seg.z0,
        pole_entry=pole,
        inside=inside,
        below_window=seg.b < lower,
    )


def _window_flags(seg: PathSegment) -> tuple[str, ...]:
    """The regime flags of validity_window's edges, without building its report."""
    flags: tuple[str, ...] = ()
    if seg.b < 2.0 * seg.v * seg.z0 / math.sqrt(3.0):
        flags += ("below_window",)
    if seg.b > seg.z0:
        flags += ("beyond_window",)
    return flags


def variance_one_plate(particle: Particle, seg: PathSegment) -> FluctuationResult:
    """Exact <(Delta U)^2> = q^2 v^4 I(z0, b, v) / pi^2 for one plate.

    The segment's speed must match the particle's. An uncharged particle
    returns a zero result flagged "neutral".
    """
    _check_speed_match(particle, seg)
    flags = ("exact", "one_plate") + _window_flags(seg)
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    q = particle.charge_natural
    integral = one_plate_integral(seg)
    variance = q * q * seg.v**4 * integral / math.pi**2
    return _result(variance, particle.charge_e, flags)


def rms_one_plate_smallv(particle: Particle, z0: float) -> FluctuationResult:
    """Leading small-v one-plate spread: Delta U_rms = q v / (2 pi z0).

    The plateau of the exact spread for flights with v z0 << b << z0; it
    does not depend on b. Across that regime the exact rms differs from it
    by the relative corrections (2/3) (v z0 / b)^2, from the O(v^0) term,
    and -b / (2 z0), from the far end z0 + b. So it holds only for b well
    past the pole entry 2 v z0 / (1-v) and well below z0, not across the
    whole validity window: near the pole entry the exact integral peaks
    (2.6 times the plateau at b = 2 v z0 for z0 = 1, v = 0.01), and at
    b = z0 it is 0.625 times the plateau. Warns when the particle speed is
    large enough (v > 0.1) that the dropped O(v^0) terms matter.
    """
    check_length("starting distance z0", z0)
    v = particle.speed_value
    _check_small_speed(v)
    _warn_small_speed(v)
    flags = ("small_v", "one_plate")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    rms = abs(particle.charge_natural) * v / (2.0 * math.pi * z0)
    return _result(rms * rms, particle.charge_e, flags)


def _tail_coefficients(seg: PathSegment, a: float) -> list[float]:
    """C_0, ..., C_5 in pair_term(n) = sum_j C_j n^-(4+2j) + O(n^-16), the two-plate
    pair term's expansion in 1/n past the light cone.

    C_j = b^2 / (v^4 (2a)^4) sum_{k,i} q_jki g^k s^i h^(j-i), with g = 1/v^2,
    s = (zc/2a)^2, h = (b/2a)^2 and zc = z0 + b/2; so C_0 = b^2 / (4 a^4 v^4).
    Each q_jki is the rational its sympy derivation gives (the four image
    kernels of +n and -n expanded in 1/(2an), each order integrated over the
    square; tests/test_tail_coefficients.py derives them again), which the
    compiler folds to one rounded float. Every q_jki is positive, so nothing
    cancels: each term is ((q_jki * g^k) * s^i) * h^(j-i), and each order adds
    its terms left to right.
    """
    v, b, w = seg.v, seg.b, 2.0 * a
    g, s, h = 1.0 / (v * v), ((seg.z0 + 0.5 * b) / w) ** 2, (b / w) ** 2
    g2, g3, g4, g5 = g * g, g**3, g**4, g**5
    s2, s3, s4, s5 = s * s, s**3, s**4, s**5
    h2, h3, h4, h5 = h * h, h**3, h**4, h**5
    scale = (b / (v * v * w * w)) ** 2
    return [
        scale * (4 / 1),
        scale * (20 / 3 * h + 240 / 3 * s + 4 / 3 * g * h),
        scale * (140 / 15 * h2 + 4200 / 15 * s * h + 16800 / 15 * s2 + 98 / 15 * g * h2 +
                 840 / 15 * g * s * h + 12 / 15 * g2 * h2),
        scale * (420 / 35 * h3 + 23520 / 35 * s * h2 + 235200 / 35 * s2 * h + 376320 / 35 * s3 +
                 672 / 35 * g * h3 + 4704 / 35 * g * s * h2 + 47040 / 35 * g * s2 * h +
                 288 / 35 * g2 * h3 + 2016 / 35 * g2 * s * h2 + 20 / 35 * g3 * h3),
        scale * (4620 / 315 * h4 + 415800 / 315 * s * h3 + 7761600 / 315 * s2 * h2 +
                 31046400 / 315 * s3 * h + 26611200 / 315 * s4 + 13398 / 315 * g * h4 +
                 83160 / 315 * g * s * h3 + 1552320 / 315 * g * s2 * h2 +
                 6209280 / 315 * g * s3 * h + 14058 / 315 * g2 * h4 + 35640 / 315 * g2 * s * h3 +
                 665280 / 315 * g2 * s2 * h2 + 3190 / 315 * g3 * h4 + 19800 / 315 * g3 * s * h3 +
                 140 / 315 * g4 * h4),
        scale * (60060 / 3465 * h5 + 7927920 / 3465 * s * h4 + 237837600 / 3465 * s2 * h3 +
                 1775854080 / 3465 * s3 * h2 + 3805401600 / 3465 * s4 * h +
                 2029547520 / 3465 * s5 + 276276 / 3465 * g * h5 + 1585584 / 3465 * g * s * h4 +
                 47567520 / 3465 * g * s2 * h3 + 355170816 / 3465 * g * s3 * h2 +
                 761080320 / 3465 * g * s4 * h + 543114 / 3465 * g2 * h5 +
                 679536 / 3465 * g2 * s * h4 + 20386080 / 3465 * g2 * s2 * h3 +
                 152216064 / 3465 * g2 * s3 * h2 + 301730 / 3465 * g3 * h5 +
                 377520 / 3465 * g3 * s * h4 + 11325600 / 3465 * g3 * s2 * h3 +
                 41860 / 3465 * g4 * h5 + 240240 / 3465 * g4 * s * h4 + 1260 / 3465 * g5 * h5),
    ]


@lru_cache(maxsize=None)
def _euler_maclaurin_coefficients(s: int) -> tuple[float, ...]:
    """B_2k / (2k)! * s (s+1) ... (s+2k-2) for k = 1, ..., len(_BERNOULLI),
    each rounded once from exact integer arithmetic."""
    return tuple(
        num * math.prod(range(s, s + 2 * k - 1)) / (den * math.factorial(2 * k))
        for k, (num, den) in enumerate(_BERNOULLI, start=1)
    )


def _hurwitz_zeta(s: int, x: float) -> float:
    """zeta(s, x) = x^(1-s) [1/(s-1) + 1/(2x) + sum_k c_k(s) x^-2k] for x >= 16,
    c_k the _euler_maclaurin_coefficients: Euler-Maclaurin summation from
    k = 0 (DLMF 25.11.5 with N = 0, 2.10.1). For real x the remainder is
    smaller than the first omitted term: below 1e-17 relative for s <= 8 and
    below 8e-14 for s <= 16 at x >= 16."""
    inv_sq = 1.0 / (x * x)
    total = 0.0
    for c in reversed(_euler_maclaurin_coefficients(s)):
        total = (total + c) * inv_sq
    return x ** (1 - s) * (1.0 / (s - 1) + 0.5 / x + total)


@lru_cache(maxsize=4096)
def _tail_zetas(x: float) -> tuple[float, ...]:
    """zeta(4+2j, x), j = 0, ..., 5, at an integer x >= 16. The sum takes
    them at block ends, which repeat from sum to sum."""
    return tuple(_hurwitz_zeta(4 + 2 * j, x) for j in range(6))


def _tail_expansion(coefficients: list[float], n: int) -> float:
    """sum_j C_j n^-(4+2j): the subtracted orders of the pair term at n."""
    inv_sq = 1.0 / (n * n)
    total = 0.0
    for c in reversed(coefficients):
        total = total * inv_sq + c
    return total * inv_sq * inv_sq


def _zeta16_bound(x):
    """zeta(16, x) <= x^-15/15 + x^-16/2 + (4/3) x^-17: Euler-Maclaurin stopped
    after a positive term, which overestimates a completely monotone sum."""
    return (1.0 / 15.0 + (0.5 + 4.0 / (3.0 * x)) / x) / x**15


def _refusal(tol: float, n_max: int, bound: float) -> ConvergenceError:
    """The two-plate sum's refusal when no index up to n_max certifies."""
    return ConvergenceError(
        f"two-plate variance: image sum not certified below relative tolerance "
        f"{tol:g} within n_max={n_max} terms (last tail bound {bound:.3e})"
    )


def _two_plate_sum(seg: PathSegment, a: float, control: SummationControl) -> SummationResult:
    """The one-plate integral plus the image pairs n >= 1, with a certified tail.

    The sum certifies only from the reference index n_ref = max(16, n_U) on,
    n_U the first n >= 1 with U = v (2an - 2(z0+b)) / b >= _TAIL_REFERENCE_U
    and 16 = _ZETA_X_MIN, so terms_used >= 16. An n_max below n_ref raises
    ConvergenceError at once, before any pair term is formed. At each
    N >= n_ref the sum adds the subtracted tail T(N) = sum_j C_j
    zeta(4+2j, N+1), j = 0..5, and bounds only its remainder, by the
    envelope n_ref^16 r(n_ref) zeta(16, N+1) on r(n) = pair_term(n) -
    sum_j C_j n^-(4+2j), plus rounding allowances. Past the light cone
    (U > 1) every coefficient of the pair term's expansion in 1/n^2 is
    nonnegative, so r >= 0 and n^16 r(n) does not increase: r(m) <=
    n_ref^16 r(n_ref) / m^16 for every m > N >= n_ref.

    The pair terms 1..E, E = min(n_max, max(n_ref, n_U + n_U // 4 + 2)),
    are formed in one block, which also gives r(n_ref). E is taken from n_U
    rather than n_ref: a sum whose n_ref is raised to 16 has an envelope
    no larger than n_U^16 r(n_U), since n^16 r(n) does not increase from
    n_U on, so its bound at E is no larger than the one a sum with that
    n_ref = n_U would have at the same E (docs/decisions.md, "Two-plate
    image sums"). The sum certifies at the block's end only:
    value(E) is the compensated sum of the one-plate term, every pair of
    the block and T(E), and the sum returns it when bound(E) <= tol
    |value(E)|, with terms_used = E and tail_estimate = bound(E); on the
    image_sums ranges it does. Otherwise the next block reaches
    min(n_max, 2E), then twice that, and so on. From n_ref on the bound
    falls while value(N) rises by r(N+1) >= 0, so when n_max does not
    certify no index up to n_max does, and the sum refuses.
    """
    _check_v(seg.v)
    v, b, z1 = seg.v, seg.b, seg.z0 + seg.b
    tol, n_max = control.tol, control.n_max
    n_u = math.ceil((_TAIL_REFERENCE_U * b / v + 2.0 * z1) / (2.0 * a))
    while v * (2.0 * a * n_u - 2.0 * z1) / b < _TAIL_REFERENCE_U:
        n_u += 1
    n_ref = max(_ZETA_X_MIN, n_u)
    if n_max < n_ref:
        raise _refusal(tol, n_max, math.inf)
    coefficients = _tail_coefficients(seg, a)
    # the one-plate term, then the pair terms 1..end, then the tail
    parts = [one_plate_integral(seg)]
    end = min(n_max, max(n_ref, n_u + n_u // 4 + 2))
    parts += image_pair_terms(seg, a, range(1, end + 1))
    pair = parts[n_ref]
    remainder = pair - _tail_expansion(coefficients, n_ref)
    envelope = n_ref**_REMAINDER_ORDER * (abs(remainder) + _PAIR_ROUNDING * pair)
    while True:
        x = end + 1.0
        # left to right on every Python: from 3.12, sum() of floats compensates
        tail = 0.0
        for c, zeta in zip(coefficients, _tail_zetas(x)):
            tail += c * zeta
        bound = envelope * _zeta16_bound(x) + max(_TAIL_ROUNDING, end * _ULP) * tail
        parts.append(tail)
        value = math.fsum(parts)
        if bound <= tol * abs(value):
            return SummationResult(value, end, bound)
        if end == n_max:
            raise _refusal(tol, n_max, bound)
        start, end = end + 1, min(n_max, 2 * end)
        parts[-1:] = image_pair_terms(seg, a, range(start, end + 1))


def variance_two_plate_exact(
    particle: Particle,
    seg: PathSegment,
    a: float,
    control: SummationControl = SummationControl(),
) -> FluctuationResult:
    """Exact two-plate <(Delta U)^2> by summing image contributions.

    The n=0 one-plate term plus reflected and translated image integrals in
    symmetric pairs n, -n (_two_plate_sum). From a reference index
    n_ref = max(16, n_U) on, n_U the first index past the light cone by
    U = v (2an - 2(z0+b)) / b >= 2, the analytic tail sum_j C_j
    zeta(4+2j, N+1), j = 0..5, of the dropped pairs is added and only its
    remainder, of order N^-15, is bounded. The pair terms are evaluated in
    one block reaching a quarter past n_U, and at least n_ref, and the sum
    certifies at its end N when the bound there falls below control.tol of
    the returned value; if not, a block doubling N follows. terms_used is
    that N, the last pair summed, and tail_estimate_eV2 bounds the
    truncation error of the returned variance, not the rounding of the pair
    terms (about 1e-15 of the value), which at the default tol it often
    falls below. Raises ConvergenceError when
    no pair up to control.n_max certifies, at once and without numpy when
    control.n_max < n_ref. The flight must stay between the plates,
    0 < z0 and z0 + b < a, and v must lie in (1e-6, 0.99).
    """
    check_separation(a)
    if not seg.z0 + seg.b < a:
        raise DomainError(
            f"flight must stay between the plates: z0 + b = {seg.z0 + seg.b!r} "
            f"reaches a = {a!r}"
        )
    _check_speed_match(particle, seg)
    flags = ("exact", "two_plate") + _window_flags(seg)
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    q = particle.charge_natural
    prefactor = q * q * seg.v**4 / math.pi**2
    summed = _two_plate_sum(seg, a, control)
    return _result(
        prefactor * summed.value,
        particle.charge_e,
        flags,
        terms_used=summed.terms_used,
        tail=prefactor * summed.tail_estimate,
    )


def variance_two_plate_smallv(particle: Particle, z0: float, a: float) -> FluctuationResult:
    """Closed-form small-v two-plate variance, independent of b:

        <(Delta U)^2> = (q^2 v^2 / 12 a^2) [1 + 3 csc^2(pi z0 / a)]

    Valid for short flights well inside the validity window. The sine argument
    is folded through far = max(z0, a - z0) before taking near = a - far: far
    is the same float whether the caller passes z0 or a - z0 (the operand
    above a/2 subtracts exactly), so the mirror symmetry z0 <-> a - z0 holds
    to the last bit.
    """
    check_separation(a)
    check_length("starting point z0", z0)
    if not z0 < a:
        raise DomainError(
            f"starting point must lie strictly between the plates, got z0={z0!r}, a={a!r}"
        )
    v = particle.speed_value
    _check_small_speed(v)
    _warn_small_speed(v)
    flags = ("small_v", "two_plate")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    far = max(z0, a - z0)
    near = a - far
    sin_sq = math.sin(math.pi * (near / a)) ** 2
    if sin_sq == 0.0:
        raise DomainError(
            f"z0={z0!r} is too close to a plate to resolve at double precision"
        )
    csc2 = 1.0 / sin_sq
    q = particle.charge_natural
    variance = q * q * v * v / (12.0 * a * a) * (1.0 + 3.0 * csc2)
    return _result(variance, particle.charge_e, flags)
