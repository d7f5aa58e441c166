"""Kinetic-energy and voltage fluctuation statistics for a charged particle.

A particle of charge q crossing the vacuum region perpendicular to the
plates, on the worldline t = z/v from z0 to z0 + b, picks up a fluctuating
momentum from the boundary-modified field. The variance of the energy shift
is q^2 v^4 / pi^2 times a double line integral of the correlator along the
path, which closed_forms evaluates in antiderivative form. Everything here
works in natural units internally and reports energies in eV (the natural
unit of this package), so variances are eV^2 and rms voltages are volts for
a charge given in units of e.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .closed_forms import (
    DEFAULT_SCALE,
    LogScale,
    PathSegment,
    _image_pair_term,
    image_pair_terms,
    one_plate_integral,
)
from .errors import ConvergenceError, DomainError, check_separation
from .summation import _ZETA_X_MIN, SummationControl, SummationResult, hurwitz_zeta
from .units import CONSTANTS, Constants, speed_from_kinetic

__all__ = [
    "Particle",
    "FluctuationResult",
    "WindowReport",
    "variance_one_plate",
    "rms_one_plate_smallv",
    "validity_window",
    "variance_two_plate_exact",
    "variance_two_plate_smallv",
]

_SMALLV_WARN = 0.1
_SPEED_MATCH_RTOL = 1e-9
# The two-plate sum subtracts its analytic tail from the first index n >= 16,
# the least argument of hurwitz_zeta, at which U = v (2an - 2(z0+b)) / b
# reaches this value: there the pair terms' expansion in 1/n gains a factor
# (1/U)^2 <= 1/4 per order, so the envelope coefficient taken at that index
# is close to its limit.
_TAIL_REFERENCE_U = 2.0
# Rounding allowance on the pair term at the reference index, relative to the
# summed magnitude of its parts R(z0 - an), R(z0 + an) and 2 T(n): past the
# light cone every part is positive, so that is the pair term itself. Against
# 60-digit mpmath the remainder pair - C n^-4 - D n^-6 was off by at most
# 1.2e-15 of it over 4500 random geometries (docs/decisions.md).
_PAIR_ROUNDING = 1e-12
# Rounding allowance on the subtracted tail T(n), relative to T(n): the
# cumulative sum that forms it from the top of its block rounds it by at most
# about n/2 ulps (its partial sums decay like m^-3) and its Euler-Maclaurin
# anchor by a few more. The allowance is max(_TAIL_ROUNDING, n ulps).
_TAIL_ROUNDING = 1e-12
_ULP = 2.0**-53


@dataclass(frozen=True)
class Particle:
    """A charged particle, with exactly one of kinetic energy or speed given.

    charge_e is in units of the elementary charge; mass_eV in eV. The speed
    is derived nonrelativistically from the kinetic energy when needed:
    v = sqrt(2 K / m).
    """

    charge_e: float
    mass_eV: float
    kinetic_energy_eV: float | None = None
    speed: float | None = None
    constants: Constants = field(default=CONSTANTS, repr=False)

    def __post_init__(self) -> None:
        if not self.mass_eV > 0.0:
            raise DomainError(f"particle mass must be positive, got {self.mass_eV!r}")
        given = (self.kinetic_energy_eV is not None) + (self.speed is not None)
        if given != 1:
            raise DomainError(
                "exactly one of kinetic_energy_eV or speed must be given, "
                f"got kinetic_energy_eV={self.kinetic_energy_eV!r}, speed={self.speed!r}"
            )
        if self.speed is not None and not 0.0 < self.speed < 1.0:
            raise DomainError(f"speed must lie in (0, 1), got {self.speed!r}")
        if self.kinetic_energy_eV is not None and not self.kinetic_energy_eV > 0.0:
            raise DomainError(
                f"kinetic energy must be positive, got {self.kinetic_energy_eV!r}"
            )

    @classmethod
    def electron(
        cls,
        kinetic_energy_eV: float | None = None,
        speed: float | None = None,
        charge_e: float = 1.0,
    ) -> "Particle":
        return cls(
            charge_e=charge_e,
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
        return 0.5 * self.mass_eV * self.speed * self.speed

    @property
    def charge_natural(self) -> float:
        return self.charge_e * self.constants.elementary_charge_natural


@dataclass(frozen=True)
class FluctuationResult:
    """Energy-fluctuation statistics for one traversal.

    variance_eV2 is <(Delta U)^2>; rms_energy_eV its square root; the rms
    voltage is the energy spread per unit charge. regime records which
    approximations produced the number, terms_used and tail_estimate_eV2 how
    an image sum was truncated (both zero for closed-form evaluations):
    tail_estimate_eV2 bounds the truncation error of variance_eV2.
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


@dataclass(frozen=True)
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
    report = validity_window(seg)
    flags: tuple[str, ...] = ()
    if report.below_window:
        flags += ("below_window",)
    if seg.b > seg.z0:
        flags += ("beyond_window",)
    return flags


def variance_one_plate(
    particle: Particle, seg: PathSegment, scale: LogScale = DEFAULT_SCALE
) -> FluctuationResult:
    """Exact <(Delta U)^2> = q^2 v^4 I(z0, b, v) / pi^2 for one plate.

    The segment's speed must match the particle's. An uncharged particle
    returns a zero result flagged "neutral".
    """
    _check_speed_match(particle, seg)
    flags = ("exact", "one_plate") + _window_flags(seg)
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    q = particle.charge_natural
    integral = one_plate_integral(seg, scale)
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
    if not 0.0 < z0 < math.inf:
        raise DomainError(f"starting distance z0 must be positive and finite, got {z0!r}")
    v = particle.speed_value
    if v > _SMALLV_WARN:
        warnings.warn(
            f"small-v formula evaluated at v={v:.3g}; accuracy degrades above v~0.1",
            stacklevel=2,
        )
    flags = ("small_v", "one_plate")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    rms = abs(particle.charge_natural) * v / (2.0 * math.pi * z0)
    return _result(rms * rms, particle.charge_e, flags)


def _two_plate_tail_bound(ns, seg: PathSegment, a: float):
    """Certified bound on the dropped image quartets beyond each index n in ns.

    Each |m| > n quartet is at most 4 b^2 / [v^2 (2am - 2(z0+b))^2 - b^2]^2;
    an integral test in the variable u = v (2ax - 2(z0+b)) / b gives
    (4 / (2avb)) * (1/4) [1/(U-1) + 1/(U+1) - ln((U+1)/(U-1))] once
    U = v (2an - 2(z0+b)) / b exceeds 1. Returns inf before that.
    """
    import numpy as np

    u = seg.v * (2.0 * a * ns - 2.0 * (seg.z0 + seg.b)) / seg.b
    with np.errstate(divide="ignore", invalid="ignore"):
        q_u = 0.25 * (1.0 / (u - 1.0) + 1.0 / (u + 1.0) - np.log((u + 1.0) / (u - 1.0)))
    return np.where(u > 1.0, 4.0 * q_u / (2.0 * a * seg.v * seg.b), np.inf)


def _tail_coefficients(seg: PathSegment, a: float) -> tuple[float, float]:
    """C and D in pair_term(n) = C n^-4 + D n^-6 + O(n^-8) for the two-plate sum.

    With d = z - z' and s = z + z', the +n/-n reflected kernels sum to
    1/(v^4 (2an)^4) [2 + 20 s^2/(2an)^2 + 4 d^2/(v^2 (2an)^2) + ...] and the
    translated ones to the same with s replaced by d. Over the square,
    int d^2 = b^4/6 and int s^2 = b^2 (4 zc^2 + b^2/6) with zc = z0 + b/2.
    """
    v, b = seg.v, seg.b
    zc = seg.z0 + 0.5 * b
    c4 = b * b / (4.0 * a**4 * v**4)
    c6 = (20.0 * b * b * (4.0 * zc * zc + b * b / 6.0)
          + (20.0 + 8.0 / (v * v)) * b**4 / 6.0) / (v**4 * (2.0 * a) ** 6)
    return c4, c6


def _first_certified(certifies, lo: int, hi: int, guess: float) -> int:
    """The least n in [lo, hi] with certifies(n), or hi if there is none.

    certifies is taken to turn true once and stay true. Steps of 1, 2, 4, ...
    away from the guess bracket that n and bisection closes the bracket, so
    a guess one index off costs two evaluations.
    """
    n = max(lo, math.floor(guess)) if guess < hi else hi
    step = 1
    if certifies(n):
        hi = n
        while hi - step >= lo and certifies(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step + 1)
    else:
        while n + step < hi and not certifies(n + step):
            n, step = n + step, 2 * step
        lo, hi = n + 1, min(hi, n + step)
    while lo < hi:
        mid = (lo + hi) // 2
        if certifies(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _zeta8_bound(x):
    """zeta(8, x) <= x^-7/7 + x^-8/2 + (2/3) x^-9: Euler-Maclaurin stopped
    after a positive term, which overestimates a completely monotone sum."""
    return (1.0 / 7.0 + (0.5 + 2.0 / (3.0 * x)) / x) / x**7


def _two_plate_sum(
    seg: PathSegment, a: float, scale: LogScale, control: SummationControl
) -> SummationResult:
    """The one-plate integral plus the image pairs n >= 1, with a certified tail.

    Below the reference index n_ref (the first n >= _ZETA_X_MIN = 16 with
    U >= _TAIL_REFERENCE_U) the dropped pairs are bounded by
    _two_plate_tail_bound. From n_ref on the sum adds, at each N, the
    subtracted tail T(N) = C zeta(4, N+1) + D zeta(6, N+1) and bounds only
    its remainder, by the envelope n_ref^8 r(n_ref) zeta(8, N+1) on
    r(n) = pair_term(n) - C n^-4 - D n^-6, plus rounding allowances. Past
    the light cone (U > 1) every coefficient of the pair term's expansion
    in 1/n^2 is nonnegative, so r >= 0 and n^8 r(n) does not increase:
    r(m) <= n_ref^8 r(n_ref) / m^8 for every m > N >= n_ref.

    The sum stops at the first n with bound(n) <= tol |running(n) + T(n)|,
    running(n) being the one-plate term plus the pairs up to n added left
    to right, and returns the compensated sum of those terms and T(n), with
    tail_estimate = bound(n). The pair terms and bounds are formed once, on
    1..N for the first N >= n_ref that certifies against the one-plate term
    alone, solved from the envelope's N^-7 decay: while the pairs sum to a
    nonnegative amount the stop lies at or before N. Otherwise the sum
    carries on from N + 1 against the running total.
    """
    import numpy as np

    v, b, z1 = seg.v, seg.b, seg.z0 + seg.b
    tol, n_max = control.tol, control.n_max
    n_ref = max(_ZETA_X_MIN, math.ceil((_TAIL_REFERENCE_U * b / v + 2.0 * z1) / (2.0 * a)))
    while v * (2.0 * a * n_ref - 2.0 * z1) / b < _TAIL_REFERENCE_U:
        n_ref += 1
    c4, c6 = _tail_coefficients(seg, a)
    pair = _image_pair_term(seg, a, n_ref, scale)
    remainder = pair - c4 / n_ref**4 - c6 / n_ref**6
    envelope = n_ref**8 * (abs(remainder) + _PAIR_ROUNDING * pair)

    def certifies(n: int, total: float) -> bool:
        x = n + 1.0
        tail = c4 * hurwitz_zeta(4, x) + c6 * hurwitz_zeta(6, x)
        bound = envelope * _zeta8_bound(x) + max(_TAIL_ROUNDING, n * _ULP) * tail
        return bound <= tol * abs(total + tail)

    def bounds_and_tails(ns):
        # T over the consecutive indices ns is its value at the last index
        # plus the explicit C m^-4 + D m^-6 in between, added from the top
        split = max(0, min(n_ref - int(ns[0]), ns.size))
        bounds = np.empty_like(ns)
        bounds[:split] = _two_plate_tail_bound(ns[:split], seg, a)
        tails = np.zeros_like(ns)
        far = ns[split:]
        if far.size:
            last = float(far[-1]) + 1.0
            inv_sq = 1.0 / (far * far)
            leading = inv_sq * inv_sq * (c4 + c6 * inv_sq)
            tails[split:] = (c4 * hurwitz_zeta(4, last) + c6 * hurwitz_zeta(6, last)
                             + np.append(np.cumsum(leading[:0:-1])[::-1], 0.0))
            bounds[split:] = (envelope * _zeta8_bound(far + 1.0)
                              + np.maximum(_TAIL_ROUNDING, far * _ULP) * tails[split:])
        return bounds, tails

    base = one_plate_integral(seg, scale)
    parts, running, start = [base], base, 1
    while True:
        # envelope * zeta8(x) is about envelope / (7 (x - 1/2)^7), which meets
        # tol |running| at x - 1/2 = x0: the first certified N = x - 1 is
        # then the least integer above x0 - 1/2
        guess = ((envelope / (7.0 * tol)) ** (1.0 / 7.0) / abs(running) ** (1.0 / 7.0) + 0.5
                 if running else math.inf)
        end = (n_max if n_max <= max(start, n_ref) else
               _first_certified(lambda n: certifies(n, running), max(start, n_ref), n_max, guess))
        ns = np.arange(start, end + 1, dtype=float)
        terms = image_pair_terms(seg, a, ns, scale)
        bounds, tails = bounds_and_tails(ns)
        totals = np.add.accumulate(np.concatenate(([running], terms)))[1:]
        stops = np.flatnonzero(bounds <= tol * np.abs(totals + tails))
        if stops.size:
            k = int(stops[0])
            value = math.fsum([*parts, *terms[: k + 1].tolist(), float(tails[k])])
            return SummationResult(value=value, terms_used=start + k,
                                   tail_estimate=float(bounds[k]))
        if end == n_max:
            raise ConvergenceError(
                f"two-plate variance: image sum not certified below relative tolerance "
                f"{tol:g} within n_max={n_max} terms (last tail bound {bounds[-1]:.3e})"
            )
        parts += terms.tolist()
        running, start = float(totals[-1]), end + 1


def variance_two_plate_exact(
    particle: Particle,
    seg: PathSegment,
    a: float,
    control: SummationControl = SummationControl(),
    scale: LogScale = DEFAULT_SCALE,
) -> FluctuationResult:
    """Exact two-plate <(Delta U)^2> by summing image contributions.

    The n=0 one-plate term plus reflected and translated image integrals in
    symmetric pairs n, -n (_two_plate_sum). Past a reference index the
    analytic tail C zeta(4, N+1) + D zeta(6, N+1) of the dropped pairs is
    added and only its remainder is bounded; the sum stops at the first
    pair whose bound falls below control.tol of the total. That stop is
    predicted from the bound's decay, so the pair terms are evaluated in
    one block reaching little past it. terms_used is the last pair summed
    and tail_estimate_eV2 bounds the truncation error of the returned
    variance. Raises ConvergenceError when no pair up to control.n_max
    certifies. The flight must stay between the plates: 0 < z0 and
    z0 + b < a.
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
    summed = _two_plate_sum(seg, a, scale, control)
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
    if not 0.0 < z0 < a:
        raise DomainError(
            f"starting point must lie strictly between the plates, got z0={z0!r}, a={a!r}"
        )
    v = particle.speed_value
    if v > _SMALLV_WARN:
        warnings.warn(
            f"small-v formula evaluated at v={v:.3g}; accuracy degrades above v~0.1",
            stacklevel=2,
        )
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
