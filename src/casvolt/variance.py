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
    image_pair_terms,
    one_plate_integral,
)
from .errors import ConvergenceError, DomainError
from .summation import SummationControl, sum_symmetric_images
from .units import CONSTANTS, Constants, speed_from_kinetic

__all__ = [
    "Particle",
    "FluctuationResult",
    "WindowReport",
    "CscSeriesComparison",
    "variance_one_plate",
    "rms_one_plate_smallv",
    "validity_window",
    "variance_two_plate_exact",
    "variance_two_plate_smallv",
    "variance_two_plate_series_smallv",
    "csc_identity",
    "zeta_two_series",
]

_SMALLV_WARN = 0.1
_SPEED_MATCH_RTOL = 1e-9


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
    an image sum was truncated (both zero for closed-form evaluations).
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

    Independent of the flight distance b inside the validity window. Warns
    when the particle speed is large enough (v > 0.1) that the dropped
    O(v^0) terms matter.
    """
    if not z0 > 0.0:
        raise DomainError(f"starting distance z0 must be positive, got {z0!r}")
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


def variance_two_plate_exact(
    particle: Particle,
    seg: PathSegment,
    a: float,
    control: SummationControl = SummationControl(),
    scale: LogScale = DEFAULT_SCALE,
) -> FluctuationResult:
    """Exact two-plate <(Delta U)^2> by summing image contributions.

    The n=0 one-plate term plus reflected and translated image integrals in
    symmetric pairs n, -n, truncated when the certified tail bound falls
    below control.tol of the running total. The flight must stay between the
    plates: 0 < z0 and z0 + b < a.
    """
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
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
    try:
        summed = sum_symmetric_images(
            lambda ns: image_pair_terms(seg, a, ns, scale),
            lambda ns: _two_plate_tail_bound(ns, seg, a),
            control,
            base=one_plate_integral(seg, scale),
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"two-plate variance: {exc}") from exc
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
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
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


def _series_tail_bound(ns, z0: float, a: float, v: float):
    """Integral-test bound on the dropped small-v image terms beyond each n in ns.

    Each dropped index m contributes [1/(am - z0)^2 + 1/(am + z0)^2 + 2/(am)^2]
    / (4 v^2); integrating each envelope over x > n bounds the tail by
    [1/(a (an - z0)) + 1/(a (an + z0)) + 2/(a^2 n)] / (4 v^2).
    """
    import numpy as np

    with np.errstate(divide="ignore"):
        bound = (
            1.0 / (a * (a * ns - z0))
            + 1.0 / (a * (a * ns + z0))
            + 2.0 / (a * a * ns)
        ) / (4.0 * v * v)
    return np.where(a * ns - z0 > 0.0, bound, np.inf)


def variance_two_plate_series_smallv(
    particle: Particle,
    z0: float,
    a: float,
    control: SummationControl | None = None,
) -> FluctuationResult:
    """Small-v two-plate variance as a truncated image series (b -> 0 limit).

    Sums q^2 v^4 / pi^2 times 1/(4 v^2 (an - z0)^2) + 1/(4 v^2 (an + z0)^2)
    + 2/(4 a^2 v^2 n^2) over image pairs, plus the n=0 term 1/(4 v^2 z0^2).
    Collapses analytically to the csc^2 closed form; the reported
    tail_estimate_eV2 is a certified bound on the truncation, so the closed
    form and this series must agree within it.

    The tail of this series decays like 1/n, so tight relative tolerances are
    impractical; when control is omitted, a default of tol=1e-5 keeps the
    cross-check fast (tens of thousands of terms at worst) while still
    certified. Production evaluations should use the closed form.
    """
    if control is None:
        control = SummationControl(tol=1e-5, n_max=10**6)
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
    if not 0.0 < z0 < a:
        raise DomainError(
            f"starting point must lie strictly between the plates, got z0={z0!r}, a={a!r}"
        )
    v = particle.speed_value
    flags = ("small_v", "two_plate", "series")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    q = particle.charge_natural
    prefactor = q * q * v**4 / math.pi**2

    def pair_term(ns):
        reflected = 1.0 / (a * ns - z0) ** 2 + 1.0 / (a * ns + z0) ** 2
        translated = 2.0 / (a * ns) ** 2
        return (reflected + translated) / (4.0 * v * v)

    try:
        summed = sum_symmetric_images(
            pair_term,
            lambda ns: _series_tail_bound(ns, z0, a, v),
            control,
            base=1.0 / (4.0 * v * v * z0 * z0),
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"two-plate small-v series: {exc}") from exc
    return _result(
        prefactor * summed.value,
        particle.charge_e,
        flags,
        terms_used=summed.terms_used,
        tail=prefactor * summed.tail_estimate,
    )


@dataclass(frozen=True)
class CscSeriesComparison:
    """A truncated image series next to its closed form, with a tail bound."""

    series_value: float
    closed_form: float
    tail_bound: float
    terms: int


def csc_identity(x: float, terms: int = 10000) -> CscSeriesComparison:
    """sum_{n>=1} [1/(n+x)^2 + 1/(n-x)^2] = -1/x^2 + pi^2 csc^2(pi x).

    The identity that collapses the reflected-image series into the csc^2
    closed form. Returns the truncated series, the closed form, and the
    integral-test tail bound 1/(N+x) + 1/(N-x) on the dropped terms.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie strictly between 0 and 1, got {x!r}")
    if terms < 1:
        raise DomainError(f"terms must be at least 1, got {terms!r}")
    series = math.fsum(
        1.0 / (n + x) ** 2 + 1.0 / (n - x) ** 2 for n in range(1, terms + 1)
    )
    closed = -1.0 / (x * x) + math.pi**2 / math.sin(math.pi * x) ** 2
    tail = 1.0 / (terms + x) + 1.0 / (terms - x)
    return CscSeriesComparison(
        series_value=series, closed_form=closed, tail_bound=tail, terms=terms
    )


def zeta_two_series(terms: int = 10000) -> CscSeriesComparison:
    """Truncated 2 sum_{n>=1} 1/n^2 next to its closed form pi^2/3.

    The translated-image series at b -> 0. The tail bound is the integral
    test 2/N on the dropped terms.
    """
    if terms < 1:
        raise DomainError(f"terms must be at least 1, got {terms!r}")
    series = math.fsum(2.0 / (n * n) for n in range(1, terms + 1))
    return CscSeriesComparison(
        series_value=series,
        closed_form=math.pi**2 / 3.0,
        tail_bound=2.0 / terms,
        terms=terms,
    )
