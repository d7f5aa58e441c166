"""Kinetic-energy and voltage fluctuation statistics for a charged particle.

A particle of charge q crossing the vacuum region perpendicular to the
plates, on the worldline t = z/v from z0 to z0 + b, picks up a fluctuating
momentum from the boundary-modified field. The variance of the energy shift
is q^2 v^4 / pi^2 times a double line integral of the correlator along the
path, which closed_forms evaluates in closed form over the segment square;
for two plates, images sums it over the mirror images. Everything here
works in natural units internally and reports energies in eV (the natural
unit of this package), so variances are eV^2 and rms voltages are volts
for a charge given in units of e.
"""
from __future__ import annotations

import math

from . import _EXPORTS, units
from .closed_forms import (
    _SMALLV_MIN,
    _SMALLV_WARN,
    PathSegment,
    _check_small_speed,
    _check_v,
    _warn_small_speed,
    one_plate_integral,
)
from .errors import (
    _LENGTH_MAX,
    _LENGTH_MIN,
    _NORMAL_MIN,
    DomainError,
    check_length,
    check_positive_finite,
    check_separation,
    record,
)
from .summation import SummationControl, _refusal
from .units import CONSTANTS, speed_from_kinetic

__all__ = list(_EXPORTS["variance"])

# the two-plate image-sum engine, casvolt.images: bound by the first exact
# two-plate sum, so that no other run compiles it
_images = None
# The two-plate sum subtracts its analytic tail from the first index
# n >= _REFERENCE_FLOOR at which U = v (2an - 2(z0+b)) / b reaches this value:
# there the pair terms' expansion in 1/n gains a factor (1/U)^2 <= 1/4 per
# order, so the envelope coefficient taken at that index is close to its limit.
_TAIL_REFERENCE_U = 2.0
# Least reference index n_ref = max(_REFERENCE_FLOOR, n_U) of a two-plate sum,
# and so its least n_max and pair count. The certificate holds from n_U on at
# any floor; 9 is the least at which the benchmark's n_max = 8 refusals and the
# CLI's --n-max 5 refusals still refuse before any pair
# (docs/decisions.md, "The rule").
_REFERENCE_FLOOR = 9
_SPEED_MATCH_RTOL = 1e-9
# Least magnitude of a nonzero charge, in units of e. Every variance is q^2
# times a factor; the small-v forms' least factor, at the speed floor 1e-22
# with their lengths at errors' upper edge 1e60, is (e v / (2 pi z0))^2 =
# 2.3e-167 for rms_one_plate_smallv. So charges below 3.1e-71 give
# variances below the normal doubles, 0.0 among them. The floor keeps 12
# decades above that, as _SMALLV_MIN does above its edge.
_CHARGE_MIN = 1e-58
# the one-plate window's lower edge is 2 v z0 / sqrt(3)
_SQRT3 = math.sqrt(3.0)
# the variances' prefactor q^2 v^4 / pi^2 divides by this float
_PI_SQUARED = math.pi**2
# variance_two_plate_smallv folds z0 at or above this fraction of a through
# a - z0, whose rounding moves csc^2 by at most 64 u there (2 u a / z0), so
# the form stays within 1e-14; closer to the plate it takes z0 itself
_FOLD_MIN = 1.0 / 32.0


@record
class Particle:
    """A charged particle, with exactly one of kinetic energy or speed given.

    charge_e is in units of the elementary charge, either 0 (a neutral
    particle) or of magnitude at least _CHARGE_MIN = 1e-58; mass_eV in eV.
    The speed is derived nonrelativistically from the kinetic energy when
    needed: v = sqrt(2 K / m). A given speed lies in (0, 1), never 0.0, so
    `particle.speed or particle.speed_value` reads it without the property.
    """

    charge_e: float
    mass_eV: float
    kinetic_energy_eV: float | None = None
    speed: float | None = None

    def __post_init__(self) -> None:
        # one comparison per check on the way through
        charge, mass = self.charge_e, self.mass_eV
        kinetic, speed = self.kinetic_energy_eV, self.speed
        if not (charge == 0.0 or _CHARGE_MIN <= abs(charge) < math.inf):
            if math.isfinite(charge):
                raise DomainError(f"particle charge must be 0 or at least {_CHARGE_MIN:g} "
                                  f"in magnitude, got {charge!r}")
            raise DomainError(f"particle charge must be finite, got {charge!r}")
        if not 0.0 < mass < math.inf:
            check_positive_finite("particle mass", mass)
        if (kinetic is None) == (speed is None):
            raise DomainError(
                "exactly one of kinetic_energy_eV or speed must be given, "
                f"got kinetic_energy_eV={kinetic!r}, speed={speed!r}"
            )
        if kinetic is None:
            if not 0.0 < speed < 1.0:
                raise DomainError(f"speed must lie in (0, 1), got {speed!r}")
        else:
            if not kinetic > 0.0:
                raise DomainError(f"kinetic energy must be positive, got {kinetic!r}")
            # refuses an infinite energy, or one that gives v >= 1
            speed_from_kinetic(kinetic, mass)

    @classmethod
    def electron(
        cls,
        kinetic_energy_eV: float | None = None,
        speed: float | None = None,
    ) -> "Particle":
        return cls(1.0, CONSTANTS.electron_mass_eV, kinetic_energy_eV, speed)

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
    return FluctuationResult(variance, rms, rms_voltage, regime, terms_used, tail)


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
    z0, b, v = seg.z0, seg.b, seg.v
    lower = 2.0 * v * z0 / _SQRT3
    pole = 2.0 * v * z0 / (1.0 - v)
    return WindowReport(b, lower, z0, pole, lower <= b <= z0, b < lower)


def _window_flags(seg: PathSegment) -> tuple[str, ...]:
    """The regime flags of validity_window's edges, without building its report."""
    flags: tuple[str, ...] = ()
    if seg.b < 2.0 * seg.v * seg.z0 / _SQRT3:
        flags += ("below_window",)
    if seg.b > seg.z0:
        flags += ("beyond_window",)
    return flags


def _cone_index(seg: PathSegment, a: float) -> int:
    """n_U, the first image index n >= 1 with U = v (2an - 2(z0+b)) / b >=
    _TAIL_REFERENCE_U. Raises DomainError first when v lies outside the
    exact forms' range, since U divides by v."""
    v, b, z1 = seg.v, seg.b, seg.z0 + seg.b
    _check_v(v)
    n_u = math.ceil((_TAIL_REFERENCE_U * b / v + 2.0 * z1) / (2.0 * a))
    while v * (2.0 * a * n_u - 2.0 * z1) / b < _TAIL_REFERENCE_U:
        n_u += 1
    return n_u


def variance_one_plate(particle: Particle, seg: PathSegment) -> FluctuationResult:
    """Exact <(Delta U)^2> = q^2 v^4 I(z0, b, v) / pi^2 for one plate.

    The segment's speed must match the particle's. An uncharged particle
    returns a zero result flagged "neutral".
    """
    v = particle.speed or particle.speed_value
    if abs(v - seg.v) > _SPEED_MATCH_RTOL * v:
        _check_speed_match(particle, seg)
    flags = ("exact", "one_plate") + _window_flags(seg)
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    q = particle.charge_natural
    integral = one_plate_integral(seg)
    variance = q * q * seg.v**4 * integral / _PI_SQUARED
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
    if not _LENGTH_MIN <= z0 <= _LENGTH_MAX:
        check_length("starting distance z0", z0)
    v = particle.speed or particle.speed_value
    if not _SMALLV_MIN <= v <= _SMALLV_WARN:
        _check_small_speed(v)
        _warn_small_speed(v)
    flags = ("small_v", "one_plate")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    rms = abs(particle.charge_natural) * v / (2.0 * math.pi * z0)
    return _result(rms * rms, particle.charge_e, flags)


def variance_two_plate_exact(
    particle: Particle,
    seg: PathSegment,
    a: float,
    control: SummationControl = SummationControl(),
) -> FluctuationResult:
    """Exact two-plate <(Delta U)^2> by summing image contributions.

    The n=0 one-plate term plus reflected and translated image integrals in
    symmetric pairs n, -n (images._two_plate_sum). From a reference index
    n_ref = max(9, n_U) on, n_U the first index past the light cone by
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
    no pair up to control.n_max certifies, and at once, without loading the
    image engine (casvolt.images), when control.n_max < n_ref. The flight
    must stay between the plates, 0 < z0 and z0 + b < a, and v must lie in
    (1e-6, 0.99).
    """
    # z0 + b >= 2 _LENGTH_MIN, so this one comparison holds a in the window too
    if not seg.z0 + seg.b < a <= _LENGTH_MAX:
        check_separation(a)
        raise DomainError(
            f"flight must stay between the plates: z0 + b = {seg.z0 + seg.b!r} "
            f"reaches a = {a!r}"
        )
    v = particle.speed or particle.speed_value
    if abs(v - seg.v) > _SPEED_MATCH_RTOL * v:
        _check_speed_match(particle, seg)
    flags = ("exact", "two_plate") + _window_flags(seg)
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    n_u = _cone_index(seg, a)
    n_ref = max(_REFERENCE_FLOOR, n_u)
    if control.n_max < n_ref:
        raise _refusal(control.tol, control.n_max, math.inf)
    global _images
    if _images is None:
        from . import images as _images
    q = particle.charge_natural
    prefactor = q * q * seg.v**4 / _PI_SQUARED
    summed = _images._two_plate_sum(seg, a, control, n_u, n_ref)
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

    Valid for short flights well inside the validity window. The sine takes
    the distance to the nearer plate. From z0 = a/32 on it is folded through
    far = max(z0, a - z0) before taking near = a - far: far is the same
    float whether the caller passes z0 or a - z0 (the operand above a/2
    subtracts exactly), so the mirror symmetry z0 <-> a - z0 holds to the
    last bit. Below a/32 near is z0 itself, which keeps its relative
    precision however small z0 / a is (>= 1e-120 in the length window, so
    sin^2 stays a normal double).
    """
    # one comparison holds z0 and a in the window, z0 below a
    if not _LENGTH_MIN <= z0 < a <= _LENGTH_MAX:
        check_separation(a)
        check_length("starting point z0", z0)
        raise DomainError(
            f"starting point must lie strictly between the plates, got z0={z0!r}, a={a!r}"
        )
    v = particle.speed or particle.speed_value
    if not _SMALLV_MIN <= v <= _SMALLV_WARN:
        _check_small_speed(v)
        _warn_small_speed(v)
    flags = ("small_v", "two_plate")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    near = z0 if z0 < _FOLD_MIN * a else a - max(z0, a - z0)
    csc2 = 1.0 / math.sin(math.pi * (near / a)) ** 2
    q = particle.charge_natural
    variance = q * q * v * v / (12.0 * a * a) * (1.0 + 3.0 * csc2)
    return _result(variance, particle.charge_e, flags)
