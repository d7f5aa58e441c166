"""Independent numerical checks for the closed-form results.

Everything in this module recomputes quantities from their defining double
integrals, derivative identities or image series, sharing no algebra with
closed_forms beyond the integrand kernels themselves, which the quadrature
writes out inline in pure Python; the truncated series
are plain sums with integral-test tail bounds, and brute_dual_correlator
adds the dual-plate images one by one where production has a closed form.
The adaptive quadrature refuses domains that contain the light-cone pole
(it cannot take principal values), reporting the threshold flight distance
at which the pole enters; the Richardson derivative check differentiates
the squares production evaluates, F(z0, z1) = the kernel integrated over
[z0, z1]^2, numerically and compares d^2 F / dz0 dz1 with
-[K(z0, z1) + K(z1, z0)].
"""
from __future__ import annotations

import heapq
import math
import random
import sys
import time

from . import _EXPORTS
from .closed_forms import (
    PathSegment,
    _check_small_speed,
    _reflection_square,
    _translation_square,
    one_plate_kernel,
    translated_image_kernel,
)
from .errors import (
    CasvoltError,
    ConvergenceError,
    DomainError,
    PoleInsideDomainError,
    check_separation,
    record,
)
from .variance import FluctuationResult, Particle, _result

__all__ = list(_EXPORTS["oracle"])


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and their weights of the n-point Gauss-Legendre rule
    on [-1, 1], for even n.

    Each positive root of P_n takes eight Newton steps from the guess
    cos(pi (i + 3/4) / (n + 1/2)), which leave it converged to rounding for
    n <= 16, with P_n and P_{n-1} from the recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2} and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1); its weight is
    2 / [(1 - x^2) P_n'(x)^2]. The negative half mirrors the positive one.
    """
    def legendre(x: float) -> tuple[float, float]:
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
        _, dp = legendre(x)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    rule = [(-x, w) for x, w in half] + [(x, w) for x, w in reversed(half)]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


_LOW_NODES, _LOW_WEIGHTS = _gauss_legendre(8)
_HIGH_NODES, _HIGH_WEIGHTS = _gauss_legendre(16)
# patch error estimates are floored at this multiple of the patch's integral,
# which is its absolute integral since the kernels are positive, so that the
# rounding accumulated over the 256-point sums stays covered
_NOISE_FLOOR = 300.0 * sys.float_info.epsilon
# the adaptive quadrature refines until its error estimate is within this
# fraction of the value, and gives up after this many subdivisions: verify's
# squares take at most 3, one-plate squares at b = (1 - 1e-6) b* up to about
# 140 and closer ones thousands. At about 0.4 ms each the cap stops a runaway
# within seconds and tens of MB (docs/decisions.md, "The two-plate tail forms
# zeta directly").
_QUAD_REL_TOL = 1e-10
_QUAD_MAX_SUBDIVISIONS = 10**4
# Richardson levels of the derivative check; the relative gates that
# run_verification applies to its quadrature and derivative checks
_RICHARDSON_LEVELS = 7
_QUAD_GATE = 1e-7
_DERIV_GATE = 1e-6


@record
class QuadratureResult:
    """Integral value with a conservative error estimate."""

    value: float
    error_estimate: float
    subdivisions: int


def _rule_sum(xs, ys, weights, v2: float, sign: float, shift: float) -> float:
    """sum_ij w_i w_j K(x_i, y_j) for the kernel
    K(z, z') = 1/[(z - z')^2 - v2 ((z + sign z') - shift)^2]^2.

    The one-plate kernel is sign = +1, shift = 0, the reflected image of
    index n sign = +1, shift = 2an and the translated image sign = -1,
    shift = 2an. The kernel is written out in the loop, since a function
    call per point costs more than the point, and s = (z + sign z') - shift
    is associated as one_plate_kernel, reflected_image_kernel and
    translated_image_kernel associate it.
    """
    columns = [(w, y, sign * y) for w, y in zip(weights, ys)]
    total = 0.0
    for wx, x in zip(weights, xs):
        row = 0.0
        for wy, y, sy in columns:
            d = x - y
            s = (x + sy) - shift
            den = d * d - v2 * (s * s)
            row += wy / (den * den)
        total += wx * row
    return total


def _symmetric_rule_sum(xs, weights, v2: float, shift: float) -> float:
    """_rule_sum(xs, xs, weights, v2, +1, shift), forming each off-diagonal
    kernel value once.

    At sign = +1 the kernel is symmetric to the bit, K(x_i, x_j) =
    K(x_j, x_i): x_j - x_i is exactly -(x_i - x_j) and x_j + x_i is
    x_i + x_j, so the sum is its diagonal plus twice its upper triangle.
    """
    nodes = list(zip(weights, xs))
    total = 0.0
    for i, (wx, x) in enumerate(nodes):
        s = (x + x) - shift
        den = v2 * (s * s)
        row = 0.5 * wx / (den * den)
        for wy, y in nodes[i + 1:]:
            d = x - y
            s = (x + y) - shift
            den = d * d - v2 * (s * s)
            row += wy / (den * den)
        total += wx * row
    return 2.0 * total


def _patch(v2: float, sign: float, shift: float,
           x0: float, x1: float, y0: float, y1: float) -> tuple[float, float]:
    """Embedded 8x8 / 16x16 tensor Gauss-Legendre estimates on one patch of
    the kernel of _rule_sum.

    Returns (high-order value, error estimate). The estimate is the
    difference of the two rules, floored at _NOISE_FLOOR times the patch's
    integral; the kernel is positive, so that is its absolute integral. A
    patch on the diagonal of a sign = +1 kernel takes _symmetric_rule_sum.
    """
    hx = 0.5 * (x1 - x0)
    cx = 0.5 * (x1 + x0)
    hy = 0.5 * (y1 - y0)
    cy = 0.5 * (y1 + y0)
    symmetric = sign > 0.0 and x0 == y0 and x1 == y1
    estimates = []
    for nodes, weights in ((_LOW_NODES, _LOW_WEIGHTS), (_HIGH_NODES, _HIGH_WEIGHTS)):
        xs = [cx + hx * t for t in nodes]
        if symmetric:
            total = _symmetric_rule_sum(xs, weights, v2, shift)
        else:
            total = _rule_sum(xs, [cy + hy * t for t in nodes], weights, v2, sign, shift)
        estimates.append(hx * hy * total)
    low, high = estimates
    return high, max(abs(high - low), _NOISE_FLOOR * abs(high))


def _adaptive_quad(v2: float, sign: float, shift: float,
                   x0: float, x1: float, y0: float, y1: float) -> QuadratureResult:
    """Globally adaptive 2-D quadrature of the kernel of _rule_sum: always
    split the worst patch in four.

    The final value is a compensated sum over the surviving patches in a
    fixed spatial order, so results are deterministic.
    """
    value, error = _patch(v2, sign, shift, x0, x1, y0, y1)
    heap = [(-error, 0, x0, x1, y0, y1, value, error)]
    counter = 1
    total = value
    total_error = error
    subdivisions = 0
    while total_error > _QUAD_REL_TOL * abs(total):
        if subdivisions >= _QUAD_MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature did not reach tolerance after {subdivisions} "
                f"subdivisions: value ~ {total:.6e}, error ~ {total_error:.3e}"
            )
        _, _, px0, px1, py0, py1, pval, perr = heapq.heappop(heap)
        total -= pval
        total_error -= perr
        xm = 0.5 * (px0 + px1)
        ym = 0.5 * (py0 + py1)
        for qx0, qx1 in ((px0, xm), (xm, px1)):
            for qy0, qy1 in ((py0, ym), (ym, py1)):
                qval, qerr = _patch(v2, sign, shift, qx0, qx1, qy0, qy1)
                heapq.heappush(heap, (-qerr, counter, qx0, qx1, qy0, qy1, qval, qerr))
                counter += 1
                total += qval
                total_error += qerr
        subdivisions += 1
    patches = sorted(heap, key=lambda item: (item[2], item[4]))
    return QuadratureResult(
        value=math.fsum(item[6] for item in patches),
        error_estimate=math.fsum(item[7] for item in patches),
        subdivisions=subdivisions,
    )


def pole_entry_one_plate(z0: float, v: float) -> float:
    """Flight distance at which the reflected light cone enters the square:
    b* = 2 v z0 / (1 - v)."""
    return 2.0 * v * z0 / (1.0 - v)


def pole_entry_reflected(z0: float, v: float, a: float, n: int) -> float:
    """Pole-entry flight distance for the reflected image at index n.

    For n >= 1 the locus |z - z'| = v |z + z' - 2an| first touches the
    square's corner when b = 2 v (an - z0) / (1 + v); for n <= -1 when
    b = 2 v (a|n| + z0) / (1 - v).
    """
    check_separation(a)
    if n == 0:
        raise DomainError("image index n must be nonzero")
    if n > 0:
        return 2.0 * v * (a * n - z0) / (1.0 + v)
    return 2.0 * v * (a * abs(n) + z0) / (1.0 - v)


def pole_entry_translated(v: float, a: float, n: int) -> float:
    """Pole-entry flight distance for the translated image at index n:
    b = 2 a |n| v / (1 + v), independent of z0."""
    check_separation(a)
    if n == 0:
        raise DomainError("image index n must be nonzero")
    return 2.0 * a * abs(n) * v / (1.0 + v)


def _quad_square(seg: PathSegment, threshold: float, pole: str,
                 sign: float, shift: float) -> QuadratureResult:
    """The kernel of _rule_sum at v2 = v^2, sign and shift integrated over
    [z0, z0+b]^2, or PoleInsideDomainError, its message led by pole, once b
    reaches the pole's entry threshold."""
    if seg.b >= threshold:
        raise PoleInsideDomainError(
            f"{pole}: b = {seg.b!r} reaches the entry threshold {threshold!r}",
            threshold=threshold,
        )
    lo, hi = seg.z0, seg.z0 + seg.b
    return _adaptive_quad(seg.v * seg.v, sign, shift, lo, hi, lo, hi)


def quad_one_plate(seg: PathSegment) -> QuadratureResult:
    """The one-plate double integral, by adaptive quadrature.

    Integrates 1/[(z-z')^2 - v^2 (z+z')^2]^2 over [z0, z0+b]^2. Refuses
    domains containing the light-cone pole, since the plain integral
    diverges there while the closed form continues through it.
    """
    return _quad_square(seg, pole_entry_one_plate(seg.z0, seg.v),
                        "light-cone pole inside the integration square", 1.0, 0.0)


def quad_image(seg: PathSegment, a: float, n: int, family: str) -> QuadratureResult:
    """An image-term double integral, by adaptive quadrature.

    family "reflected" integrates 1/[(z-z')^2 - v^2 (z+z'-2an)^2]^2 and
    family "translated" integrates 1/[(z-z')^2 - v^2 (z-z'-2an)^2]^2 over
    [z0, z0+b]^2. Refuses domains containing the image's light-cone pole.
    """
    check_separation(a)
    if n == 0:
        raise DomainError("image index n must be nonzero")
    if family == "reflected":
        threshold = pole_entry_reflected(seg.z0, seg.v, a, n)
        sign = 1.0
    elif family == "translated":
        threshold = pole_entry_translated(seg.v, a, n)
        sign = -1.0
    else:
        raise DomainError(
            f"family must be 'reflected' or 'translated', got {family!r}"
        )
    pole = f"image light-cone pole inside the integration square for family {family!r}, n={n}"
    return _quad_square(seg, threshold, pole, sign, 2.0 * a * n)


@record
class DerivativeReport:
    """Outcome of one Richardson mixed-derivative identity check."""

    converged: bool
    relative_error: float
    observed_order: float
    extrapolated: float
    reference: float
    message: str = ""


def _mixed_difference(g, z: float, zp: float, h: float) -> float:
    return (
        g(z + h, zp + h) - g(z + h, zp - h) - g(z - h, zp + h) + g(z - h, zp - h)
    ) / (4.0 * h * h)


def _observed_order(raw: list[float]) -> float:
    orders = []
    for k in range(len(raw) - 2):
        num = abs(raw[k] - raw[k + 1])
        den = abs(raw[k + 1] - raw[k + 2])
        if den > 0.0 and num > 0.0:
            ratio = num / den
            if ratio > 0.0:
                orders.append(math.log2(ratio))
    if not orders:
        return math.nan
    orders.sort()
    return orders[len(orders) // 2]


def deriv_check(
    family: str,
    z: float,
    z_prime: float,
    v: float,
    a: float | None = None,
    n: int | None = None,
    square=None,
) -> DerivativeReport:
    """Check d^2 F / dz0 dz1 of a production square against its kernel.

    F(z0, z1) is the kernel K integrated over [z0, z1]^2, so
    d^2 F / dz0 dz1 = -[K(z0, z1) + K(z1, z0)]. Family "reflection" takes
    F = _reflection_square(z0, z1 - z0, v) against -2 K for the symmetric
    one-plate kernel; family "translation" takes
    F = _translation_square(z1 - z0, v, |n| a v) against the translated
    kernel of index n at (z0, z1) plus at (z1, z0). The point (z, z') is
    taken as z0 < z1; both sides are symmetric under the swap. square
    replaces the production square, with its signature.

    Central mixed differences at step sizes h0 / 2^k, h0 = 0.05 |z - z'|,
    are Richardson extrapolated and compared with the kernel sum; the check
    converges when they agree to 1e-6 relative. Evaluation failures (a
    stencil point touching a singular locus) are reported as a non-converged
    result rather than raised, so grid sweeps can continue past bad points.
    """
    z0, z1 = min(z, z_prime), max(z, z_prime)
    if family == "reflection":
        target = square or _reflection_square
        g = lambda x, y: target(x, y - x, v)
        kernel = lambda: -2.0 * one_plate_kernel(z0, z1, v)
    elif family == "translation":
        if a is None or not n:
            raise DomainError(
                "translation checks need the plate separation a and a nonzero index n"
            )
        check_separation(a)
        target = square or _translation_square
        nav = abs(n) * a * v
        g = lambda x, y: target(y - x, v, nav)
        kernel = lambda: -(translated_image_kernel(z0, z1, v, a, n)
                           + translated_image_kernel(z1, z0, v, a, n))
    else:
        raise DomainError(
            f"family must be 'reflection' or 'translation', got {family!r}"
        )
    # large enough that rounding noise amplified by 1/(4 h^2) at the finest
    # level stays far below the truncation the tableau removes
    h0 = 0.05 * abs(z - z_prime)
    if not h0 > 0.0:
        raise DomainError(
            f"derivative checks need two distinct points, got z={z!r}, z'={z_prime!r}"
        )
    try:
        reference = kernel()
        raw = [_mixed_difference(g, z0, z1, h0 / 2.0**k) for k in range(_RICHARDSON_LEVELS)]
    except (CasvoltError, ZeroDivisionError, OverflowError) as exc:
        return DerivativeReport(
            converged=False,
            relative_error=math.inf,
            observed_order=math.nan,
            extrapolated=math.nan,
            reference=math.nan,
            message=f"evaluation failed at or around the point: {exc}",
        )
    column = raw
    for j in range(1, _RICHARDSON_LEVELS):
        fac = 4.0**j
        column = [
            (fac * column[k + 1] - column[k]) / (fac - 1.0)
            for k in range(len(column) - 1)
        ]
    extrapolated = column[0]
    denom = abs(reference) if reference != 0.0 else 1.0
    rel = abs(extrapolated - reference) / denom
    return DerivativeReport(
        converged=rel <= _DERIV_GATE,
        relative_error=rel,
        observed_order=_observed_order(raw),
        extrapolated=extrapolated,
        reference=reference,
    )


def brute_dual_correlator(
    t: float, z: float, t_prime: float, z_prime: float, a: float, n_terms: int = 10**6
) -> float:
    """Dual-plate correlator by direct summation of n_terms image pairs.

    No tail logic, no convergence gating; used to cross-check the production
    closed form, correlator_dual_plate, on benign points.
    """
    import numpy as np

    check_separation(a)
    dt = t - t_prime
    dz = z - z_prime
    sz = z + z_prime
    base = 1.0 / (dt * dt - sz * sz) ** 2
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    total = 0.0
    for sign in (1.0, -1.0):
        offset = 2.0 * a * sign * ns
        for sep_base in (dz, sz):
            sep = sep_base - offset
            factors = dt * dt - sep * sep
            total += float(np.sum(1.0 / (factors * factors)))
    return (base + total) / math.pi**2


@record
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


def variance_two_plate_series_smallv(
    particle: Particle, z0: float, a: float, terms: int = 10000
) -> FluctuationResult:
    """Small-v two-plate variance as a truncated image series (b -> 0 limit).

    q^2 v^4 / pi^2 times the n=0 term 1/(4 v^2 z0^2) plus, for each image
    pair 1 <= n <= terms, [1/(an - z0)^2 + 1/(an + z0)^2 + 2/(an)^2] / (4 v^2).
    With x = z0/a that pair term is [1/(n-x)^2 + 1/(n+x)^2 + 2/n^2] / (4 a^2
    v^2): the csc_identity(x) series plus the zeta_two_series one. So
        value = q^2 v^2 / (4 pi^2) [1/z0^2 + (S_csc + S_zeta) / a^2]
    and tail_estimate_eV2 = q^2 v^2 / (4 pi^2 a^2) (tail_csc + tail_zeta),
    their integral-test bounds on the dropped terms. Both series collapse
    to the csc^2 closed form of variance_two_plate_smallv, which must agree
    with this within tail_estimate_eV2. Like it, this refuses speeds below
    the small-v forms' floor, 1e-22.
    """
    check_separation(a)
    if not 0.0 < z0 < a:
        raise DomainError(
            f"starting point must lie strictly between the plates, got z0={z0!r}, a={a!r}"
        )
    v = particle.speed_value
    _check_small_speed(v)
    flags = ("small_v", "two_plate", "series")
    if particle.charge_e == 0.0:
        return _result(0.0, 0.0, flags + ("neutral",))
    reflected = csc_identity(z0 / a, terms)
    translated = zeta_two_series(terms)
    q = particle.charge_natural
    prefactor = q * q * v * v / (4.0 * math.pi**2)
    images = (reflected.series_value + translated.series_value) / (a * a)
    return _result(
        prefactor * (1.0 / (z0 * z0) + images),
        particle.charge_e,
        flags,
        terms_used=terms,
        tail=prefactor * (reflected.tail_bound + translated.tail_bound) / (a * a),
    )


@record
class CheckResult:
    """One named verification check with its worst observed deviation."""

    name: str
    passed: bool
    worst: float
    detail: str


@record
class VerificationReport:
    """Aggregated self-verification outcome."""

    seed: int
    elapsed_s: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [{name: getattr(check, name) for name in check._fields}
                       for check in self.checks],
        }


def _closed_reflection(seg: PathSegment, base: float, square=_reflection_square) -> float:
    """The reflection square production evaluates, over the quadrature's
    square shifted to start at base: the one-plate integral at base z0, the
    reflected image n at base z0 - a n.

    The quadrature integrates over [z0, fl(z0 + b)]^2, whose side
    fl(z0 + b) - z0 is exact in floating point and can differ from b by half
    an ulp of z0 + b, which is 1e-13 of the integral at b = 1e-3 z0, so the
    closed form takes that same side. square replaces the production square.
    """
    return square(base, (seg.z0 + seg.b) - seg.z0, seg.v)


def _closed_translated(seg: PathSegment, a: float, n: int) -> float:
    """The translated square production evaluates, over the quadrature's side."""
    return _translation_square((seg.z0 + seg.b) - seg.z0, seg.v, abs(n) * a * seg.v)


def _sample_one_plate(rng: random.Random) -> PathSegment:
    z0 = rng.uniform(0.2, 2.0)
    v = rng.uniform(0.003, 0.2)
    b = rng.uniform(0.2, 1.0) * 0.8 * pole_entry_one_plate(z0, v)
    return PathSegment(z0=z0, b=b, v=v)


# the derivative grids must stay clear of the kernels' singular loci, where
# higher derivatives blow up and no finite-difference step is good; points
# closer than this relative margin to |z - z'| = v |separation| are resampled
_DERIV_MARGIN = 0.3


def _clear_of_locus(delta_sq: float, image_sq: float) -> bool:
    return abs(delta_sq - image_sq) >= _DERIV_MARGIN * max(delta_sq, image_sq)


def _sample_points(rng: random.Random) -> tuple[float, float, float]:
    """z in [0.5, 2], z' 0.2 to 0.8 from it and above 0.1, and a speed v."""
    while True:
        z = rng.uniform(0.5, 2.0)
        zp = z + rng.choice((1.0, -1.0)) * rng.uniform(0.2, 0.8)
        if zp > 0.1:
            return z, zp, rng.uniform(0.05, 0.3)


def _sample_reflection_point(rng: random.Random) -> tuple[float, float, float]:
    while True:
        z, zp, v = _sample_points(rng)
        if _clear_of_locus((z - zp) ** 2, (v * (z + zp)) ** 2):
            return z, zp, v


def _sample_translation_point(rng: random.Random) -> tuple[float, float, float, float, int]:
    while True:
        z, zp, v = _sample_points(rng)
        a = rng.uniform(0.8, 1.5)
        n = rng.choice((1, 2, -1, -2))
        # the square's mixed derivative takes the kernel at (z, z') and at
        # (z', z), so both orderings must stay clear of the locus
        if all(_clear_of_locus(delta * delta, (v * (delta - 2.0 * a * n)) ** 2)
               for delta in (z - zp, zp - z)):
            return z, zp, v, a, n


def _sample_image(rng: random.Random, family: str) -> tuple[PathSegment, float, int]:
    a = rng.uniform(0.5, 2.0)
    z0 = a * rng.uniform(0.05, 0.45)
    v = rng.uniform(0.003, 0.2)
    n = rng.choice((1, 2, 3, -1, -2, -3))
    if family == "reflected":
        threshold = pole_entry_reflected(z0, v, a, n)
    else:
        threshold = pole_entry_translated(v, a, n)
    b = rng.uniform(0.2, 1.0) * 0.8 * min(threshold, a - z0)
    return PathSegment(z0=z0, b=b, v=v), a, n


def _worst(values) -> float:
    """The largest of values and 0.0, or nan when any value is nan. max()
    drops a nan that comes after another value, and `nan > gate` is false,
    so without this a nan deviation would pass its gate."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max([0.0, *values])


def run_verification(
    seed: int = 12345,
    sets_per_family: int = 50,
    grid_points: int = 20,
    reflection_override=None,
) -> VerificationReport:
    """Re-derive the closed forms from quadrature, derivatives, and series.

    Runs, with a seeded generator: quadrature-versus-closed-form agreement
    on sets_per_family pole-free parameter sets for the one-plate integral
    and for each image family (relative gate 1e-7, expected 1e-12 or
    better); error-estimate conservativeness on the same cases; Richardson
    derivative identity checks (deriv_check) on grid_points off-singular
    points per square (gate 1e-6); and the series identities behind the
    small-v closed form, gated by their analytic tail bounds. Raises
    DomainError when sets_per_family or grid_points is below 1.

    reflection_override substitutes a deliberately wrong reflection square,
    with the production square's signature, on both the quadrature and the
    derivative side, for exercising the failure path end to end.
    """
    if sets_per_family < 1 or grid_points < 1:
        raise DomainError(
            f"verification needs at least one case per check, got "
            f"sets_per_family={sets_per_family!r}, grid_points={grid_points!r}"
        )
    reflection = reflection_override or _reflection_square
    start = time.perf_counter()
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def one_plate() -> tuple[float, QuadratureResult]:
        seg = _sample_one_plate(rng)
        return _closed_reflection(seg, seg.z0, reflection), quad_one_plate(seg)

    def reflected() -> tuple[float, QuadratureResult]:
        seg, a, n = _sample_image(rng, "reflected")
        return (_closed_reflection(seg, seg.z0 - a * n, reflection),
                quad_image(seg, a, n, "reflected"))

    def translated() -> tuple[float, QuadratureResult]:
        seg, a, n = _sample_image(rng, "translated")
        return _closed_translated(seg, a, n), quad_image(seg, a, n, "translated")

    rows: list[tuple[str, float, QuadratureResult]] = []
    for name, case in (
        ("quad_one_plate_vs_closed", one_plate),
        ("quad_reflected_vs_closed", reflected),
        ("quad_translated_vs_closed", translated),
    ):
        cases = [case() for _ in range(sets_per_family)]
        worst = _worst(abs(quad.value - closed) / abs(closed) for closed, quad in cases)
        checks.append(CheckResult(
            name=name,
            passed=worst <= _QUAD_GATE,
            worst=worst,
            detail=f"{len(cases)} cases, worst relative deviation {worst:.3e} "
            f"(gate {_QUAD_GATE:.0e})",
        ))
        rows += [(name, closed, quad) for closed, quad in cases]

    # a row fails unless its deviation lies within the allowance, a nan
    # deviation too; a failing row's ratio exceeds 1 or is nan, so the check
    # passes while the worst is 0, and names the first row at the worst
    failing = []
    for name, closed, quad in rows:
        deviation = abs(quad.value - closed)
        # the closed form itself carries rounding (a few ulps for the
        # production squares), so the estimate only has to cover the
        # deviation beyond that reference allowance
        allowed = quad.error_estimate + _NOISE_FLOOR * abs(closed)
        if not deviation <= allowed:
            failing.append((deviation / allowed, f"{name}: deviation {deviation:.3e} exceeds "
                            f"estimate {quad.error_estimate:.3e} plus reference allowance"))
    worst_ratio = _worst(ratio for ratio, _ in failing)
    detail = next((text for ratio, text in failing
                   if ratio == worst_ratio or math.isnan(ratio)),
                  "true error never exceeded the reported estimate")
    checks.append(
        CheckResult("quad_error_estimates_conservative", worst_ratio == 0.0, worst_ratio, detail)
    )

    for name, family, sample, square in (
        ("deriv_reflection_identity", "reflection", _sample_reflection_point, reflection),
        ("deriv_translation_identity", "translation", _sample_translation_point, None),
    ):
        reports = [deriv_check(family, *sample(rng), square=square) for _ in range(grid_points)]
        worst = _worst(report.relative_error for report in reports)
        checks.append(CheckResult(
            name=name,
            passed=all(report.converged for report in reports),
            worst=worst,
            detail=f"{grid_points} points, worst relative error {worst:.3e} "
            f"(gate {_DERIV_GATE:.0e})",
        ))

    series = [(f"x={x:.4g}", csc_identity(x, terms=10000)) for x in (0.25, 1.0 / 3.0, 0.5, 0.9)]
    series.append(("zeta2", zeta_two_series(terms=10000)))
    gaps = [(label, abs(c.closed_form - c.series_value), c.tail_bound) for label, c in series]
    checks.append(CheckResult(
        name="series_identities_within_tail_bounds",
        passed=all(gap <= bound for _, gap, bound in gaps),
        worst=_worst(gap / bound for _, gap, bound in gaps),
        detail="; ".join(f"{label}: gap {gap:.3e} <= bound {bound:.3e}"
                         for label, gap, bound in gaps),
    ))

    return VerificationReport(
        seed=seed, elapsed_s=time.perf_counter() - start, checks=tuple(checks)
    )
