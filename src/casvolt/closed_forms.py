"""Closed-form segment-square integrals of the worldline kernels.

A charged particle crossing the vacuum gap traverses the straight segment
z0 -> z0+b at constant speed v (worldline t = z/v). The variance of the work
done by the fluctuating field reduces to double integrals over the segment of
three kernel families:

    one-plate:        1/[(z-z')^2 - v^2 (z+z')^2]^2
    reflected image:  1/[(z-z')^2 - v^2 (z+z' - 2an)^2]^2
    translated image: 1/[(z-z')^2 - v^2 (z-z' - 2an)^2]^2

Each kernel is the mixed second derivative d^2/dz dz' of a closed-form
antiderivative. With l(p, q) = log p^2 - log q^2 these are
    one-plate:   [8 v z z' + (1-v^2)(z^2-z'^2) l(A, B)] / (128 v^3 (z z')^2),
                 A = (1+v) z' + (v-1) z, B = (1+v) z + (v-1) z';
    translated:  [8 n a v + ((1-v^2)(z-z') + 2 n a v^2) l(P, Q)] / (64 (n a v)^3),
                 P = (1+v)(z'-z) + 2 n a v, Q = (1-v)(z-z') + 2 n a v;
and the reflected image is the one-plate form shifted by -a n. The double
integral over the square [z0, z0+b]^2 is then a four-corner difference,
which stays meaningful even when the kernel's singular locus crosses the
square (the integral is then defined by the antiderivative, not by a
convergent Riemann integral). The corners share their log arguments and
their other parts cancel exactly, so each square is evaluated in collapsed
form, with one log ratio per pair of off-diagonal corners and no
cancellation between corners (_reflection_square, _translation_square).
The oracle checks these squares against the kernels they integrate, and
images sums them over the two-plate images.

All lengths are natural units (1/eV); integral values carry eV^2.
"""
from __future__ import annotations

import math
import warnings

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

__all__ = list(_EXPORTS["closed_forms"])

# Evaluation limits for the exact squares. The collapsed squares keep their
# precision far below _V_MIN: at 300 random points per speed off the locus,
# _reflection_square and _translation_square were within 1.4e-15 of the same
# formulas at 80 digits at v = 1e-4, and within 8.9e-16 at v = 1e-12. What
# holds exact evaluations above 1e-6 is the two-plate sum, which forms every
# pair up to about 1.25 b / (a v), so its work grows like 1/v: 62,503 and
# 312,503 pairs at v = 2e-6 for a = 1, (z0, b) = (0.3, 0.1) and (0.1, 0.5).
# Below the limit, use the small-v operations. The construction also assumes
# distinctly sub-luminal motion, so v >= 0.99 is rejected.
_V_MIN = 1e-6
_V_MAX = 0.99

# the small-v forms here and in variance warn at speeds above this one
_SMALLV_WARN = 0.1
# and refuse speeds below this one. The segment form multiplies v^2 by a
# fourth power of lengths, 8 v^2 (z0 (z0 + b))^2, and the variances square
# q v / z0 and q v / a. With every length at errors' lower edge 1e-60 the
# segment form leaves the normal doubles below v ~ 3e-35; the variances
# hold to v ~ 1e-93. The floor keeps 12 decades above that edge, as the
# length window does from its edges; an electron at this speed has
# K = 2.6e-39 eV.
_SMALLV_MIN = 1e-22


def _check_small_speed(v: float) -> None:
    """Raise DomainError when v lies below the small-v forms' floor."""
    if not v >= _SMALLV_MIN:
        raise DomainError(
            f"speed v={v!r} below {_SMALLV_MIN:g}, the least the small-v forms evaluate"
        )


def _warn_small_speed(v: float) -> None:
    """Warn, at the caller of the small-v form that calls this, when v is
    above _SMALLV_WARN."""
    if v > _SMALLV_WARN:
        warnings.warn(
            f"small-v formula evaluated at v={v}: accuracy degrades above v ~ {_SMALLV_WARN}",
            stacklevel=3,
        )


# a corner sits "on the singular locus" when a log argument is smaller than
# this fraction of its natural magnitude scale
_POLE_TOUCH_EPS = 1e-10


@record
class PathSegment:
    """Straight worldline segment: start z0 and length b, each a length in
    errors' window (positive and finite), and speed v in (0, 1)."""

    z0: float
    b: float
    v: float

    def __post_init__(self) -> None:
        # one comparison on the way through; the labelled checks only raise
        z0, b, v = self.z0, self.b, self.v
        if not (_LENGTH_MIN <= z0 <= _LENGTH_MAX and _LENGTH_MIN <= b <= _LENGTH_MAX
                and 0.0 < v < 1.0):
            check_length("segment start z0", z0)
            check_length("segment length b", b)
            raise DomainError(f"speed v must lie in (0, 1), got {v!r}")


def _check_v(v: float) -> None:
    if not _V_MIN < v < _V_MAX:
        raise DomainError(
            f"speed v={v!r} outside the supported range ({_V_MIN}, {_V_MAX}); "
            "use the small-v operations below it"
        )


def _on_locus(first: float, second: float, touch_scale: float) -> None:
    """Raise SingularityError when either log argument lies within
    _POLE_TOUCH_EPS * touch_scale of zero: the singular locus."""
    tol = _POLE_TOUCH_EPS * touch_scale
    if abs(first) < tol or abs(second) < tol:
        raise SingularityError(
            "evaluation point lies on the kernel's singular locus "
            f"(log argument {min(abs(first), abs(second)):.3e} below tolerance {tol:.3e})",
            factor=min(abs(first), abs(second)),
            threshold=tol,
        )


def _log_ratio(p: float, q: float, ds: float) -> float:
    """log p^2 - log q^2, given ds = d s with d = p - q and s = p + q each
    formed without cancellation.

    |p| - |q| = d s / (|p| + |q|), so with m the smaller of |p| and |q| the
    ratio is 2 log1p(|d s| / ((|p| + |q|) m)), signed as d s: one log of a
    nonnegative argument, as accurate as p and q are whether they share a
    sign or not and however far apart their magnitudes lie.
    """
    abs_p, abs_q = abs(p), abs(q)
    return 2.0 * math.copysign(math.log1p(abs(ds) / ((abs_p + abs_q) * min(abs_p, abs_q))), ds)


def _reflection_square(base: float, b: float, v: float) -> float:
    """One-plate kernel integrated over the square [base, base + b]^2.

    The corner difference of the one-plate antiderivative, collapsed: its two
    off-diagonal corners share the log ratio l(X, Y) = log X^2 - log Y^2,
    X = 2 v base - (1-v) b, Y = X + 2 b, and its diagonal and 8 v z z'
    parts sum exactly to b^2 / (16 v^2 (base top)^2), top = base + b:
        b [4 v b - (1-v^2)(base + top) l(X, Y)] / (64 v^3 (base top)^2).
    Both parts are nonnegative when base and top share a sign, so nothing
    cancels. X and Y are formed as the corner (top, base) forms them, so a
    refusal reports that log argument; X - Y and X + Y are exact. Raises
    SingularityError when X or Y lies on the singular locus. The locus test
    and the log ratio are _on_locus's and _log_ratio's, written inline;
    _on_locus is called only to raise.
    """
    top = base + b
    x = 2.0 * v * top - (1.0 + v) * b
    y = 2.0 * v * top + (1.0 - v) * b
    ax, ay = abs(x), abs(y)
    least = ax if ax < ay else ay
    touch_scale = v * (abs(top) + abs(base)) + b
    if least < _POLE_TOUCH_EPS * touch_scale:
        _on_locus(x, y, touch_scale)
    ds = -2.0 * b * (2.0 * v * (base + top))
    ell = 2.0 * math.copysign(math.log1p(abs(ds) / ((ax + ay) * least)), ds)
    return b * (4.0 * v * b - (1.0 - v * v) * (base + top) * ell) / (64.0 * v**3 * (base * top) ** 2)


def _translation_square(b: float, v: float, nav: float) -> float:
    """Translated-image kernel of index n integrated over a square of side b,
    given nav = |n| a v > 0 (the integral is even in n).

    The corner difference of the translated antiderivative, collapsed: its
    8 n a v parts cancel exactly, leaving with c = 2 nav
        -[c v (l1 + l2) + (1-v^2) b (l1 - l2)] / (64 nav^3),
    l1 = l(p1, q1) = l(c - (1+v) b, c + (1-v) b), l2 = l(p2, q2) =
    l(c + (1+v) b, c - (1-v) b). l1 + l2 and l1 - l2 are taken as single
    log ratios of products, whose differences -4 v b^2 and -4 c b are exact,
    so that at large n neither is formed from two nearly opposite logs.
    Raises SingularityError when a corner's log argument lies on the
    singular locus.
    """
    c = 2.0 * nav
    p1, q1 = c - (1.0 + v) * b, c + (1.0 - v) * b
    p2, q2 = c + (1.0 + v) * b, c - (1.0 - v) * b
    _on_locus(p1, q1, c + b)
    _on_locus(p2, q2, c + b)
    outer_p, outer_q = p1 * p2, q1 * q2
    cross_p, cross_q = p1 * q2, q1 * p2
    l_sum = _log_ratio(outer_p, outer_q, -4.0 * v * b * b * (outer_p + outer_q))
    l_diff = _log_ratio(cross_p, cross_q, -4.0 * c * b * (cross_p + cross_q))
    return -(c * v * l_sum + (1.0 - v * v) * b * l_diff) / (64.0 * nav**3)


def one_plate_integral(seg: PathSegment) -> float:
    """Double integral of the one-plate kernel over the segment square.

    Evaluated as the collapsed corner difference of the reflection
    antiderivative (_reflection_square). A corner can land on the singular
    locus when b = 2 v z0 / (1-v); that raises SingularityError with
    guidance to perturb b. At extreme length ratios the integral can
    underflow to 0.0 (about 1e-330 at z0 = 5e59, b = 1e-57, v = 1.0000001e-6):
    it is returned as is, and variance_one_plate refuses the variance it gives.
    """
    v = seg.v
    if not _V_MIN < v < _V_MAX:
        _check_v(v)
    try:
        return _reflection_square(seg.z0, seg.b, v)
    except SingularityError as exc:
        exc.args = (
            f"integration corner on the singular locus (b near 2 v z0/(1-v) = "
            f"{2 * seg.v * seg.z0 / (1 - seg.v):.9g}); perturb b slightly. {exc}",
        )
        raise


def one_plate_integral_smallv(seg: PathSegment) -> float:
    """Leading small-v expansion of the one-plate segment integral.

    [z0^2 + (z0+b)^2] / [8 z0^2 (z0+b)^2 v^2]
        + (2 z0 + b)^2 (2 z0^2 + 2 b z0 - b^2) / [24 b^2 z0^2 (z0+b)^2]

    The omitted remainder is of order v^2 in absolute terms, so against the
    exact integral (of order 1/v^2) the relative error is O(v^4). The second
    term grows as 1/b^2 for b -> 0: the expansion needs b well past the
    pole entry 2 v z0 / (1-v), where the exact integral diverges. At z0 = 1,
    v = 0.01 its relative error is 1.5% at twice the pole entry, 0.3% at
    three times, and 7.6 at b = v z0.
    """
    _check_small_speed(seg.v)
    _warn_small_speed(seg.v)
    z0, b = seg.z0, seg.b
    z1 = z0 + b
    lead = (z0 * z0 + z1 * z1) / (8.0 * z0 * z0 * z1 * z1 * seg.v * seg.v)
    # squared after the divide, so that no sixth power of a length is formed
    ratio = (2.0 * z0 + b) / (b * z0 * z1)
    return lead + ratio * ratio * (2.0 * z0 * z0 + 2.0 * b * z0 - b * b) / 24.0


def reflected_image_integral(seg: PathSegment, a: float, n: int) -> float:
    """Segment-square integral of the reflected-image kernel (index n != 0).

    Equals the one-plate integral over the square shifted by -a*n, since
    the kernel only sees z + z' - 2an. The shifted square starts at
    z0 - a*n and keeps the exact side b: shifting both corners first would
    round the side at the magnitude of a*n.
    """
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    _check_v(seg.v)
    base = seg.z0 - a * n
    if base == 0.0 or base + seg.b == 0.0:
        raise DomainError("antiderivative undefined at z = 0 or z' = 0")
    try:
        return _reflection_square(base, seg.b, seg.v)
    except SingularityError as exc:
        exc.args = (f"reflected image n={n}: {exc}",)
        raise


def translated_image_integral(seg: PathSegment, a: float, n: int) -> float:
    """Segment-square integral of the translated-image kernel (index n != 0).

    The kernel only sees z - z', so the integral depends on the side b
    alone and is even in n (_translation_square).
    """
    _check_v(seg.v)
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    try:
        return _translation_square(seg.b, seg.v, abs(n) * a * seg.v)
    except SingularityError as exc:
        exc.args = (f"translated image n={n}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# Defining kernels (accept scalars or numpy arrays; used by the oracle).

def one_plate_kernel(z, z_prime, v: float):
    """1/[(z-z')^2 - v^2 (z+z')^2]^2."""
    return 1.0 / ((z - z_prime) ** 2 - v * v * (z + z_prime) ** 2) ** 2


def reflected_image_kernel(z, z_prime, v: float, a: float, n: int):
    """1/[(z-z')^2 - v^2 (z+z' - 2an)^2]^2."""
    check_separation(a)
    return 1.0 / ((z - z_prime) ** 2 - v * v * (z + z_prime - 2.0 * a * n) ** 2) ** 2


def translated_image_kernel(z, z_prime, v: float, a: float, n: int):
    """1/[(z-z')^2 - v^2 (z-z' - 2an)^2]^2."""
    check_separation(a)
    return 1.0 / ((z - z_prime) ** 2 - v * v * (z - z_prime - 2.0 * a * n) ** 2) ** 2
