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
The oracle checks these squares against the kernels they integrate.

All lengths are natural units (1/eV); integral values carry eV^2.
"""
from __future__ import annotations

import math
import warnings

from . import _EXPORTS
from .errors import DomainError, SingularityError, check_length, check_separation, record

__all__ = list(_EXPORTS["closed_forms"])

# Evaluation limits for the exact squares: below v ~ 1e-6 the 1/v^3
# prefactors destroy all precision in the corner differences (use the small-v
# operations instead); the construction also assumes distinctly sub-luminal
# motion, so v >= 0.99 is rejected.
_V_MIN = 1e-6
_V_MAX = 0.99

# the small-v forms here and in variance warn at speeds above this one
_SMALLV_WARN = 0.1
# and refuse speeds below this one. They form v^2 times fourth powers of
# lengths, 8 v^2 (z0 (z0 + b))^2 and 8 v^2 (d0 d1)^2 in the segment forms and
# 4 (a v n)^2 in the translated one, and the variances square q v / z0 and
# q v / a. With every length at errors' lower edge 1e-60 the segment forms
# leave the normal doubles below v ~ 5e-35; the others hold to v ~ 1e-93.
# The floor keeps 12 decades above 5e-35, as the length window does from
# its edges; an electron at this speed has K = 2.6e-39 eV.
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

# Longest block image_pair_terms forms one index at a time, without numpy:
# a fused pure-Python pass costs 1.7-3.4 us per index; the numpy kernel about
# 55 us at 27 indices, growing to 80-135 us at 299 and 300 us at 1024, so
# below 0.5 us per index from 128 on (docs/decisions.md, "Short pair blocks
# without numpy", "The two-plate tail forms zeta directly"). The least block
# a two-plate sum forms has 16 indices.
_SCALAR_BLOCK = 26

# Most indices image_pair_terms broadcasts in one pass. Its temporaries peak
# at 511 bytes per index (tracemalloc, 1024 indices), so the n_max = 10^6
# pairs a sum may take would need about 510 MB in one pass; pieces of this
# length need 0.5 MB.
_KERNEL_BLOCK = 1024


@record
class PathSegment:
    """Straight worldline segment: start z0 and length b, each a length in
    errors' window (positive and finite), and speed v in (0, 1)."""

    z0: float
    b: float
    v: float

    def __post_init__(self) -> None:
        check_length("segment start z0", self.z0)
        check_length("segment length b", self.b)
        if not 0.0 < self.v < 1.0:
            raise DomainError(f"speed v must lie in (0, 1), got {self.v!r}")


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
    SingularityError when X or Y lies on the singular locus.
    """
    top = base + b
    x = 2.0 * v * top - (1.0 + v) * b
    y = 2.0 * v * top + (1.0 - v) * b
    _on_locus(x, y, v * (abs(top) + abs(base)) + b)
    ell = _log_ratio(x, y, -2.0 * b * (2.0 * v * (base + top)))
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
    guidance to perturb b.
    """
    _check_v(seg.v)
    try:
        return _reflection_square(seg.z0, seg.b, seg.v)
    except SingularityError as exc:
        raise SingularityError(
            f"integration corner on the singular locus (b near 2 v z0/(1-v) = "
            f"{2 * seg.v * seg.z0 / (1 - seg.v):.9g}); perturb b slightly. {exc}",
            factor=exc.factor, threshold=exc.threshold,
        ) from exc


def one_plate_integral_smallv(seg: PathSegment) -> float:
    """Leading small-v expansion of the one-plate segment integral.

    [z0^2 + (z0+b)^2] / [8 z0^2 (z0+b)^2 v^2]
        + (2 z0 + b)^2 (2 z0^2 + 2 b z0 - b^2) / [24 b^2 z0^2 (z0+b)^2]

    The omitted remainder is of order v^2 in absolute terms, so against the
    exact integral (of order 1/v^2) the relative error is O(v^4). The second
    term grows as 1/b^2 for b -> 0: the expansion needs b well past the
    pole entry 2 v z0 / (1-v), where the exact integral peaks. At z0 = 1,
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
        raise SingularityError(
            f"reflected image n={n}: {exc}", factor=exc.factor, threshold=exc.threshold
        ) from exc


def reflected_image_integral_smallv(seg: PathSegment, a: float, n: int) -> float:
    """Leading small-v form of the reflected-image integral.

    [(an - z0)^2 + (an - z0 - b)^2] / [8 v^2 (an - z0)^2 (an - z0 - b)^2],
    the same two-corner average structure as the one-plate expansion with the
    corner offsets an - z0 and an - z0 - b. As b -> 0 this tends to
    1/(4 v^2 (an - z0)^2).
    """
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    _check_small_speed(seg.v)
    d0 = a * n - seg.z0
    d1 = a * n - seg.z0 - seg.b
    if d0 == 0.0 or d1 == 0.0:
        raise DomainError(f"image plane a*n={a * n!r} coincides with a segment endpoint")
    return (d0 * d0 + d1 * d1) / (8.0 * seg.v * seg.v * d0 * d0 * d1 * d1)


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
        raise SingularityError(
            f"translated image n={n}: {exc}", factor=exc.factor, threshold=exc.threshold
        ) from exc


def translated_image_integral_smallv(seg: PathSegment, a: float, n: int) -> float:
    """Leading small-v form of the translated-image integral: 1/(4 a^2 v^2 n^2).

    Independent of the segment geometry; only the image distance matters.
    """
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    _check_small_speed(seg.v)
    return 1.0 / (4.0 * a * a * seg.v * seg.v * n * n)


def _image_pair_term(seg: PathSegment, a: float, n: int) -> float:
    """The +n/-n pair term of one index, as image_pair_terms forms it:
    R(z0 - an) + R(z0 + an) + 2 T(n). It raises what the image integrals
    raise, in the order reflected +n, translated, reflected -n."""
    reflected = reflected_image_integral(seg, a, n)
    translated = translated_image_integral(seg, a, n)
    return reflected + reflected_image_integral(seg, a, -n) + 2.0 * translated


def _integer_indices(ns) -> list[int]:
    """The indices of ns as ints; DomainError names the first that is not
    an integer."""
    indices = []
    for n in ns:
        if not float(n).is_integer():
            raise DomainError(f"image index n must be an integer, got {float(n)!r}")
        indices.append(int(n))
    return indices


def _scalar_pair_terms(seg: PathSegment, a: float, ns) -> list[float]:
    """The pair terms of the integer indices ns, one fused pass per index.

    The pair term is even in n, so each index is formed from am = |n| a:
    the reflected squares of the near image, base z0 - am, and of the far
    image, base z0 + am, and the translated corners. For |n| >= 1 the far
    square lies above z = 0, so its base, top and Y are positive and its
    log ratio's d s negative, and the translated q1, p2 and q1 p2 are
    positive: those take no abs(). Every log argument, exact difference
    and touch scale is formed as _reflection_square and _translation_square
    form it, and every half log ratio as _log_ratio does, so an index
    refuses exactly when the scalar squares refuse it; such an index (a log
    argument on the singular locus, a zero denominator: an image plane
    through a corner or n = 0), and one whose term is not finite, is
    evaluated through _image_pair_term with its own n, which raises its
    error. The constants are folded as the numpy kernel of image_pair_terms
    folds them.
    """
    z0, b, v = seg.z0, seg.b, seg.v
    lo, hi, two_v = (1.0 - v) * b, (1.0 + v) * b, 2.0 * v
    reflection_scale = b / (64.0 * v**3)
    reflection_log = -2.0 * (1.0 - v * v) * reflection_scale
    reflection_rest = 4.0 * v * b * reflection_scale
    diff_factor, sum_factor = (1.0 - v * v) * b / -16.0, v / -16.0
    ds_reflection, ds_diff, ds_sum = -2.0 * b, -4.0 * b, -4.0 * v * b * b
    two_b = 2.0 * b
    log1p, copysign, isfinite = math.log1p, math.copysign, math.isfinite
    terms = []
    append = terms.append
    for n in ns:
        am = abs(n) * a
        nav = am * v
        c = 2.0 * nav
        # the reflected squares of the near and the far image: base, top,
        # base + top, X and Y
        near = z0 - am
        near_top = near + b
        near_sum = near + near_top
        anchor = two_v * near_top
        x, y = anchor - hi, anchor + lo
        far = z0 + am
        far_top = far + b
        far_sum = far + far_top
        anchor = two_v * far_top
        x_far, y_far = anchor - hi, anchor + lo
        # the translated corners; q1 and p2 lie above (1 - v) b, off the locus
        p1, q1 = c - hi, c + lo
        p2, q2 = c + hi, c - lo
        ax, ay = abs(x), abs(y)
        least = ax if ax < ay else ay
        ax_far = abs(x_far)
        least_far = ax_far if ax_far < y_far else y_far
        ap1, aq2 = abs(p1), abs(q2)
        square = near * near_top
        # the near square's touch scale is _on_locus's v (|top| + |base|) + b
        # unless the square straddles z = 0, where |X| and |Y| exceed (1 - v) b
        if (least < _POLE_TOUCH_EPS * (v * abs(near_sum) + b)
                or least_far < _POLE_TOUCH_EPS * (v * far_sum + b)
                or (ap1 if ap1 < aq2 else aq2) < _POLE_TOUCH_EPS * (c + b)
                or not (square and nav)):
            append(_image_pair_term(seg, a, n))
            continue
        far_square = far * far_top
        # half the log ratios l(X, Y) of the near and the far image, l1 - l2 and l1 + l2
        ds = ds_reflection * (two_v * near_sum)
        half = copysign(log1p(abs(ds) / ((ax + ay) * least)), ds)
        half_far = -log1p(two_b * (two_v * far_sum) / ((ax_far + y_far) * least_far))
        cross_p, cross_q = p1 * q2, q1 * p2
        outer_p, outer_q = p1 * p2, q1 * q2
        ds = (cross_p + cross_q) * (c * ds_diff)
        cross_p = abs(cross_p)
        half_diff = copysign(
            log1p(abs(ds) / ((cross_p + cross_q) * (cross_p if cross_p < cross_q else cross_q))),
            ds)
        ds = (outer_p + outer_q) * ds_sum
        outer_p, outer_q = abs(outer_p), abs(outer_q)
        half_sum = copysign(
            log1p(abs(ds) / ((outer_p + outer_q) * (outer_p if outer_p < outer_q else outer_q))),
            ds)
        term = (((near_sum * reflection_log) * half + reflection_rest) / (square * square)
                + ((far_sum * reflection_log) * half_far + reflection_rest)
                / (far_square * far_square)
                + (diff_factor * half_diff + (c * sum_factor) * half_sum) / nav**3)
        append(term if isfinite(term) else _image_pair_term(seg, a, n))
    return terms


def image_pair_terms(seg: PathSegment, a: float, ns) -> list[float]:
    """Four-image contribution of +n and -n for each integer index in ns.

    For each n, R(z0 - an) + R(z0 + an) + 2 T(n), R and T the squares of
    _reflection_square and _translation_square, with their log arguments,
    exact differences and log ratios formed as those squares form them and
    the constants folded, so a term can differ from the scalar pair term in
    its last bits. ns is a range, or a sequence of integer-valued numbers; a
    value that is not an integer raises DomainError. Blocks of at most
    _SCALAR_BLOCK indices are formed one index at a time
    (_scalar_pair_terms), longer ones by a numpy kernel that fuses them into
    one pass: one p/q buffer, one |p|, |q| array for both the locus test and
    the log ratios. A numpy block holding any index those integrals would
    refuse (a log argument on the singular locus, an image plane through a
    corner, n = 0, a term that is not finite) is formed again by
    _scalar_pair_terms, so it raises the same error at the same index. An
    ns longer than _KERNEL_BLOCK is taken in pieces of that length, in
    order.
    """
    if not isinstance(ns, range):
        ns = _integer_indices(ns)
    if len(ns) > _KERNEL_BLOCK:
        return [term for i in range(0, len(ns), _KERNEL_BLOCK)
                for term in image_pair_terms(seg, a, ns[i:i + _KERNEL_BLOCK])]
    _check_v(seg.v)
    check_separation(a)
    if len(ns) <= _SCALAR_BLOCK:
        return _scalar_pair_terms(seg, a, ns)
    import numpy as np

    z0, b, v, size = seg.z0, seg.b, seg.v, len(ns)
    lo, hi, k = (1.0 - v) * b, (1.0 + v) * b, 1.0 - v * v
    reflection_scale = b / (64.0 * v**3)
    with np.errstate(all="ignore"):
        if isinstance(ns, range):
            an = np.arange(ns.start, ns.stop, ns.step, dtype=float)
        else:
            an = np.array(ns, dtype=float)
        an *= a
        nav = abs(an) * v  # |n| a v, as translated_image_integral forms it
        # base and top of the reflected squares of +n (row 0) and -n (row 1)
        base = np.empty((2, size))
        np.subtract(z0, an, out=base[0])
        np.add(z0, an, out=base[1])
        top = base + b
        s = base + top
        # rows c = 2 nav, c, 2 v top of +n and of -n: rows 1-3 anchor the log
        # arguments below, and at the end every row becomes a touch scale
        scales = np.empty((4, size))
        c = np.multiply(nav, 2.0, out=scales[:2])[0]
        np.multiply(2.0 * v, top, out=scales[2:])
        # p (pq[0]) and q (pq[1]) of the rows (q2, p2), (p2, q2), (p1, q1),
        # (X, Y) of +n and of -n, (p1 q2, q1 p2) and (p1 p2, q1 q2)
        pq = np.empty((2, 7, size))
        np.subtract(scales[1:], hi, out=pq[0, 2:5])
        np.add(scales[1:], lo, out=pq[1, 2:5])
        np.add(c, hi, out=pq[0, 1])
        np.subtract(c, lo, out=pq[1, 1])
        pq[:, 0] = pq[::-1, 1]
        np.multiply(pq[0, 2], pq[0, :2], out=pq[0, 5:])
        np.multiply(pq[1, 2], pq[1, :2], out=pq[1, 5:])
        magnitude = np.abs(pq)
        least = np.minimum(magnitude[0], magnitude[1])
        # d s of rows 3-6: the sums times the differences -2 b, -4 c b, -4 v b^2
        ds = np.empty((4, size))
        np.multiply(2.0 * v, s, out=ds[:2])
        np.add(pq[0, 5:], pq[1, 5:], out=ds[2:])
        ds[:2] *= -2.0 * b
        ds[2] *= c * (-4.0 * b)
        ds[3] *= -4.0 * v * b * b
        # half the log ratios of rows 3-6, as _log_ratio forms them
        half = np.add(magnitude[0, 3:], magnitude[1, 3:])
        half *= least[3:]
        np.divide(np.abs(ds), half, out=half)
        np.log1p(half, out=half)
        np.copysign(half, ds, out=half)
        # R(z0 - an), R(z0 + an) and 2 T(n) as numerators over (base top)^2 and nav^3
        values = np.empty((7, size))
        np.multiply(s, -2.0 * k * reflection_scale, out=values[:2])
        values[2] = k * b / -16.0
        np.multiply(c, v / -16.0, out=values[3])
        values[:4] *= half
        values[:2] += 4.0 * v * b * reflection_scale
        values[2] += values[3]
        np.multiply(base, top, out=values[4:6])
        np.square(values[4:6], out=values[4:6])
        np.power(nav, 3, out=values[6])
        terms = np.add.reduce(np.divide(values[:3], values[4:], out=values[:3]))
        # tolerances of least[1:5] from c + b and from v |base + top| + b, which is
        # _on_locus's v (|top| + |base|) + b unless a square straddles z = 0, where
        # |X| and |Y| exceed (1 - v) b. A non-finite term makes their sum non-finite.
        np.abs(s, out=scales[2:])
        scales[2:] *= v
        scales += b
        scales *= _POLE_TOUCH_EPS
        refusable = (least[1:5] < scales).any() or not math.isfinite(np.add.reduce(terms))
    if not refusable:
        return terms.tolist()
    return _scalar_pair_terms(seg, a, ns)


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
