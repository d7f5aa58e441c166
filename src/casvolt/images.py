"""The two-plate image-sum engine: how a two-plate sum is blocked, formed and
certified.

variance_two_plate_exact sums the one-plate integral and the pair terms
R(z0 - an) + R(z0 + an) + 2 T(n), n >= 1, R and T closed_forms' reflected
and translated squares. _two_plate_sum sets the block ends and certifies the
sum with its analytic Hurwitz zeta tail; image_pair_terms forms a block of
pair terms. Only a two-plate exact sum imports this module, so no other run
compiles it. variance owns n_U, n_ref and the early refusal, summation the
budget's refusal; this module imports only closed_forms and summation
(docs/decisions.md, "Two-plate image sums").

The engine takes only what its one caller forms, and checks none of it:
every block is a step-1 range of indices n >= 1, and variance_two_plate_exact
has already held v in (1e-6, 0.99) and z0 + b < a <= 1e60.
"""
from __future__ import annotations

import math
from functools import lru_cache

# the one-plate and image integrals are looked up on closed_forms, whose
# attributes perfbench's tracer wraps
from . import closed_forms
from .closed_forms import _POLE_TOUCH_EPS, PathSegment
from .summation import SummationControl, SummationResult, _refusal

# no public name: variance_two_plate_exact is this engine's entry point
__all__: list[str] = []

# numpy: bound by the first block longer than _SCALAR_BLOCK, so that a run
# whose blocks are all shorter never imports it
np = None

# Longest block image_pair_terms forms one index at a time, without numpy.
# Warm, at a = 1 and (z0, b, v) = (0.3, 0.1, 0.01) and (0.1, 0.5, 1e-3), the
# pure-Python pass costs 1.25-1.5 us per index and the numpy kernel 34-41 us
# from 24 to 34 indices (pass over kernel 0.88-1.08 at 24, 1.01-1.34 at 30);
# at (0.3, 0.1, 1e-3) the kernel takes 55-59 us at 299 indices and 103-108 us
# at 1024 (docs/decisions.md, "Two-plate image sums"). 30 is past the
# crossover, but a sum whose n_U is at most 23 ends its block by index 30, so
# it loads no numpy.
_SCALAR_BLOCK = 30

# Most indices image_pair_terms broadcasts in one pass. Its temporaries peak
# at 543 bytes per index (tracemalloc, 1024 indices), so the n_max = 10^6
# pairs a sum may take would need about 540 MB in one pass; pieces of this
# length need 0.56 MB.
_KERNEL_BLOCK = 1024

# The Euler-Maclaurin terms of B_2, ..., B_20 that _hurwitz_zeta takes, as
# (numerator, denominator): with them it reaches double precision from
# x = _EULER_MACLAURIN_FROM on. Below it, at an integer x, _hurwitz_zeta adds
# the finite head sum_{m=x}^{15} m^-s to its value at 16.
_EULER_MACLAURIN_FROM = 16
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
              (43867, 798), (-174611, 330))
# The remainder past the six subtracted orders C_0, ..., C_5 falls like n^-16.
_REMAINDER_ORDER = 16
# Rounding allowance on the pair term at the reference index, relative to the
# summed magnitude of its parts R(z0 - an), R(z0 + an) and 2 T(n): past the
# light cone every part is positive, so that is the pair term itself. Against
# 60-digit mpmath the remainder pair - sum_j C_j n^-(4+2j), with the block's
# pair term and the float C_j, was off by at most 1.5e-15 of it over 1,500
# random geometries (487 of them floored), v from 1e-4 to 0.3, at n_ref =
# max(9, n_U) and up to 100 past it, both from the pure-Python pass and from
# the numpy kernel; at n below 16, by at most 1.4e-15.
_PAIR_ROUNDING = 1e-12
# Rounding allowance on the subtracted tail T(n), relative to T(n): T is formed
# from _hurwitz_zeta, whose orders s = 4..14 are each within 60.3 ulps of
# 80-digit mpmath at x = n + 1 from 10 to 10^6. The worst are at s = 14 and
# x = 14..17 (10.5, 24.4, 60.3 and 14.5 ulps), the Euler-Maclaurin remainder
# at 16 and 17, which the head dilutes below 16. The allowance
# max(_TAIL_ROUNDING, n ulps) covers that with a wide margin.
_TAIL_ROUNDING = 1e-12
_ULP = 2.0**-53


def _image_pair_term(seg: PathSegment, a: float, n: int) -> float:
    """The +n/-n pair term of one index, as image_pair_terms forms it:
    R(z0 - an) + R(z0 + an) + 2 T(n). It raises what the image integrals
    raise, in the order reflected +n, translated, reflected -n."""
    reflected = closed_forms.reflected_image_integral(seg, a, n)
    translated = closed_forms.translated_image_integral(seg, a, n)
    return reflected + closed_forms.reflected_image_integral(seg, a, -n) + 2.0 * translated


def _scalar_pair_terms(seg: PathSegment, a: float, ns) -> list[float]:
    """The pair terms of the indices ns, one fused pass per index.

    Each index is formed from am = n a: the reflected squares of the near
    image, base z0 - am, and of the far image, base z0 + am, and the
    translated corners. For n >= 1 the far square lies above z = 0, so its
    base, top and Y are positive and its log ratio's d s negative, and the
    translated q1, p2 and q1 p2 are positive: those take no abs(). Every
    log argument, exact difference and touch scale is formed as
    _reflection_square and _translation_square form it, and every half log
    ratio as _log_ratio does, so an index refuses exactly when the scalar
    squares refuse it; such an index (a log argument on the singular locus,
    a zero denominator: an image plane through a corner), and one whose
    term is not finite, is evaluated through _image_pair_term, which raises
    its error. The constants are folded as the numpy kernel of
    image_pair_terms folds them.
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
        am = n * a
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
                or not square):
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
    """Four-image contribution of +n and -n for each index of the range ns.

    For each n, R(z0 - an) + R(z0 + an) + 2 T(n), R and T the squares of
    _reflection_square and _translation_square, with their log arguments,
    exact differences and log ratios formed as those squares form them and
    the constants folded, so a term can differ from the scalar pair term in
    its last bits. Blocks of at most _SCALAR_BLOCK indices are formed one
    index at a time (_scalar_pair_terms), longer ones by a numpy kernel that
    fuses them into one pass: one p/q buffer, one |p|, |q| array for both
    the locus test and the log ratios. A numpy block holding any index those
    integrals would refuse (a log argument on the singular locus, an image
    plane through a corner, a term that is not finite) is formed again by
    _scalar_pair_terms, so it raises the same error at the same index; the
    kernel tests for one before any divide or log, and so raises no numpy
    warning. An ns longer than _KERNEL_BLOCK is taken in pieces of that
    length, in order.
    """
    if len(ns) > _KERNEL_BLOCK:
        return [term for i in range(0, len(ns), _KERNEL_BLOCK)
                for term in image_pair_terms(seg, a, ns[i:i + _KERNEL_BLOCK])]
    if len(ns) <= _SCALAR_BLOCK:
        return _scalar_pair_terms(seg, a, ns)
    global np
    if np is None:
        import numpy as np

    z0, b, v, size = seg.z0, seg.b, seg.v, len(ns)
    # base top is zero only where the near top of the first index rounds to 0,
    # an image plane through a corner: a top at or above 0 goes to the pass
    if (z0 - ns.start * a) + b >= 0.0:
        return _scalar_pair_terms(seg, a, ns)
    lo, hi, k = (1.0 - v) * b, (1.0 + v) * b, 1.0 - v * v
    reflection_scale = b / (64.0 * v**3)
    an = np.arange(ns.start, ns.stop, dtype=float)
    an *= a
    nav = an * v  # n a v, as translated_image_integral forms it
    # base and top of the reflected squares of +n (row 0) and -n (row 1)
    base = np.empty((2, size))
    np.subtract(z0, an, out=base[0])
    np.add(z0, an, out=base[1])
    top = base + b
    s = base + top
    # rows c = 2 nav, c, c, 2 v top of +n and of -n: the anchors of the p/q
    # rows below; rows 1-4 become the per-row touch scales if needed
    scales = np.empty((5, size))
    c = np.multiply(nav, 2.0, out=scales[:3])[0]
    np.multiply(2.0 * v, top, out=scales[3:])
    # p (pq[0]) and q (pq[1]) of the rows (q2, p2), (p2, q2), (p1, q1),
    # (X, Y) of +n and of -n, (p1 q2, q1 p2) and (p1 p2, q1 q2)
    pq = np.empty((2, 7, size))
    np.add(scales, np.array(((-lo, hi, -hi, -hi, -hi), (hi, -lo, lo, lo, lo)))[:, :, None],
           out=pq[:, :5])
    np.multiply(pq[:, 2:3], pq[:, :2], out=pq[:, 5:])
    magnitude = np.abs(pq)
    least = np.minimum(magnitude[0], magnitude[1])
    # touch scales of least[1:5]: c + b and v |base + top| + b, _on_locus's
    # v (|top| + |base|) + b as no square straddles z = 0. In floats c and
    # v |base + top| of +n are at most v (base + top) of -n, which grows with
    # n: a block clear of the scale at its last index is clear row by row
    far = z0 + (ns.stop - 1) * a
    if least[1:5].min() < (v * (far + (far + b)) + b) * (_POLE_TOUCH_EPS * (1.0 + 1e-9)):
        scales = scales[1:]
        np.abs(s, out=scales[2:])
        scales[2:] *= v
        scales += b
        scales *= _POLE_TOUCH_EPS
        if (least[1:5] < scales).any():
            return _scalar_pair_terms(seg, a, ns)
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
    # a non-finite term makes the sum of the terms non-finite
    if math.isfinite(np.add.reduce(terms)):
        return terms.tolist()
    return _scalar_pair_terms(seg, a, ns)


def _tail_coefficients(seg: PathSegment, a: float) -> list[float]:
    """C_0, ..., C_5 in pair_term(n) = sum_j C_j n^-(4+2j) + O(n^-16), the two-plate
    pair term's expansion in 1/n past the light cone.

    C_j = b^2 / (v^4 (2a)^4) sum_{k,i} q_jki g^k s^i h^(j-i), with g = 1/v^2,
    s = (zc/2a)^2, h = (b/2a)^2 and zc = z0 + b/2; so C_0 = b^2 / (4 a^4 v^4).
    Each q_jki is the rational its sympy derivation gives (the four image
    kernels of +n and -n expanded in 1/(2an), each order integrated over the
    square; tests/test_tail_coefficients.py derives them again), which the
    compiler folds to one rounded float. Every q_jki is positive, so nothing
    cancels. Each order is Horner's rule in s, from i = j down, over the
    P_ji h^(j-i), each P_ji = sum_k q_jki g^k by Horner's rule in g.
    """
    v, b, w = seg.v, seg.b, 2.0 * a
    g, s, h = 1.0 / (v * v), ((seg.z0 + 0.5 * b) / w) ** 2, (b / w) ** 2
    h2, h3, h4, h5 = h * h, h**3, h**4, h**5
    scale = (b / (v * v * w * w)) ** 2
    c1 = (20 / 3 + g * (4 / 3)) * h + s * (240 / 3)
    c2 = (4200 / 15 + g * (840 / 15)) * h + s * (16800 / 15)
    c2 = (140 / 15 + g * (98 / 15 + g * (12 / 15))) * h2 + s * c2
    c3 = (235200 / 35 + g * (47040 / 35)) * h + s * (376320 / 35)
    c3 = (23520 / 35 + g * (4704 / 35 + g * (2016 / 35))) * h2 + s * c3
    c3 = (420 / 35 + g * (672 / 35 + g * (288 / 35 + g * (20 / 35)))) * h3 + s * c3
    c4 = (31046400 / 315 + g * (6209280 / 315)) * h + s * (26611200 / 315)
    c4 = (7761600 / 315 + g * (1552320 / 315 + g * (665280 / 315))) * h2 + s * c4
    c4 = (415800 / 315 + g * (83160 / 315 + g * (35640 / 315 + g * (19800 / 315)))) * h3 + s * c4
    c4 = (4620 / 315 + g * (13398 / 315 + g * (14058 / 315 + g * (
        3190 / 315 + g * (140 / 315))))) * h4 + s * c4
    c5 = (3805401600 / 3465 + g * (761080320 / 3465)) * h + s * (2029547520 / 3465)
    c5 = (1775854080 / 3465 + g * (355170816 / 3465 + g * (152216064 / 3465))) * h2 + s * c5
    c5 = (237837600 / 3465 + g * (47567520 / 3465 + g * (
        20386080 / 3465 + g * (11325600 / 3465)))) * h3 + s * c5
    c5 = (7927920 / 3465 + g * (1585584 / 3465 + g * (679536 / 3465 + g * (
        377520 / 3465 + g * (240240 / 3465))))) * h4 + s * c5
    c5 = (60060 / 3465 + g * (276276 / 3465 + g * (543114 / 3465 + g * (301730 / 3465 + g * (
        41860 / 3465 + g * (1260 / 3465)))))) * h5 + s * c5
    return [scale * (4 / 1), scale * c1, scale * c2, scale * c3, scale * c4, scale * c5]


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
    below 8e-14 for s <= 16 at x >= 16. At an integer x below 16 it is
    sum_{m=x}^{15} m^-s + zeta(s, 16) (DLMF 25.11.3), the head and the value
    at 16 added by math.fsum."""
    if x < _EULER_MACLAURIN_FROM:
        return math.fsum([*(m ** -s for m in range(int(x), _EULER_MACLAURIN_FROM)),
                          _hurwitz_zeta(s, _EULER_MACLAURIN_FROM)])
    inv_sq = 1.0 / (x * x)
    total = 0.0
    for c in reversed(_euler_maclaurin_coefficients(s)):
        total = (total + c) * inv_sq
    return x ** (1 - s) * (1.0 / (s - 1) + 0.5 / x + total)


@lru_cache(maxsize=4096)
def _tail_zetas(x: float) -> tuple[float, ...]:
    """zeta(4+2j, x), j = 0, ..., 5, at an integer x > n_ref >= 9, through
    the head sum below 16. The sum takes them at block ends,
    which repeat from sum to sum."""
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


def _two_plate_sum(seg: PathSegment, a: float, control: SummationControl,
                   n_u: int, n_ref: int) -> SummationResult:
    """The one-plate integral plus the image pairs n >= 1, with a certified tail.

    The sum certifies only from the reference index n_ref = max(9, n_U) on,
    n_U = n_u the first n >= 1 with U = v (2an - 2(z0+b)) / b >= 2, so
    terms_used >= 9. The caller, variance_two_plate_exact, finds both
    (variance._cone_index, variance._REFERENCE_FLOOR), checks v and refuses
    an n_max below n_ref, before this module loads. At each
    N >= n_ref the sum adds the subtracted tail T(N) = sum_j C_j
    zeta(4+2j, N+1), j = 0..5 (_tail_zetas; below N + 1 = 16 through the
    finite head), and bounds only its remainder, by the
    envelope n_ref^16 r(n_ref) zeta(16, N+1) on r(n) = pair_term(n) -
    sum_j C_j n^-(4+2j), plus rounding allowances. Past the light cone
    (U > 1) every coefficient of the pair term's expansion in 1/n^2 is
    nonnegative, so r >= 0 and n^16 r(n) does not increase: r(m) <=
    n_ref^16 r(n_ref) / m^16 for every m > N >= n_ref.

    The pair terms 1..E, E = min(n_max, max(n_ref, n_U + n_U // 4 + 2)),
    are formed in one block, which also gives r(n_ref). E is taken from n_U
    rather than n_ref: a sum whose n_ref is raised to 9 has an envelope
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
    tol, n_max = control.tol, control.n_max
    coefficients = _tail_coefficients(seg, a)
    # the one-plate term, then the pair terms 1..end, then the tail
    parts = [closed_forms.one_plate_integral(seg)]
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

