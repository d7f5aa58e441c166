"""Antiderivatives and corner-difference evaluation of the worldline integrals.

A charged particle crossing the vacuum gap traverses the straight segment
z0 -> z0+b at constant speed v (worldline t = z/v). The variance of the work
done by the fluctuating field reduces to double integrals over the segment of
three kernel families:

    one-plate:        1/[(z-z')^2 - v^2 (z+z')^2]^2
    reflected image:  1/[(z-z')^2 - v^2 (z+z' - 2an)^2]^2
    translated image: 1/[(z-z')^2 - v^2 (z-z' - 2an)^2]^2

Each kernel is the mixed second derivative d^2/dz dz' of a closed-form
antiderivative, so the double integral over the square [z0, z0+b]^2 collapses
to a four-corner difference. That corner construction stays meaningful even
when the kernel's singular locus crosses the square (the integral is then
defined by the antiderivative, not by a convergent Riemann integral).

All lengths are natural units (1/eV); integral values carry eV^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, SingularityError, check_separation

__all__ = [
    "PathSegment",
    "LogScale",
    "DEFAULT_SCALE",
    "reflection_antiderivative",
    "translation_antiderivative",
    "one_plate_integral",
    "one_plate_integral_smallv",
    "reflected_image_integral",
    "reflected_image_integral_smallv",
    "translated_image_integral",
    "translated_image_integral_smallv",
    "image_pair_terms",
    "one_plate_kernel",
    "reflected_image_kernel",
    "translated_image_kernel",
]

# Evaluation limits for the exact antiderivatives: below v ~ 1e-6 the 1/v^3
# prefactors destroy all precision in the corner differences (use the small-v
# operations instead); the construction also assumes distinctly sub-luminal
# motion, so v >= 0.99 is rejected.
_V_MIN = 1e-6
_V_MAX = 0.99

# |z - z'| below this fraction of the coordinate scale switches to the
# analytic diagonal limit; below _LOG1P_MAX the log difference is evaluated
# via log1p to dodge the near-diagonal cancellation.
_DIAGONAL_EPS = 1e-8
_LOG1P_MAX = 0.5

# a corner sits "on the singular locus" when a log argument is smaller than
# this fraction of its natural magnitude scale
_POLE_TOUCH_EPS = 1e-10

# Most indices image_pair_terms broadcasts in one pass. Its temporaries take
# about 1 kB per index, so a sum of 75,000 pairs (v = 1e-5) in one pass would
# peak near 100 MB; pieces of this length keep it within a few MB.
_KERNEL_BLOCK = 1024


@dataclass(frozen=True)
class PathSegment:
    """Straight worldline segment: finite start z0 > 0, finite length b > 0, speed v."""

    z0: float
    b: float
    v: float

    def __post_init__(self) -> None:
        if not 0.0 < self.z0 < math.inf:
            raise DomainError(f"segment start z0 must be positive and finite, got {self.z0!r}")
        if not 0.0 < self.b < math.inf:
            raise DomainError(f"segment length b must be positive and finite, got {self.b!r}")
        if not 0.0 < self.v < 1.0:
            raise DomainError(f"speed v must lie in (0, 1), got {self.v!r}")


@dataclass(frozen=True)
class LogScale:
    """Arbitrary length scale entering only inside logarithms.

    Assembled corner differences are independent of ell; the parameter exists
    so that invariance can be exercised directly.
    """

    ell: float = 1.0

    def __post_init__(self) -> None:
        if not self.ell > 0.0:
            raise DomainError(f"log scale ell must be positive, got {self.ell!r}")


DEFAULT_SCALE = LogScale()


def _check_v(v: float) -> None:
    if not _V_MIN < v < _V_MAX:
        raise DomainError(
            f"speed v={v!r} outside the supported range ({_V_MIN}, {_V_MAX}); "
            "use the small-v operations below it"
        )


def _log_difference(first: float, second: float, diff: float, ell: float,
                    touch_scale: float) -> float:
    """log(first^2/ell^2) - log(second^2/ell^2) with first = second + diff.

    Guards the singular locus (either argument ~ 0 relative to touch_scale)
    and uses a cancellation-safe log1p path when the two arguments are close.
    """
    tol = _POLE_TOUCH_EPS * touch_scale
    if abs(first) < tol or abs(second) < tol:
        raise SingularityError(
            "evaluation point lies on the kernel's singular locus "
            f"(log argument {min(abs(first), abs(second)):.3e} below tolerance {tol:.3e})",
            factor=min(abs(first), abs(second)),
            threshold=tol,
        )
    ratio = diff / second
    if abs(ratio) <= _LOG1P_MAX:
        return 2.0 * math.log1p(ratio)
    return (2.0 * math.log(abs(first)) - 2.0 * math.log(ell)) - (
        2.0 * math.log(abs(second)) - 2.0 * math.log(ell)
    )


def _reflection_value(z: float, z_prime: float, delta: float, v: float, ell: float) -> float:
    """reflection_antiderivative at (z, z'), given delta = z' - z separately.

    A corner square [base, base + b]^2 far from the origin has exact corner
    offsets 0 and +-b, while z' - z formed from the rounded corners carries an
    error of order ulp(base), which the corner cancellation amplifies by
    |base| / b. Every difference the value needs is therefore built from
    delta: B = (1+v) z + (v-1) z' = 2 v z - (1-v) delta, A = B + 2 delta and
    z^2 - z'^2 = -(z + z') delta.
    """
    if z == 0.0 or z_prime == 0.0:
        raise DomainError("antiderivative undefined at z = 0 or z' = 0")
    coord_scale = abs(z) + abs(z_prime)
    if abs(delta) < _DIAGONAL_EPS * coord_scale:
        return 1.0 / (16.0 * v * v * z * z_prime)
    a_arg = 2.0 * v * z + (1.0 + v) * delta
    b_arg = 2.0 * v * z + (v - 1.0) * delta
    log_diff = _log_difference(a_arg, b_arg, 2.0 * delta, ell, v * coord_scale + abs(delta))
    num = 8.0 * v * z * z_prime - (1.0 - v * v) * (z + z_prime) * delta * log_diff
    return num / (128.0 * v**3 * (z * z_prime) ** 2)


def reflection_antiderivative(z: float, z_prime: float, v: float,
                              scale: LogScale = DEFAULT_SCALE) -> float:
    """Antiderivative whose mixed second derivative is the one-plate kernel.

    Value of
        [8 v z z' + (1-v^2)(z^2-z'^2) (log(A^2/ell^2) - log(B^2/ell^2))]
            / (128 v^3 (z z')^2)
    with A = (1+v) z' + (v-1) z and B = (1+v) z + (v-1) z'; on the diagonal
    the analytic limit 1/(16 v^2 z z') is used. The corner integrals evaluate
    the same value from a base corner and exact offsets (_reflection_square).
    """
    _check_v(v)
    return _reflection_value(z, z_prime, z_prime - z, v, scale.ell)


def translation_antiderivative(z: float, z_prime: float, v: float, a: float, n: int,
                               scale: LogScale = DEFAULT_SCALE) -> float:
    """Antiderivative whose mixed second derivative is the translated-image kernel.

    Value of
        [8 n a v + ((1-v^2)(z-z') + 2 n a v^2) (log(P^2/ell^2) - log(Q^2/ell^2))]
            / (64 (n a v)^3)
    with P = (1+v)(z'-z) + 2 n a v and Q = (1-v)(z-z') + 2 n a v; on the
    diagonal the analytic limit 1/(8 (n a v)^2) is used.
    """
    _check_v(v)
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    delta = z_prime - z
    nav = n * a * v
    if abs(delta) < _DIAGONAL_EPS * (abs(z) + abs(z_prime)):
        return 1.0 / (8.0 * nav * nav)
    p_arg = (1.0 + v) * delta + 2.0 * nav
    q_arg = (1.0 - v) * (z - z_prime) + 2.0 * nav
    # P - Q = 2 (z' - z) exactly
    log_diff = _log_difference(p_arg, q_arg, 2.0 * delta, scale.ell,
                               2.0 * abs(nav) + abs(delta))
    num = 8.0 * nav + ((1.0 - v * v) * (z - z_prime) + 2.0 * nav * v) * log_diff
    return num / (64.0 * nav**3)


def _corner_combination(f: Callable[[float, float], float], c0: float, c1: float) -> float:
    return f(c1, c1) - f(c1, c0) - f(c0, c1) + f(c0, c0)


def _reflection_square(value: Callable, base, b: float):
    """Four-corner difference over [base, base + b]^2 of value(z, z', z' - z).

    The corner offsets 0 and +-b are passed as the differences, so the side
    of the square is b exactly wherever the base lies. image_pair_terms
    builds the same square on arrays.
    """
    top = base + b
    return (value(top, top, 0.0) - value(top, base, -b)
            - value(base, top, b) + value(base, base, 0.0))


def one_plate_integral(seg: PathSegment, scale: LogScale = DEFAULT_SCALE) -> float:
    """Double integral of the one-plate kernel over the segment square.

    Evaluated as the four-corner difference of the reflection antiderivative.
    A corner can land on the singular locus when b = 2 v z0 / (1-v); that
    raises SingularityError with guidance to perturb b.
    """
    _check_v(seg.v)
    try:
        return _reflection_square(
            lambda z, zp, d: _reflection_value(z, zp, d, seg.v, scale.ell), seg.z0, seg.b
        )
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
    if seg.v >= 0.1:
        warnings.warn(
            f"small-v expansion evaluated at v={seg.v}: accuracy degrades above v ~ 0.1",
            stacklevel=2,
        )
    z0, b = seg.z0, seg.b
    z1 = z0 + b
    lead = (z0 * z0 + z1 * z1) / (8.0 * z0 * z0 * z1 * z1 * seg.v * seg.v)
    corr = (2.0 * z0 + b) ** 2 * (2.0 * z0 * z0 + 2.0 * b * z0 - b * b) / (
        24.0 * b * b * z0 * z0 * z1 * z1
    )
    return lead + corr


def reflected_image_integral(seg: PathSegment, a: float, n: int,
                             scale: LogScale = DEFAULT_SCALE) -> float:
    """Segment-square integral of the reflected-image kernel (index n != 0).

    Equals the one-plate corner combination over the square shifted by -a*n,
    since the kernel only sees z + z' - 2an. The shifted square starts at
    z0 - a*n and keeps the exact side b: shifting both corners first would
    round the side at the magnitude of a*n.
    """
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    check_separation(a)
    _check_v(seg.v)
    try:
        return _reflection_square(
            lambda z, zp, d: _reflection_value(z, zp, d, seg.v, scale.ell), seg.z0 - a * n, seg.b
        )
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
    d0 = a * n - seg.z0
    d1 = a * n - seg.z0 - seg.b
    if d0 == 0.0 or d1 == 0.0:
        raise DomainError(f"image plane a*n={a * n!r} coincides with a segment endpoint")
    return (d0 * d0 + d1 * d1) / (8.0 * seg.v * seg.v * d0 * d0 * d1 * d1)


def translated_image_integral(seg: PathSegment, a: float, n: int,
                              scale: LogScale = DEFAULT_SCALE) -> float:
    """Segment-square integral of the translated-image kernel (index n != 0)."""
    try:
        return _corner_combination(
            lambda x, y: translation_antiderivative(x, y, seg.v, a, n, scale),
            seg.z0, seg.z0 + seg.b,
        )
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
    return 1.0 / (4.0 * a * a * seg.v * seg.v * n * n)


def _image_pair_term(seg: PathSegment, a: float, n: int, scale: LogScale) -> float:
    """Scalar sum of the four image integrals of +n and -n, in the order
    image_pair_terms adds them."""
    total = 0.0
    for s in (n, -n):
        total += reflected_image_integral(seg, a, s, scale)
        total += translated_image_integral(seg, a, s, scale)
    return total


def _image_pair_corners(seg: PathSegment, a: float, n: int, scale: LogScale) -> list[float]:
    """The sixteen signed corner antiderivatives whose sum is the +n/-n pair
    term, built as image_pair_terms builds it. Their magnitudes set the
    scale of the pair term's rounding error, since the corners cancel."""
    v, b = seg.v, seg.b
    c0, c1 = seg.z0, seg.z0 + b
    corners = []
    for s in (n, -n):
        base = seg.z0 - a * s
        top = base + b
        corners += [
            _reflection_value(top, top, 0.0, v, scale.ell),
            -_reflection_value(top, base, -b, v, scale.ell),
            -_reflection_value(base, top, b, v, scale.ell),
            _reflection_value(base, base, 0.0, v, scale.ell),
            translation_antiderivative(c1, c1, v, a, s, scale),
            -translation_antiderivative(c1, c0, v, a, s, scale),
            -translation_antiderivative(c0, c1, v, a, s, scale),
            translation_antiderivative(c0, c0, v, a, s, scale),
        ]
    return corners


def _log_differences(first, second, diff, ell: float, touch_scale):
    """Array form of _log_difference: nan where that would raise."""
    import numpy as np

    ratio = diff / second
    value = 2.0 * np.log1p(ratio)
    far = np.abs(ratio) > _LOG1P_MAX
    if far.any():
        # numpy's log and math.log can differ by an ulp; with the corner
        # differences built from exact offsets, that stays far inside the
        # 1e-12 of the corner magnitudes by which block and scalar pair
        # terms may differ (tests/test_image_blocks.py)
        log_ell = 2.0 * math.log(ell)
        value[far] = (2.0 * np.log(np.abs(first[far])) - log_ell) - (
            2.0 * np.log(np.abs(second[far])) - log_ell)
    value[np.minimum(np.abs(first), np.abs(second)) < _POLE_TOUCH_EPS * touch_scale] = np.nan
    return value


def image_pair_terms(seg: PathSegment, a: float, ns, scale: LogScale = DEFAULT_SCALE):
    """Four-image contribution of +n and -n for each index in the array ns.

    For each n the sum, over s = n then -n, of reflected_image_integral and
    translated_image_integral, with the same float operations, diagonal
    limits, log1p branch and singular-locus test, in one pass over arrays of
    shape (corner, sign, index). The diagonal corners take no logarithm. The
    off-diagonal ones all compare log((X + (1+v) d)^2) with log((X + (v-1) d)^2):
    X = 2 v z with the exact offsets d = -b, +b for the reflected corners,
    X = 2 a s v with d = -+(z1 - z0) for the translated ones; one
    _log_differences call takes all of them, for +n and -n together.
    A block holding any index those functions would refuse (a corner on the
    singular locus, n = 0) is re-evaluated through them one index at a time,
    so it raises the same error at the same index. An ns longer than
    _KERNEL_BLOCK is taken in pieces of that length, in order.
    """
    import numpy as np

    if len(ns) > _KERNEL_BLOCK:
        return np.concatenate([image_pair_terms(seg, a, ns[i:i + _KERNEL_BLOCK], scale)
                               for i in range(0, len(ns), _KERNEL_BLOCK)])
    _check_v(seg.v)
    check_separation(a)
    v, b, c0, c1 = seg.v, seg.b, seg.z0, seg.z0 + seg.b
    shift = np.multiply.outer((a, -a), ns)  # rows +n and -n
    base = c0 - shift
    top = base + b
    # off-diagonal corners (z, z'): reflected (top, base) and (base, top),
    # translated (z1, z0) and (z0, z1)
    z = np.stack([top, base, shift, shift])
    delta = np.array([-b, b, c0 - c1, c1 - c0])[:, None, None]
    with np.errstate(all="ignore"):
        x = 2.0 * v * z
        coord_scale = np.abs(top) + np.abs(base)
        touch = np.abs(x)
        touch[:2] = v * coord_scale
        log_diff = _log_differences(x + (1.0 + v) * delta, x + (v - 1.0) * delta,
                                    2.0 * delta, scale.ell, touch + np.abs(delta))
        z_prime = z[1::-1]
        reflected = (8.0 * v * z[:2] * z_prime
                     - (1.0 - v * v) * (top + base) * delta[:2] * log_diff[:2]
                     ) / (128.0 * v**3 * (top * base) ** 2)
        reflected = np.where(b < _DIAGONAL_EPS * coord_scale,
                             1.0 / (16.0 * v * v * z[:2] * z_prime), reflected)
        on_diagonal = 1.0 / (16.0 * v * v * z[:2] * z[:2])
        reflected = on_diagonal[0] - reflected[0] - reflected[1] + on_diagonal[1]
        nav = shift * v
        nav8 = 8.0 * nav
        translated_diagonal = 1.0 / (nav8 * nav)
        if abs(c1 - c0) < _DIAGONAL_EPS * (abs(c0) + abs(c1)):
            translated = np.stack([translated_diagonal, translated_diagonal])
        else:
            translated = (nav8 + ((1.0 - v * v) * -delta[2:] + 2.0 * nav * v)
                          * log_diff[2:]) / (64.0 * nav**3)
        translated = (translated_diagonal - translated[0] - translated[1]
                      + translated_diagonal)
        terms = reflected[0] + translated[0] + reflected[1] + translated[1]
    if np.isfinite(terms).all():
        return terms
    return np.array([_image_pair_term(seg, a, int(n), scale) for n in ns])


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
