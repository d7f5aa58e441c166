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

from .errors import DomainError, SingularityError

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


@dataclass(frozen=True)
class PathSegment:
    """Straight worldline segment: start z0 > 0, length b > 0, speed v."""

    z0: float
    b: float
    v: float

    def __post_init__(self) -> None:
        if not self.z0 > 0.0:
            raise DomainError(f"segment start z0 must be positive, got {self.z0!r}")
        if not self.b > 0.0:
            raise DomainError(f"segment length b must be positive, got {self.b!r}")
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


def reflection_antiderivative(z: float, z_prime: float, v: float,
                              scale: LogScale = DEFAULT_SCALE) -> float:
    """Antiderivative whose mixed second derivative is the one-plate kernel.

    Value of
        [8 v z z' + (1-v^2)(z^2-z'^2) (log(A^2/ell^2) - log(B^2/ell^2))]
            / (128 v^3 (z z')^2)
    with A = (1+v) z' + (v-1) z and B = (1+v) z + (v-1) z'; on the diagonal
    the analytic limit 1/(16 v^2 z z') is used.
    """
    _check_v(v)
    if z == 0.0 or z_prime == 0.0:
        raise DomainError("antiderivative undefined at z = 0 or z' = 0")
    coord_scale = abs(z) + abs(z_prime)
    delta = z_prime - z
    if abs(delta) < _DIAGONAL_EPS * coord_scale:
        return 1.0 / (16.0 * v * v * z * z_prime)
    a_arg = (1.0 + v) * z_prime + (v - 1.0) * z
    b_arg = (1.0 + v) * z + (v - 1.0) * z_prime
    # A - B = 2 (z' - z) exactly
    log_diff = _log_difference(a_arg, b_arg, 2.0 * delta, scale.ell,
                               v * coord_scale + abs(delta))
    num = 8.0 * v * z * z_prime + (1.0 - v * v) * (z * z - z_prime * z_prime) * log_diff
    return num / (128.0 * v**3 * (z * z_prime) ** 2)


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
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
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


def one_plate_integral(seg: PathSegment, scale: LogScale = DEFAULT_SCALE) -> float:
    """Double integral of the one-plate kernel over the segment square.

    Evaluated as the four-corner difference of the reflection antiderivative.
    A corner can land on the singular locus when b = 2 v z0 / (1-v); that
    raises SingularityError with guidance to perturb b.
    """
    try:
        return _corner_combination(
            lambda x, y: reflection_antiderivative(x, y, seg.v, scale), seg.z0, seg.z0 + seg.b
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

    The omitted remainder is of order v^2 in absolute terms. The second term
    grows as 1/b^2 for b -> 0: the expansion is meaningful only for segments
    long enough that the particle outruns the near-diagonal region,
    b at least around v z0.
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

    Equals the one-plate corner combination with both arguments shifted by
    -a*n, since the kernel only sees z + z' - 2an.
    """
    if n == 0:
        raise DomainError("image index n must be a nonzero integer")
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
    shift = a * n
    try:
        return _corner_combination(
            lambda x, y: reflection_antiderivative(x - shift, y - shift, seg.v, scale),
            seg.z0, seg.z0 + seg.b,
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
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
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
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
    return 1.0 / (4.0 * a * a * seg.v * seg.v * n * n)


def _image_pair_term(seg: PathSegment, a: float, n: int, scale: LogScale) -> float:
    """Scalar sum of the four image integrals of +n and -n, in the order
    image_pair_terms adds them."""
    total = 0.0
    for s in (n, -n):
        total += reflected_image_integral(seg, a, s, scale)
        total += translated_image_integral(seg, a, s, scale)
    return total


def _log_differences(first, second, diff, ell: float, touch_scale):
    """Array form of _log_difference: nan where that would raise."""
    import numpy as np

    tol = _POLE_TOUCH_EPS * touch_scale
    touched = (np.abs(first) < tol) | (np.abs(second) < tol)
    ratio = diff / second
    far = (np.abs(ratio) > _LOG1P_MAX) & ~touched
    value = 2.0 * np.log1p(np.where(far, 0.0, ratio))
    if far.any():
        # numpy's log and math.log can differ by an ulp, which the
        # cancellation inside a corner value amplifies far beyond an ulp of
        # the result; the few elements on this branch take math.log, exactly
        # as the scalar form does
        log_ell = 2.0 * math.log(ell)
        value[far] = [
            (2.0 * math.log(abs(f)) - log_ell) - (2.0 * math.log(abs(s)) - log_ell)
            for f, s in zip(first[far].tolist(), second[far].tolist())
        ]
    value[touched] = np.nan
    return value


def _reflection_antiderivatives(z, z_prime, v: float, ell: float):
    """Array form of reflection_antiderivative for arrays z, z' (v checked);
    non-finite where that would raise."""
    import numpy as np

    coord_scale = np.abs(z) + np.abs(z_prime)
    delta = z_prime - z
    a_arg = (1.0 + v) * z_prime + (v - 1.0) * z
    b_arg = (1.0 + v) * z + (v - 1.0) * z_prime
    log_diff = _log_differences(a_arg, b_arg, 2.0 * delta, ell, v * coord_scale + np.abs(delta))
    num = 8.0 * v * z * z_prime + (1.0 - v * v) * (z * z - z_prime * z_prime) * log_diff
    return np.where(
        np.abs(delta) < _DIAGONAL_EPS * coord_scale,
        1.0 / (16.0 * v * v * z * z_prime),
        num / (128.0 * v**3 * (z * z_prime) ** 2),
    )


def _translation_antiderivatives(z: float, z_prime: float, nav, v: float, ell: float):
    """Array form of translation_antiderivative over an array of n a v
    (v checked); non-finite where that would raise."""
    import numpy as np

    delta = z_prime - z
    if abs(delta) < _DIAGONAL_EPS * (abs(z) + abs(z_prime)):
        return 1.0 / (8.0 * nav * nav)
    p_arg = (1.0 + v) * delta + 2.0 * nav
    q_arg = (1.0 - v) * (z - z_prime) + 2.0 * nav
    log_diff = _log_differences(p_arg, q_arg, 2.0 * delta, ell, 2.0 * np.abs(nav) + abs(delta))
    num = 8.0 * nav + ((1.0 - v * v) * (z - z_prime) + 2.0 * nav * v) * log_diff
    return num / (64.0 * nav**3)


def image_pair_terms(seg: PathSegment, a: float, ns, scale: LogScale = DEFAULT_SCALE):
    """Four-image contribution of +n and -n for each index in the array ns.

    For each n the sum, over s = n then -n, of reflected_image_integral and
    translated_image_integral, evaluated with the same corner construction,
    diagonal limits, log1p branch and singular-locus test on whole arrays.
    A block holding any index those functions would refuse (a corner on the
    singular locus, n = 0) is re-evaluated through them one index at a time,
    so it raises the same error at the same index.
    """
    import numpy as np

    _check_v(seg.v)
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
    v, ell = seg.v, scale.ell
    shift = a * np.stack([ns, -ns])  # rows +n and -n
    with np.errstate(all="ignore"):
        reflected = _corner_combination(
            lambda x, y: _reflection_antiderivatives(x - shift, y - shift, v, ell),
            seg.z0, seg.z0 + seg.b,
        )
        translated = _corner_combination(
            lambda x, y: _translation_antiderivatives(x, y, shift * v, v, ell),
            seg.z0, seg.z0 + seg.b,
        )
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
    return 1.0 / ((z - z_prime) ** 2 - v * v * (z + z_prime - 2.0 * a * n) ** 2) ** 2


def translated_image_kernel(z, z_prime, v: float, a: float, n: int):
    """1/[(z-z')^2 - v^2 (z-z' - 2an)^2]^2."""
    return 1.0 / ((z - z_prime) ** 2 - v * v * (z - z_prime - 2.0 * a * n) ** 2) ** 2
