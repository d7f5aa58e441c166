"""Renormalized electric-field correlators near one or two reflecting plates.

The boundary-induced part of <E_z E_z> at equal transverse position is built
from mirror images: a single plate at z=0 contributes the reflected image at
-z', and a second plate at z=a adds the doubly periodic image families at
separations z -+ z' - 2an. All quantities are natural units (eV^4 values,
1/eV coordinates). The correlators are positive everywhere they are defined:
reflecting boundaries enhance the longitudinal field fluctuations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, SingularityError, check_separation
from .summation import SummationControl, SummationResult, hurwitz_zeta

__all__ = [
    "SpacetimePair",
    "SinglePlate",
    "DualPlate",
    "Geometry",
    "MeanSquaredField",
    "correlator_single_plate",
    "correlator_dual_plate",
    "mean_squared_field",
]

# a denominator (difference of squares, then squared) counts as singular when
# it falls below this relative fraction of its scale to the fourth power
_SINGULAR_EPS = 1e-12
# The dual-plate correlator sums at least this many image pairs term by term;
# its analytic tail then starts every Hurwitz zeta argument at 16 or more.
_DUAL_HEAD = 16
# Most orders of the dual-plate tail's expansion in (t-t')^2/s^2, so that
# hurwitz_zeta is asked for orders s <= 2 * _TAIL_ORDERS + 2 = 16 only.
_TAIL_ORDERS = 7


@dataclass(frozen=True)
class SpacetimePair:
    """Two evaluation events (t, z) and (t', z') at equal transverse position;
    every coordinate finite, z and z' above the plate at z = 0."""

    t: float
    z: float
    t_prime: float
    z_prime: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.t_prime)):
            raise DomainError(f"event times must be finite, got t={self.t!r}, t'={self.t_prime!r}")
        if not (0.0 < self.z < math.inf and 0.0 < self.z_prime < math.inf):
            raise DomainError(
                f"evaluation points must lie a finite distance above the plate at z=0, "
                f"got z={self.z!r}, z'={self.z_prime!r}"
            )


@dataclass(frozen=True)
class SinglePlate:
    """One perfectly reflecting plate at z = 0."""


@dataclass(frozen=True)
class DualPlate:
    """Perfectly reflecting plates at z = 0 and z = a."""

    a: float

    def __post_init__(self) -> None:
        check_separation(self.a)


Geometry = SinglePlate | DualPlate


def _inverse_square_factor(dt: float, separation: float, description: str) -> float:
    """1/(dt^2 - separation^2)^2 with relative singularity detection.

    The squared denominator is compared against eps * scale^4 with
    scale = max(|dt|, |separation|), so detection stays relative at any
    overall distance scale.
    """
    factor = (dt - separation) * (dt + separation)
    scale = max(abs(dt), abs(separation))
    denom = factor * factor
    if denom < _SINGULAR_EPS * scale**4:
        raise SingularityError(
            f"singular correlator configuration: (t-t')^2 ~ {description}^2 "
            f"(factor {factor:.3e} with scale {scale:.3e})",
            factor=factor,
        )
    return 1.0 / denom


def correlator_single_plate(pair: SpacetimePair) -> float:
    """Renormalized <E_z E_z> for one plate: 1/(pi^2 [(t-t')^2 - (z+z')^2]^2)."""
    dt = pair.t - pair.t_prime
    return _inverse_square_factor(dt, pair.z + pair.z_prime, "(z+z')") / math.pi**2


def _dual_pair_term(n: int, a: float, dt: float, dz: float, sz: float) -> float:
    total = 0.0
    for s in (n, -n):
        total += _inverse_square_factor(dt, dz - 2.0 * a * s, f"(z-z'-2an), n={s}")
        total += _inverse_square_factor(dt, sz - 2.0 * a * s, f"(z+z'-2an), n={s}")
    return total / math.pi**2


def _dual_head(n_head: int, a: float, dt: float, dz: float, sz: float) -> list[float]:
    """1/(dt^2 - s^2)^2 for the four images of each index 1 <= n <= n_head.

    The same float operations as _dual_pair_term, inlined so that no message
    is formatted; an index holding a singular image is re-evaluated through
    _dual_pair_term, which raises.
    """
    reach = abs(dt)
    terms = []
    for n in range(1, n_head + 1):
        shift = 2.0 * a * n
        for separation in (dz - shift, sz - shift, dz + shift, sz + shift):
            factor = (dt - separation) * (dt + separation)
            denom = factor * factor
            if denom < _SINGULAR_EPS * max(reach, abs(separation)) ** 4:
                _dual_pair_term(n, a, dt, dz, sz)
            terms.append(1.0 / denom)
    return terms


def _dual_head_length(a: float, dt: float, dz: float, sz: float, tol: float) -> float:
    """The least N >= _DUAL_HEAD whose dropped images all lie at distance
    s >= |dt| / sqrt(x_max) or more, x_max = min(1/4, (tol/16)^(1/_TAIL_ORDERS));
    inf or nan where no such integer exists.

    With x = (dt/s)^2 <= x_max the remainder after _TAIL_ORDERS orders is
    at most lead * 16 x^_TAIL_ORDERS <= tol * lead, and the lead order is
    part of the value, so the tail always certifies within _TAIL_ORDERS.
    """
    x_max = min(0.25, (tol / 16.0) ** (1.0 / _TAIL_ORDERS))
    needed = (abs(dt) / math.sqrt(x_max) + max(sz, abs(dz))) / (2.0 * a)
    if not needed < math.inf:
        return needed
    return max(_DUAL_HEAD, math.ceil(needed) - 1)


def correlator_dual_plate(
    pair: SpacetimePair, a: float, control: SummationControl = SummationControl()
) -> SummationResult:
    """Renormalized <E_z E_z> between plates at z=0 and z=a.

    The n=0 single-plate term plus both image families z -+ z' - 2an, with
    d = t - t'. Every image with |n| <= N is summed term by term, N being at
    least 16 and large enough that each dropped image lies at a distance
    s >= 2|d|, outside its light cone. There
        1/(s^2 - d^2)^2 = sum_k (k+1) d^2k s^-(2k+4),
    so the images beyond N add up, order by order, to
        sum_k (k+1) d^2k (2a)^-(2k+4) sum_c [zeta(2k+4, N+1 - c/2a)
                                             + zeta(2k+4, N+1 + c/2a)]
    over c = z - z' and z + z', with the Hurwitz zeta function. The orders
    stop at the first K whose geometric remainder bound lead x^K (K+1 - Kx)
    / (1-x)^2 is within control.tol of the value, lead being the k = 0 order
    and x = (d/s_min)^2 for the nearest dropped image s_min. N also keeps
    x small enough that K never exceeds 7, so the zeta orders stay at 16 or
    below (see _dual_head_length); at d = 0 the tail is exact after k = 0.

    Returns the SummationResult: the value, terms_used = N, the largest |n|
    summed term by term, and tail_estimate, the remainder bound. Raises
    ConvergenceError when N exceeds control.n_max, and SingularityError when
    a summed image lies on the light cone.
    """
    check_separation(a)
    if not (pair.z < a and pair.z_prime < a):
        raise DomainError(
            f"evaluation points must lie between the plates: z={pair.z!r}, "
            f"z'={pair.z_prime!r}, a={a!r}"
        )
    dt = pair.t - pair.t_prime
    dz = pair.z - pair.z_prime
    sz = pair.z + pair.z_prime
    n_head = _dual_head_length(a, dt, dz, sz, control.tol)
    if not n_head <= control.n_max:
        raise ConvergenceError(
            f"dual-plate correlator: {n_head} image pairs must be summed term by term "
            f"before the analytic tail applies, beyond n_max={control.n_max}"
        )
    base = _inverse_square_factor(dt, sz, "(z+z')")
    head = math.fsum([base, *_dual_head(n_head, a, dt, dz, sz)])

    s_min = 2.0 * a * (n_head + 1) - max(sz, abs(dz))
    x = (dt / s_min) ** 2
    inv_2a = 0.5 / a
    q = (dt * inv_2a) ** 2
    starts = [n_head + 1.0 + sign * c * inv_2a for c in (dz, sz) for sign in (-1.0, 1.0)]
    orders = []
    for k in range(_TAIL_ORDERS):
        s = 2 * k + 4
        zetas = sum(hurwitz_zeta(s, start) for start in starts)
        orders.append((k + 1) * q**k * inv_2a**4 * zetas)
        bound = orders[0] * x ** (k + 1) * (k + 2 - (k + 1) * x) / (1.0 - x) ** 2
        if bound <= control.tol * (head + sum(orders)):
            break
    return SummationResult(
        value=math.fsum([head, *orders]) / math.pi**2,
        terms_used=n_head,
        tail_estimate=bound / math.pi**2,
    )


@dataclass(frozen=True)
class MeanSquaredField:
    """<E^2(z)> near a mirror of finite plasma frequency, with its regime."""

    value: float
    regime: str  # "perfect_reflector" (omega_p z >= 1) or "finite_reflectivity"
    omega_p_z: float


def mean_squared_field(z: float, omega_p: float) -> MeanSquaredField:
    """Mean squared electric field at distance z from a mirror.

    3/(16 pi^2 z^4) once omega_p z >= 1 (the perfect-reflector behavior) and
    sqrt(2) omega_p/(32 pi z^3) below it. The switch is hard at omega_p z = 1;
    only the asymptotic forms are known, so no interpolation is invented and
    the value may jump at the boundary while the regime flag flips exactly
    there.
    """
    if not 0.0 < z < math.inf:
        raise DomainError(f"distance z must be positive and finite, got {z!r}")
    if not omega_p > 0.0:
        raise DomainError(f"plasma frequency must be positive, got {omega_p!r}")
    product = omega_p * z
    if product >= 1.0:
        return MeanSquaredField(
            value=3.0 / (16.0 * math.pi**2 * z**4),
            regime="perfect_reflector",
            omega_p_z=product,
        )
    return MeanSquaredField(
        value=math.sqrt(2.0) * omega_p / (32.0 * math.pi * z**3),
        regime="finite_reflectivity",
        omega_p_z=product,
    )
