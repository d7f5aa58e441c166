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

from .errors import ConvergenceError, DomainError, SingularityError
from .summation import SummationControl, SummationResult, sum_symmetric_images

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


@dataclass(frozen=True)
class SpacetimePair:
    """Two evaluation events (t, z) and (t', z') at equal transverse position."""

    t: float
    z: float
    t_prime: float
    z_prime: float

    def __post_init__(self) -> None:
        if not (self.z > 0.0 and self.z_prime > 0.0):
            raise DomainError(
                f"evaluation points must lie above the plate at z=0, got z={self.z!r}, "
                f"z'={self.z_prime!r}"
            )


@dataclass(frozen=True)
class SinglePlate:
    """One perfectly reflecting plate at z = 0."""


@dataclass(frozen=True)
class DualPlate:
    """Perfectly reflecting plates at z = 0 and z = a."""

    a: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"plate separation a must be positive, got {self.a!r}")


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


def _dual_tail_bound(ns, a: float, dt: float, dz: float, sz: float):
    """Upper bound on the dropped |n| > N image-pair terms, for each N in ns.

    Beyond the last summed index every image separation is at least
    m_N = 2aN - max(z+z', |z-z'|), so each of the four terms per pair is at
    most 1/(m_N^2 - dt^2)^2; an integral test over the 1/(2an - M)^4 envelope
    gives the closed form used here. Returns inf while the bound is not yet
    valid (images still inside the light cone scale).
    """
    import numpy as np

    big = max(sz, abs(dz))
    m_next = 2.0 * a * (ns + 1.0) - big
    edge = 2.0 * a * ns - big
    gamma = 1.0 - (dt * dt) / (m_next * m_next)
    with np.errstate(divide="ignore"):
        bound = 4.0 / (math.pi**2 * gamma * gamma) / (6.0 * a * edge**3)
    return np.where((m_next > abs(dt)) & (edge > 0.0), bound, np.inf)


def _dual_pair_term(n: int, a: float, dt: float, dz: float, sz: float) -> float:
    total = 0.0
    for s in (n, -n):
        total += _inverse_square_factor(dt, dz - 2.0 * a * s, f"(z-z'-2an), n={s}")
        total += _inverse_square_factor(dt, sz - 2.0 * a * s, f"(z+z'-2an), n={s}")
    return total / math.pi**2


def _dual_pair_terms(ns, a: float, dt: float, dz: float, sz: float):
    """_dual_pair_term for each index in the array ns, as the same float
    operations in a plain loop; a block holding a singular image is
    re-evaluated through _dual_pair_term, which raises.

    Deliberately a loop, not numpy array arithmetic. A dual-plate sum stops
    after a few hundred pairs; array arithmetic does them about 8x faster,
    but on a shared machine its cost does not follow the interpreter's,
    which the benchmark's pure-Python speed calibration assumes, and
    point_evals throughput then spreads too widely between runs to be
    compared (docs/decisions.md).
    """
    import numpy as np

    reach = abs(dt)
    terms = []
    for n in ns.tolist():
        shift = 2.0 * a * n
        total = 0.0
        for separation in (dz - shift, sz - shift, dz + shift, sz + shift):
            factor = (dt - separation) * (dt + separation)
            denom = factor * factor
            if denom < _SINGULAR_EPS * max(reach, abs(separation)) ** 4:
                return np.array([_dual_pair_term(int(m), a, dt, dz, sz) for m in ns])
            total += 1.0 / denom
        terms.append(total / math.pi**2)
    return np.array(terms)


def correlator_dual_plate(
    pair: SpacetimePair, a: float, control: SummationControl = SummationControl()
) -> SummationResult:
    """Renormalized <E_z E_z> between plates at z=0 and z=a.

    The n=0 single-plate term plus both image families summed over n != 0 in
    symmetric pairs, truncated once the certified tail bound drops below
    control.tol relative to the accumulated value. Returns the SummationResult
    (value, terms_used, tail_estimate).
    """
    if not a > 0.0:
        raise DomainError(f"plate separation a must be positive, got {a!r}")
    if not (pair.z < a and pair.z_prime < a):
        raise DomainError(
            f"evaluation points must lie between the plates: z={pair.z!r}, "
            f"z'={pair.z_prime!r}, a={a!r}"
        )
    dt = pair.t - pair.t_prime
    dz = pair.z - pair.z_prime
    sz = pair.z + pair.z_prime
    base = correlator_single_plate(pair)
    try:
        return sum_symmetric_images(
            lambda ns: _dual_pair_terms(ns, a, dt, dz, sz),
            lambda ns: _dual_tail_bound(ns, a, dt, dz, sz),
            control,
            base=base,
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"dual-plate correlator: {exc}") from exc


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
    if not z > 0.0:
        raise DomainError(f"distance z must be positive, got {z!r}")
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
