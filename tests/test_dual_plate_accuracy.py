"""Error map of the dual-plate correlator against mpmath.

The bound is C * u * kappa relative, u = 2^-53, with kappa the value's
condition number in its float inputs, taken in mpmath by central differences:
    kappa = (|d dV/dd| + |c1 dV/dc1| + |c2 dV/dc2| + |a dV/da|) / V,
d = t - t', c1 = z - z', c2 = z + z'. V is homogeneous of degree -4 in
(d, c1, c2, a), so kappa >= 4. The largest C measured over the draws below
was 0.95, and 1.53 over 1,600 further random draws of the same kinds; C = 2
is stated here and is not to be widened.
"""
import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from casvolt import SpacetimePair, correlator_dual_plate
from casvolt.correlators import _IMAGE_RULE

mpmath = pytest.importorskip("mpmath")

UNIT_ROUNDOFF = 2.0**-53
C = 2.0
_STEP = mpmath.mpf(10) ** -20


def _family(d, c, a):
    """sum over n of 1/(d^2 - (c - 2an)^2)^2 in closed form (DLMF 4.22)."""
    k = mpmath.pi / (2 * a)
    if d == 0:
        csc2 = mpmath.csc(k * c) ** 2
        return k**4 * (csc2 * csc2 - csc2 * 2 / 3)
    lo, hi = k * (c - d), k * (c + d)
    return (k**2 * (mpmath.csc(lo) ** 2 + mpmath.csc(hi) ** 2)
            - k / d * (mpmath.cot(lo) - mpmath.cot(hi))) / (4 * d * d)


def _value(d, c1, c2, a):
    """The correlator: both families less the direct n = 0 term of c1."""
    if c1 == 0 and d == 0:
        difference = 2 * mpmath.zeta(4) / (2 * a) ** 4
    else:
        difference = _family(d, c1, a) - 1 / (d * d - c1 * c1) ** 2
    return (_family(d, c2, a) + difference) / mpmath.pi**2


def _reference_and_kappa(t, z, z_prime, a):
    # small d cancels like (kd)^-2 in the partial fractions and the direct
    # term cancels against its family near its light cone: 60 digits plus
    # five per decade of kd below 1 keep at least 30 after both
    kd = math.pi / (2.0 * a) * abs(t)
    extra = 0 if t == 0.0 else max(0, math.ceil(-5.0 * math.log10(kd)))
    with mpmath.workdps(60 + extra):
        args = [mpmath.mpf(abs(t)), mpmath.mpf(z) - mpmath.mpf(z_prime),
                mpmath.mpf(z) + mpmath.mpf(z_prime), mpmath.mpf(a)]
        value = _value(*args)
        total = 0
        for i, x in enumerate(args):
            if x == 0:
                continue
            up, down = list(args), list(args)
            up[i], down[i] = x * (1 + _STEP), x * (1 - _STEP)
            total += abs((_value(*up) - _value(*down)) / (2 * _STEP))
        return value, float(total / value)


def _assert_within_bound(t, z, z_prime, a):
    result = correlator_dual_plate(SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime), a)
    reference, kappa = _reference_and_kappa(t, z, z_prime, a)
    assert result.terms_used == 1 and result.tail_estimate == 0.0
    assert abs(result.value - reference) <= C * UNIT_ROUNDOFF * kappa * reference
    return result


def _nearest_cone_gap(z, z_prime, a):
    """Distance in |d| to the nearest image light cone: min(z+z', 2a-(z+z'),
    2a-|z-z'|), the benchmark grid's reach."""
    return min(z + z_prime, 2.0 * a - (z + z_prime), 2.0 * a - abs(z - z_prime))


def _light_cone_gap(d, z, z_prime, a):
    """Distance in |d| to the nearest light cone of an image z -+ z' - 2an,
    the direct term n = 0 of z - z' aside."""
    return min(abs(ratio - round(ratio)) * 2.0 * a
               for family, c in enumerate((z - z_prime, z + z_prime))
               for ratio in ((c - d) / (2.0 * a), (c + d) / (2.0 * a))
               if family or round(ratio))


def _off_every_light_cone(d, z, z_prime, a):
    """Whether no image lies within 1e-5 max(d, a) of |d|; production
    refuses points within about 5e-7 min(d, 2a) of one."""
    return _light_cone_gap(d, z, z_prime, a) >= 1e-5 * max(d, a)


_position = st.one_of(st.floats(1e-3, 0.999),
                      st.floats(-8.0, -3.0).map(lambda e: 10.0**e),
                      st.floats(-8.0, -3.0).map(lambda e: 1.0 - 10.0**e))


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    a=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    uz=_position,
    uzp=_position,
    kind=st.sampled_from(["log", "diagonal", "direct cone", "reach", "far"]),
    u=st.floats(0.0, 1.0),
    reach=st.floats(0.01, 0.99),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(a=1.0, uz=0.3, uzp=0.4, kind="log", u=(math.log10(3000.0) + 8.0) / 11.0, reach=0.5,
         sign=1.0)
@example(a=1.0, uz=0.5, uzp=0.5, kind="diagonal", u=0.0, reach=0.5, sign=1.0)
@example(a=1.0, uz=0.001, uzp=0.999, kind="reach", u=0.0, reach=0.99, sign=1.0)
@example(a=1.0, uz=0.999, uzp=0.999, kind="reach", u=0.0, reach=0.99, sign=-1.0)
@example(a=1.0, uz=0.3, uzp=0.4, kind="far", u=1.0, reach=0.99, sign=-1.0)
def test_dual_plate_error_within_conditioning_bound(a, uz, uzp, kind, u, reach, sign):
    z, z_prime = a * uz, a * uzp
    if kind == "log":  # d/a from 1e-8 to 1e3
        d = a * 10.0 ** (-8.0 + 11.0 * u)
    elif kind == "diagonal":  # z = z', d/a from 1e-8 to 1, and d = 0
        z_prime = z
        d = 0.0 if u < 0.1 else a * 10.0 ** (-8.0 + 8.0 * u)
    elif kind == "direct cone":  # d within 1e-9 to 1e-1 of |z - z'|
        d = abs(z - z_prime) * (1.0 + sign * 10.0 ** (-9.0 + 8.0 * u))
    elif kind == "reach":  # up to 0.99 of the nearest image light cone
        d = reach * _nearest_cone_gap(z, z_prime, a)
    else:  # far timelike, next to the light cone of an image n <= 1500
        n = 1 + int(1499 * u)
        c = z + z_prime if n % 2 else z - z_prime
        d = abs(c - 2.0 * a * n) * (1.0 + sign * 10.0 ** (-5.0 + 4.0 * reach))
    assume(_off_every_light_cone(d, z, z_prime, a))
    _assert_within_bound(sign * d, z, z_prime, a)


@pytest.mark.parametrize("t", [3000.0, -3000.0, 250000.4])
def test_far_points_return(t):
    # t - t' = 3000a took 9,472 image pairs summed one at a time; at any
    # t - t' past 2a, only a t within 1e-6a of an image light cone counts
    # as singular
    result = _assert_within_bound(t, 0.3, 0.4, 1.0)
    assert result.value > 0.0


def test_far_times_off_the_light_cones_return():
    # near t - t' = 1e6a a window relative to t would span the 0.6a between
    # the light cones at 1e6a + 0.1a, 0.7a, 1.3a and 1.9a; half the times are
    # uniform, half within 3e-6a to 1e-2a of a cone
    rng = random.Random(1)
    times = [1e6 + rng.uniform(0.0, 2.0) for _ in range(100)]
    times += [1e6 + rng.choice((0.1, 0.7, 1.3, 1.9)) + rng.choice((1.0, -1.0))
              * 10.0 ** rng.uniform(-5.5, -2.0) for _ in range(100)]
    for t in times:
        assert _light_cone_gap(t, 0.3, 0.4, 1.0) >= 1e-6
        _assert_within_bound(t, 0.3, 0.4, 1.0)


def _work(pair, a):
    """Calls made, Python and builtin, in one evaluation."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        correlator_dual_plate(pair, a)
    finally:
        sys.setprofile(None)
    return calls


def test_work_does_not_grow_with_time_separation():
    # the image head made 260 calls on the diagonal, 1,320 at t - t' = 30.4a
    # and 113,724 at 3000.4a; the closed form makes a fixed number past 2a,
    # its light-cone search included
    diagonal = _work(SpacetimePair(t=0.0, z=0.5, t_prime=0.0, z_prime=0.5), 1.0)
    far = [_work(SpacetimePair(t=t, z=0.3, t_prime=0.0, z_prime=0.4), 1.0)
           for t in (30.4, 3000.4, 300000.4)]
    assert far[0] == far[1] and max(far) <= 4 * diagonal


def test_image_rule_is_the_gauss_rule_of_the_far_images():
    # nodes |n| = 1, 2 with weight 1, then the 4-point Gauss rule in t = 1/n^2
    # for sum over n >= 3 of 2 n^-4 delta(t - 1/n^2), rebuilt from its
    # moments 2 zeta(4 + 2j, 3) by the Chebyshev algorithm
    assert _IMAGE_RULE[:2] == ((1.0, 1.0), (2.0, 1.0))
    points = 4
    with mpmath.workdps(120):
        moments = [2 * mpmath.zeta(4 + 2 * j, 3) for j in range(2 * points)]
        alpha, beta = [moments[1] / moments[0]], [moments[0]]
        previous, current = [mpmath.mpf(0)] * (2 * points), list(moments)
        for k in range(1, points):
            following = [mpmath.mpf(0)] * (2 * points)
            for m in range(k, 2 * points - k):
                following[m] = (current[m + 1] - alpha[k - 1] * current[m]
                                - beta[k - 1] * previous[m])
            alpha.append(following[k + 1] / following[k] - current[k] / current[k - 1])
            beta.append(following[k] / current[k - 1])
            previous, current = current, following
        jacobi = mpmath.zeros(points, points)
        for i in range(points):
            jacobi[i, i] = alpha[i]
            if i + 1 < points:
                jacobi[i, i + 1] = jacobi[i + 1, i] = mpmath.sqrt(beta[i + 1])
        nodes, vectors = mpmath.eigsy(jacobi)
        rule = sorted((1 / mpmath.sqrt(nodes[i]),
                       moments[0] * vectors[0, i] ** 2 / nodes[i] ** 2 / 2)
                      for i in range(points))
    for (node, weight), (exact_node, exact_weight) in zip(_IMAGE_RULE[2:], rule):
        assert node == float(exact_node) and weight == float(exact_weight)
