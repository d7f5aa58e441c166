"""The dual-plate correlator against a 50-digit closed form.

The reference sums each image family in closed form (DLMF 4.22): with
k = pi/(2a) and d = t - t',
    sum_n 1/(d^2 - (c - 2an)^2)^2
        = [k^2 csc^2(k(c-d)) + k^2 csc^2(k(c+d)) - (k/d)(cot(k(c-d)) - cot(k(c+d)))] / (4d^2),
and at d = 0, sum_n 1/(c - 2an)^4 = k^4 (csc^4(kc) - (2/3) csc^2(kc)). The
correlator is [S(z+z') + S(z-z') - (direct n = 0 term of z-z')] / pi^2.
Production evaluates the same sums in another arrangement (an image rule
near the plates, the trigonometric form with the direct term subtracted far
from them); the reference shares no code with it.
"""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casvolt import SpacetimePair, correlator_dual_plate
from casvolt.images import _hurwitz_zeta

mpmath = pytest.importorskip("mpmath")

UNIT_ROUNDOFF = 2.0**-53
# Rounding allowance, in units of u * sum|image terms|. Every image term
# 1/(d^2 - s^2)^2 is positive, so that sum is the reference itself. The
# allowance dates from the image head, whose float separations z -+ z' - 2an
# were off by up to 311 u * sum|head terms| next to a light cone; it is
# kept, not narrowed, here: tests/test_dual_plate_accuracy.py holds the
# closed form to its own, conditioning-scaled bound.
ROUNDING_C = 1024.0


def _reference(t, z, z_prime, a):
    """The correlator at t' = 0 from the closed forms above, in at least 50
    digits. Small d takes more: the partial fractions cancel like 1/d^3, and
    on the diagonal the direct term 1/d^4 cancels against its family."""
    extra = 0 if t == 0.0 else max(0, math.ceil(-5.0 * math.log10(math.pi / (2.0 * a) * abs(t))))
    with mpmath.workdps(50 + extra):
        d, z, z_prime, a = (mpmath.mpf(v) for v in (t, z, z_prime, a))
        dz, sz = z - z_prime, z + z_prime
        k = mpmath.pi / (2 * a)
        if d == 0:
            def family(c):
                csc2 = mpmath.csc(k * c) ** 2
                return k**4 * (csc2 * csc2 - csc2 * 2 / 3)

            def direct(c):
                return 1 / c**4
        else:
            def family(c):
                lo, hi = k * (c - d), k * (c + d)
                return (k**2 * (mpmath.csc(lo) ** 2 + mpmath.csc(hi) ** 2)
                        - k / d * (mpmath.cot(lo) - mpmath.cot(hi))) / (4 * d * d)

            def direct(c):
                return 1 / (d * d - c * c) ** 2
        if d == 0 and dz == 0:
            # the z - z' family without its n = 0 term: 2 zeta(4) / (2a)^4
            difference = 2 * mpmath.zeta(4) / (2 * a) ** 4
        else:
            difference = family(dz) - direct(dz)
        return float((family(sz) + difference) / mpmath.pi**2)


def _image_magnitude(t, z, z_prime, a):
    """sum|image terms| / pi^2: every image term is positive, so the
    reference value."""
    return abs(_reference(t, z, z_prime, a))


def _assert_matches_reference(t, z, z_prime, a):
    result = correlator_dual_plate(SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime), a)
    reference = _reference(t, z, z_prime, a)
    allowed = (result.tail_estimate
               + ROUNDING_C * UNIT_ROUNDOFF * _image_magnitude(t, z, z_prime, a))
    assert abs(result.value - reference) <= allowed
    assert result.tail_estimate == 0.0
    return result


# the point_evals dual grid: a in [0.5, 2], z and z' in [0.05a, 0.95a], and
# t a fraction of the nearest image light cone, min(z+z', 2a-(z+z'), 2a-|z-z'|)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.0, 1.0), uzp=st.floats(0.0, 1.0),
       reach=st.one_of(st.just(0.0), st.floats(0.0, 0.99)), sign=st.sampled_from([1.0, -1.0]))
@example(a=1.0, uz=0.5, uzp=0.5, reach=0.0, sign=1.0)  # d = 0 on the diagonal
@example(a=1.0, uz=0.0, uzp=1.0, reach=0.99, sign=1.0)  # next to the n = 1 light cones
@example(a=0.5, uz=1.0, uzp=1.0, reach=0.99, sign=-1.0)
def test_dual_plate_matches_closed_form_on_the_benchmark_grid(a, uz, uzp, reach, sign):
    z, z_prime = a * (0.05 + 0.9 * uz), a * (0.05 + 0.9 * uzp)
    gap = min(z + z_prime, 2.0 * a - (z + z_prime), 2.0 * a - abs(z - z_prime))
    _assert_matches_reference(sign * reach * gap, z, z_prime, a)


@pytest.mark.parametrize("t, z, z_prime, a", [
    (0.0, 0.3, 0.4, 1.0),
    (0.25, 0.1, 0.9, 1.0),
    (0.9, 0.5, 0.5, 1.0),
    (0.02, 0.01, 0.03, 0.05),
])
def test_dual_plate_matches_closed_form_at_fixed_points(t, z, z_prime, a):
    result = _assert_matches_reference(t, z, z_prime, a)
    assert result.terms_used == 1


@pytest.mark.parametrize("t, z, z_prime, a", [
    (5.5, 0.3, 0.4, 1.0),      # five image pairs inside the light cone
    (-23.7, 0.15, 0.85, 1.0),
    (62.05, 0.5, 0.2, 0.7),
])
def test_dual_plate_far_timelike_points_match_closed_form(t, z, z_prime, a):
    result = _assert_matches_reference(t, z, z_prime, a)
    assert result.terms_used == 1


def _zeta_upper_bound(s, x):
    """zeta(s, x) = sum_k (x + k)^-s <= x^-s + x^(1-s)/(s-1), by the integral test."""
    return x**-s + x ** (1 - s) / (s - 1)


@pytest.mark.parametrize("tol", [1e-15, 1e-10, 1e-3])
@pytest.mark.parametrize("t", [0.0, 0.5, 5.5, 62.05])
def test_tail_requests_zeta_orders_up_to_sixteen(tol, t):
    # The image sum the closed form replaced, rebuilt here: every image with
    # |n| < N term by term and, past them, 1/(s^2 - d^2)^2
    # = sum_j (j + 1) d^2j / s^(2j+4) summed over n as Hurwitz zeta orders
    # 4, 6, ..., 16 from _hurwitz_zeta. N is the least head, from 17
    # on, at which orders 18 and up are bounded by tol/2 of the value; the
    # closed form must then agree with the sum to within tol.
    z, z_prime, a = 0.3, 0.4, 1.0
    value = _reference(t, z, z_prime, a)
    d, width = abs(t), 2.0 * a
    orders = [4 + 2 * j for j in range(7)]
    assert orders[0] == 4 and orders[-1] == 16
    weights = [(j + 1) * d ** (2 * j) / width ** (4 + 2 * j) for j in range(len(orders))]
    # each family's separation c; the z - z' family has no n = 0 term
    families = ((z + z_prime, True), (z - z_prime, False))

    def tail_starts(head):
        # n >= head: |s| = 2a (n - c/2a); n <= -head: |s| = 2a (|n| + c/2a)
        return [x for c, _ in families for x in (head - c / width, head + c / width)]

    def omitted(head):
        # sum_{j>=7} (j+1) d^2j zeta(2j+4, x) / (2a)^(2j+4) with
        # zeta(2j+4, x) <= zeta(18, x) x^(-2(j-7)): a series in r = (d / 2ax)^2
        bound = 0.0
        for x in tail_starts(head):
            r = (d / (width * x)) ** 2
            if r >= 1.0:  # images inside the light cone: the series diverges
                return math.inf
            first = len(orders) + 1
            bound += (d ** (2 * len(orders)) / width ** (4 + 2 * len(orders))
                      * _zeta_upper_bound(4 + 2 * len(orders), x)
                      * (first / (1.0 - r) + r / (1.0 - r) ** 2))
        return bound

    head = 17
    while omitted(head) > 0.5 * tol * value:
        head += 1
    terms = [1.0 / (d * d - (c - width * n) ** 2) ** 2
             for c, with_zero in families for n in range(1 - head, head) if n or with_zero]
    for x in tail_starts(head):
        terms += [w * _hurwitz_zeta(s, x) for w, s in zip(weights, orders)]
    image_sum = math.fsum(terms) / math.pi**2

    result = correlator_dual_plate(SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime), a)
    assert abs(result.value - image_sum) <= tol * value + ROUNDING_C * UNIT_ROUNDOFF * value
    assert result.tail_estimate <= tol * result.value
