"""The dual-plate correlator's explicit head and Hurwitz-zeta tail against a
50-digit closed form that shares no code with it.

The reference sums each image family in closed form (DLMF 4.22): with
k = pi/(2a) and d = t - t',
    sum_n 1/(d^2 - (c - 2an)^2)^2
        = [k^2 csc^2(k(c-d)) + k^2 csc^2(k(c+d)) - (k/d)(cot(k(c-d)) - cot(k(c+d)))] / (4d^2),
and at d = 0, sum_n 1/(c - 2an)^4 = k^4 (csc^4(kc) - (2/3) csc^2(kc)). The
correlator is [S(z+z') + S(z-z') - (direct n = 0 term of z-z')] / pi^2.
"""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casvolt import (
    ConvergenceError,
    SpacetimePair,
    SummationControl,
    correlator_dual_plate,
)
from casvolt import correlators
from casvolt.correlators import _dual_head, _inverse_square_factor

mpmath = pytest.importorskip("mpmath")

UNIT_ROUNDOFF = 2.0**-53
# Rounding allowance, in units of u * sum|head terms|. Forming the image
# separations s = z -+ z' - 2an in floats perturbs each head term by a few
# units of u times its condition number 2 max(|s|, 2an) / |d - s|; on the
# grid below, with d up to 0.99 of the nearest light cone, the largest
# measured deviation beyond tail_estimate was 311 u * sum|head terms|
# (2,800 random draws; 126 over the draws of this file).
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


def _head_magnitude(result, t, z, z_prime, a):
    """sum|head terms| / pi^2: the single-plate term and every image with
    1 <= |n| <= terms_used."""
    head = _dual_head(result.terms_used, a, t, z - z_prime, z + z_prime)
    return math.fsum([_inverse_square_factor(t, z + z_prime, "(z+z')"), *head]) / math.pi**2


def _assert_matches_reference(t, z, z_prime, a):
    result = correlator_dual_plate(SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime), a)
    reference = _reference(t, z, z_prime, a)
    allowed = (result.tail_estimate
               + ROUNDING_C * UNIT_ROUNDOFF * _head_magnitude(result, t, z, z_prime, a))
    assert abs(result.value - reference) <= allowed
    assert result.tail_estimate <= SummationControl().tol * result.value
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
    assert result.terms_used == correlators._DUAL_HEAD


@pytest.mark.parametrize("t, z, z_prime, a", [
    (5.5, 0.3, 0.4, 1.0),      # five image pairs inside the light cone
    (-23.7, 0.15, 0.85, 1.0),
    (62.05, 0.5, 0.2, 0.7),
])
def test_dual_plate_far_timelike_points_need_a_longer_head(t, z, z_prime, a):
    result = _assert_matches_reference(t, z, z_prime, a)
    assert result.terms_used > correlators._DUAL_HEAD


@pytest.mark.parametrize("tol", [1e-15, 1e-10, 1e-3])
@pytest.mark.parametrize("t", [0.0, 0.5, 5.5, 62.05])
def test_tail_requests_zeta_orders_up_to_sixteen(monkeypatch, tol, t):
    # hurwitz_zeta is tested against mpmath for s <= 16 only
    orders = []
    zeta = correlators.hurwitz_zeta

    def spy(s, x):
        orders.append(s)
        return zeta(s, x)

    monkeypatch.setattr(correlators, "hurwitz_zeta", spy)
    pair = SpacetimePair(t=t, z=0.3, t_prime=0.0, z_prime=0.4)
    result = correlator_dual_plate(pair, 1.0, SummationControl(tol=tol))
    assert 4 in orders and max(orders) <= 16
    assert result.tail_estimate <= tol * result.value


def test_head_beyond_n_max_raises_with_the_dual_prefix():
    pair = SpacetimePair(t=62.05, z=0.3, t_prime=0.0, z_prime=0.4)
    needed = correlator_dual_plate(pair, 1.0).terms_used
    with pytest.raises(ConvergenceError, match=f"^dual-plate correlator: .*n_max={needed - 1}"):
        correlator_dual_plate(pair, 1.0, SummationControl(n_max=needed - 1))
    assert correlator_dual_plate(pair, 1.0, SummationControl(n_max=needed)).terms_used == needed
