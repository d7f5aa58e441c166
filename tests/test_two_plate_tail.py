"""The analytic tail subtracted by variance_two_plate_exact, and properties
of the certified two-plate variance over the benchmark's geometry ranges."""
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from casvolt import (
    Particle,
    PathSegment,
    SingularityError,
    one_plate_integral,
    variance_two_plate_exact,
)
from casvolt.closed_forms import image_pair_terms
from casvolt.variance import _zeta16_bound

# speeds 1e-3 to 1e-1; a in [0.5, 2], z0/a in [0.05, 0.8], b/(a - z0) in [0.02, 0.5]
speeds = st.floats(-3.0, -1.0).map(lambda e: 10.0**e)
separations = st.floats(0.5, 2.0)
starts = st.floats(0.05, 0.8)
lengths = st.floats(0.02, 0.5)


def _geometry(a, z0_frac, b_frac, v):
    z0 = a * z0_frac
    return PathSegment(z0=z0, b=b_frac * (a - z0), v=v)


def _variance(seg, a):
    """variance_two_plate_exact for an electron at the segment's speed; a
    corner on an image light cone raises, and such inputs are skipped."""
    try:
        return variance_two_plate_exact(Particle.electron(speed=seg.v), seg, a)
    except SingularityError:
        reject()


def _plain_sum(seg, a, tol=1e-12):
    """One-plate term plus every pair term up to the first index whose
    integral-test n^-4 tail bound is below tol of the sum, by plain fsum
    without the summation engine: (sum, that tail bound)."""
    z1 = seg.z0 + seg.b

    def tail(n):
        u = seg.v * (2.0 * a * n - 2.0 * z1) / seg.b
        return 2.0 / (a * seg.v * seg.b) / (3.0 * u**3 * (1.0 - 1.0 / (u * u)) ** 2)

    light_cone = math.floor((seg.b / seg.v + 2.0 * z1) / (2.0 * a)) + 1
    terms = [one_plate_integral(seg), *image_pair_terms(seg, a, np.arange(1.0, light_cone + 1))]
    n = light_cone
    # past the light cone every pair term is positive: the head sum is a floor
    while tail(n) > tol * math.fsum(terms):
        block = np.arange(n + 1.0, 2 * n + 1.0)
        terms.extend(image_pair_terms(seg, a, block))
        n = 2 * n
    return math.fsum(terms), tail(n)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=separations, z0_frac=starts, b_frac=lengths, v=speeds)
def test_tail_estimate_bounds_the_true_remainder(a, z0_frac, b_frac, v):
    seg = _geometry(a, z0_frac, b_frac, v)
    result = _variance(seg, a)
    q = Particle.electron(speed=v).charge_natural
    prefactor = q * q * v**4 / math.pi**2
    reference, dropped = _plain_sum(seg, a)
    reference, dropped = prefactor * reference, prefactor * dropped
    rounding = 1e-14 * reference
    # reference <= true sum <= reference + dropped: the true remainder
    # (true sum - value) is at least reference - value and never negative
    assert reference - result.variance_eV2 <= result.tail_estimate_eV2 + rounding
    assert result.variance_eV2 - reference <= dropped + rounding
    assert result.tail_estimate_eV2 <= 1e-10 * result.variance_eV2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=separations, z0_frac=starts, b_frac=lengths, v=speeds, scale=st.floats(0.25, 4.0))
def test_two_plate_variance_scales_as_inverse_square_length(a, z0_frac, b_frac, v, scale):
    seg = _geometry(a, z0_frac, b_frac, v)
    base = _variance(seg, a)
    scaled = _variance(PathSegment(z0=scale * seg.z0, b=scale * seg.b, v=v), scale * a)
    expected = base.variance_eV2 / scale**2
    allowed = scaled.tail_estimate_eV2 + base.tail_estimate_eV2 / scale**2 + 1e-13 * expected
    assert abs(scaled.variance_eV2 - expected) <= allowed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=separations, z0_frac=starts, b_frac=lengths, v=speeds)
def test_two_plate_variance_mirror_symmetry(a, z0_frac, b_frac, v):
    # the flight from z0 to z0 + b mirrors into a - z0 - b to a - z0
    seg = _geometry(a, z0_frac, b_frac, v)
    left = _variance(seg, a)
    right = _variance(PathSegment(z0=a - seg.z0 - seg.b, b=seg.b, v=v), a)
    allowed = left.tail_estimate_eV2 + right.tail_estimate_eV2 + 1e-13 * left.variance_eV2
    assert abs(left.variance_eV2 - right.variance_eV2) <= allowed


def test_zeta16_bound_holds_with_a_small_excess():
    # the envelope's one analytic inequality: zeta(16, x) <= _zeta16_bound(x),
    # to within the bound's own rounding, at the block ends x = N + 1 >= 17 a
    # sum certifies at; and the bound overestimates by at most 1e-3 of it
    # (7.85e-4 at x = 17, falling like 1/x^2). The reference takes 80 digits.
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    xs = [float(x) for x in range(17, 65)]
    xs += [float(round(10.0 ** (math.log10(65.0) + i * (6.0 - math.log10(65.0)) / 40)))
           for i in range(41)]
    with mpmath.workdps(80):
        for x in xs:
            zeta = float(mpmath.zeta(16, x))
            bound = _zeta16_bound(x)
            assert zeta * (1.0 - 4.0 * u) <= bound <= zeta * (1.0 + 1e-3), x
