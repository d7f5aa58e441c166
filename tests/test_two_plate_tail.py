"""The analytic tail subtracted by variance_two_plate_exact, and properties
of the certified two-plate variance over the benchmark's geometry ranges."""
import math

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
from casvolt.images import (
    _KERNEL_BLOCK,
    _SCALAR_BLOCK,
    _hurwitz_zeta,
    _two_plate_sum,
    _zeta16_bound,
    image_pair_terms,
)
from casvolt.summation import SummationControl
from casvolt.variance import _REFERENCE_FLOOR, _cone_index

from test_tail_coefficients import _walk_coefficients

# speeds 1e-3 to 1e-1; a in [0.5, 2], z0/a in [0.05, 0.8], b/(a - z0) in [0.02, 0.5]
speeds = st.floats(-3.0, -1.0).map(lambda e: 10.0**e)
separations = st.floats(0.5, 2.0)
starts = st.floats(0.05, 0.8)
lengths = st.floats(0.02, 0.5)


def _geometry(a, z0_frac, b_frac, v):
    z0 = a * z0_frac
    return PathSegment(z0=z0, b=b_frac * (a - z0), v=v)


def _engine_sum(seg, a, control=SummationControl()):
    """images._two_plate_sum with the n_U and n_ref = max(_REFERENCE_FLOOR,
    n_U) that variance_two_plate_exact passes it."""
    n_u = _cone_index(seg, a)
    return _two_plate_sum(seg, a, control, n_u, max(_REFERENCE_FLOOR, n_u))


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
    terms = [one_plate_integral(seg), *image_pair_terms(seg, a, range(1, light_cone + 1))]
    n = light_cone
    # past the light cone every pair term is positive: the head sum is a floor
    while tail(n) > tol * math.fsum(terms):
        terms.extend(image_pair_terms(seg, a, range(n + 1, 2 * n + 1)))
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


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(a=separations, z0_frac=st.floats(0.02, 0.9), b_frac=lengths,
       log_v=st.floats(-3.0, math.log10(0.5)))
def test_floored_sums_agree_with_the_integral_test_reference(tol, a, z0_frac, b_frac, log_v):
    # an error map of the sums floored at n_ref = _REFERENCE_FLOOR (n_U < 9),
    # whose tail takes zeta(s, x) at x = 10..13 from the head sum: each value
    # lies within its tail_estimate + 2 tol of a plain fsum reference, cut
    # where the benchmark's integral-test tail falls below 1e-12 of it (the
    # benchmark's own cut) at tol = 1e-10 and below tol at 1e-13, so that
    # what the reference drops stays inside the allowance
    seg = _geometry(a, z0_frac, b_frac, 10.0**log_v)
    if _cone_index(seg, a) >= _REFERENCE_FLOOR:
        reject()
    try:
        result = _engine_sum(seg, a, SummationControl(tol=tol))
    except SingularityError:
        reject()
    reference, _ = _plain_sum(seg, a, min(1e-12, tol))
    assert abs(result.value - reference) <= result.tail_estimate + 2.0 * tol * reference


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
    # to within the bound's own rounding, at the block ends x = N + 1 >= 10 a
    # sum certifies at; and the bound overestimates by at most 1e-3 of it from
    # x = 17 on (7.85e-4 at x = 17, falling like 1/x^2) and by at most 5e-3
    # below (4.83e-3 at x = 10). The reference takes 80 digits.
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    xs = [float(x) for x in range(_REFERENCE_FLOOR + 1, 65)]
    xs += [float(round(10.0 ** (math.log10(65.0) + i * (6.0 - math.log10(65.0)) / 40)))
           for i in range(41)]
    with mpmath.workdps(80):
        for x in xs:
            zeta = float(mpmath.zeta(16, x))
            bound = _zeta16_bound(x)
            excess = 1e-3 if x >= 17 else 5e-3
            assert zeta * (1.0 - 4.0 * u) <= bound <= zeta * (1.0 + excess), x


@pytest.mark.parametrize("v, end, pieces", [
    (0.1, 9, 0),  # n_U = 2, floored at n_ref = 9: the pure-Python pass
    (0.2 / 45.0, 30, 0),  # n_U = 23: the longest block the pass takes
    (0.2 / 47.0, 32, 1),  # n_U = 24: the numpy kernel, in one piece
    (2e-5, 6253, 7),  # n_U = 5,001: seven kernel pieces
])
def test_two_plate_sum_is_its_documented_parts(v, end, pieces):
    # value(E) is the compensated sum of the one-plate term, the pair terms
    # 1..E and the tail sum_j C_j zeta(4+2j, E+1), C_j by the walk of the
    # table and the tail added left to right explicitly: equal bit for bit,
    # so that no change to the sum's fixed cost re-associates it unseen
    assert (end > _SCALAR_BLOCK) == (pieces > 0)
    assert pieces == 0 or math.ceil(end / _KERNEL_BLOCK) == pieces
    a, seg = 1.0, PathSegment(z0=0.3, b=0.1, v=v)
    result = _engine_sum(seg, a)
    assert result.terms_used == end
    coefficients = _walk_coefficients(seg, a)
    tail = 0.0
    for j, c in enumerate(coefficients):
        tail += c * _hurwitz_zeta(4 + 2 * j, end + 1.0)
    parts = [one_plate_integral(seg), *image_pair_terms(seg, a, range(1, end + 1)), tail]
    assert result.value.hex() == math.fsum(parts).hex()
