"""Invariants of the one-plate integral as properties, below the pole entry
b* = 2 v z0 / (1 - v): scaling homogeneity, positivity and log-scale
invariance (exact: the collapsed square does not see the log scale)."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from casvolt import LogScale, PathSegment, one_plate_integral, reflection_antiderivative

speeds = st.floats(-4.0, math.log10(0.3)).map(lambda e: 10.0**e)
starts = st.floats(-2.0, 1.0).map(lambda e: 10.0**e)
# b / b* from 1e-3 to just below the pole entry
pole_fractions = st.floats(-3.0, math.log10(0.999)).map(lambda e: 10.0**e)
factors = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)
log_scales = st.floats(-3.0, 3.0).map(lambda e: LogScale(10.0**e))


def _segment(z0, b_frac, v):
    return PathSegment(z0=z0, b=b_frac * 2.0 * v * z0 / (1.0 - v), v=v)


def _corner_magnitude(seg):
    """Sum of |antiderivative| over the four corners of the segment square."""
    corners = (seg.z0, seg.z0 + seg.b)
    return sum(abs(reflection_antiderivative(x, y, seg.v)) for x in corners for y in corners)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds, lam=factors)
def test_one_plate_integral_scales_as_inverse_square(z0, b_frac, v, lam):
    # no flat relative tolerance: at small b/b* and v the four corners cancel
    # to about 1e-6 of their magnitudes, so the error scale is the corner
    # magnitudes themselves (measured at most 1.1e-14 of them)
    seg = _segment(z0, b_frac, v)
    scaled = PathSegment(z0=lam * seg.z0, b=lam * seg.b, v=v)
    deviation = abs(lam * lam * one_plate_integral(scaled) - one_plate_integral(seg))
    assert deviation <= 1e-12 * _corner_magnitude(seg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds)
def test_one_plate_integral_positive_below_pole_entry(z0, b_frac, v):
    assert one_plate_integral(_segment(z0, b_frac, v)) > 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds, scale=log_scales)
def test_one_plate_integral_independent_of_log_scale(z0, b_frac, v, scale):
    # the square takes a log ratio, which ell does not enter
    seg = _segment(z0, b_frac, v)
    assert one_plate_integral(seg, scale) == one_plate_integral(seg)
