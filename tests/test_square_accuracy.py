"""Error map of the segment-square integrals against 60-digit mpmath.

Each square is evaluated in collapsed form, with no cancellation between
corners, so its rounding error is a few ulps times the conditioning of its
log arguments: kappa = (their natural scale) / (the smaller one's distance
from zero), which is O(1) away from the kernel's singular locus and grows
only next to it (b near b* = 2 v z0 / (1 - v) for the one-plate square).
Over 6,000 random points of the ranges below, the largest error measured was
15 u kappa |reference| (u = 2^-53), and 19 u |reference| where kappa < 100;
the bound asserted is 64 u kappa |reference|. image_pair_terms is mapped
through both of its branches, the numpy kernel and the pure-Python pass, one
index at a time as range(n, n + 1).
"""
import contextlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casvolt import (
    PathSegment,
    SingularityError,
    one_plate_integral,
    reflected_image_integral,
    translated_image_integral,
)
import casvolt.images
from casvolt.images import _KERNEL_BLOCK, _image_pair_term, image_pair_terms

pytest.importorskip("mpmath")
import mp_squares as mp  # noqa: E402

U = 2.0**-53
BOUND = 64.0

speeds = st.floats(-4.0, math.log10(0.3)).map(lambda e: 10.0**e)
starts = st.floats(-2.0, 1.0).map(lambda e: 10.0**e)
# b / b* from 1e-3 to ten times past the pole entry
pole_fractions = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)
# a / (z0 + b) from just above 1 to 20, so every image square lies beyond a plate
gaps = st.floats(0.005, 1.3).map(lambda e: 10.0**e)
indices = st.floats(0.0, math.log10(20000.0)).map(lambda e: int(10.0**e))


# image_pair_terms takes a block of at most _SCALAR_BLOCK indices through its
# pure-Python pass and a longer one through its numpy kernel: pinned to 0,
# every block takes the kernel; pinned to _KERNEL_BLOCK, every block the pass
BRANCHES = {"numpy": 0, "python": _KERNEL_BLOCK}


@contextlib.contextmanager
def pinned_branch(name):
    """Send every image_pair_terms block through the branch name."""
    saved = casvolt.images._SCALAR_BLOCK
    casvolt.images._SCALAR_BLOCK = BRANCHES[name]
    try:
        yield
    finally:
        casvolt.images._SCALAR_BLOCK = saved


def _segment(z0, b_frac, v):
    return PathSegment(z0=z0, b=b_frac * 2.0 * v * z0 / (1.0 - v), v=v)


def _reflection_kappa(base, b, v):
    x = 2.0 * v * base - (1.0 - v) * b
    y = x + 2.0 * b
    return max(1.0, (v * (abs(base) + abs(base + b)) + b) / min(abs(x), abs(y)))


def _translation_kappa(b, v, a, n):
    c = 2.0 * abs(n) * a * v
    return max(1.0, (c + b) / min(abs(c - (1.0 + v) * b), abs(c + (1.0 - v) * b),
                                  abs(c - (1.0 - v) * b)))


def _pair_kappa(seg, a, n):
    return max(_reflection_kappa(seg.z0 - a * n, seg.b, seg.v),
               _reflection_kappa(seg.z0 + a * n, seg.b, seg.v),
               _translation_kappa(seg.b, seg.v, a, n))


def _assert_close(value, reference, kappa):
    reference = float(reference)
    assert abs(value - reference) <= BOUND * U * kappa * abs(reference)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds)
# the worst point of the former 16-corner form (1.3e-10), and both sides of b*
@example(z0=0.011, b_frac=1.1e-3, v=1.9e-4)
@example(z0=1.0, b_frac=1.0 - 1e-6, v=0.01)
@example(z0=1.0, b_frac=1.0 + 1e-6, v=0.01)
def test_one_plate_integral_error_map(z0, b_frac, v):
    seg = _segment(z0, b_frac, v)
    try:
        value = one_plate_integral(seg)
    except SingularityError:
        return  # a corner within 1e-10 of the light cone
    _assert_close(value, mp.one_plate(seg.z0, seg.b, v), _reflection_kappa(seg.z0, seg.b, v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds, gap=gaps, n=indices)
def test_reflected_image_integral_error_map(z0, b_frac, v, gap, n):
    seg = _segment(z0, b_frac, v)
    a = gap * (seg.z0 + seg.b)
    for s in (n, -n):
        try:
            value = reflected_image_integral(seg, a, s)
        except SingularityError:
            continue
        _assert_close(value, mp.reflected(seg.z0, seg.b, v, a, s),
                      _reflection_kappa(seg.z0 - a * s, seg.b, v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds, gap=gaps, n=indices)
def test_translated_image_integral_error_map(z0, b_frac, v, gap, n):
    seg = _segment(z0, b_frac, v)
    a = gap * (seg.z0 + seg.b)
    try:
        value = translated_image_integral(seg, a, n)
    except SingularityError:
        return
    assert translated_image_integral(seg, a, -n) == value
    _assert_close(value, mp.translated(seg.z0, seg.b, v, a, n),
                  _translation_kappa(seg.b, v, a, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(z0=starts, b_frac=pole_fractions, v=speeds, gap=gaps,
       ns=st.lists(indices, min_size=1, max_size=4))
def test_image_pair_terms_error_map(z0, b_frac, v, gap, ns):
    seg = _segment(z0, b_frac, v)
    a = gap * (seg.z0 + seg.b)
    for n in ns:
        values = []
        for branch in BRANCHES:
            with pinned_branch(branch):
                try:
                    values += image_pair_terms(seg, a, range(n, n + 1))
                except SingularityError:
                    continue
        if not values:
            continue
        reference, kappa = mp.pair(seg.z0, seg.b, v, a, n), _pair_kappa(seg, a, n)
        for value in values:
            _assert_close(value, reference, kappa)


def test_pair_term_far_past_the_light_cone():
    # 16 corners of magnitude 1e-4 to 1e-3 used to cancel to 1.72e-14 here,
    # and the 16-corner scalar pair gave 1.29e-14. The pair term follows its
    # leading asymptotics C n^-4, C = b^2 / (4 a^4 v^4), to 1e-5.
    seg, a, n = PathSegment(z0=0.5, b=1e-4, v=2.0**-8), 0.5, 9999
    reference = mp.pair(seg.z0, seg.b, seg.v, a, n)
    kappa = _pair_kappa(seg, a, n)
    for branch in BRANCHES:
        with pinned_branch(branch):
            _assert_close(image_pair_terms(seg, a, range(n, n + 1))[0], reference, kappa)
    _assert_close(_image_pair_term(seg, a, n), reference, kappa)
    leading = seg.b**2 / (4.0 * a**4 * seg.v**4) / n**4
    assert float(reference) == pytest.approx(leading, rel=1e-5, abs=0.0)
