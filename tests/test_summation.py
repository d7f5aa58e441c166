"""Truncation control, and the Hurwitz zeta series behind the two-plate
tail (variance._hurwitz_zeta)."""
import math
from fractions import Fraction

import pytest

from casvolt import DomainError, SummationControl
from casvolt.variance import _hurwitz_zeta


def test_control_validation():
    with pytest.raises(DomainError):
        SummationControl(tol=0.0)
    with pytest.raises(DomainError):
        SummationControl(tol=-1e-3)
    with pytest.raises(DomainError):
        SummationControl(n_max=0)


@pytest.mark.parametrize("n_max", [True, 40.5, math.inf])
def test_control_refuses_n_max_that_is_not_an_integer(n_max):
    # these passed and the sum then refused "within n_max=True terms"
    with pytest.raises(DomainError, match="n_max must be an integer >= 1"):
        SummationControl(n_max=n_max)


def test_hurwitz_zeta_matches_mpmath():
    # _hurwitz_zeta for every order from 2 to 16 at integer and non-integer
    # x; the Euler-Maclaurin remainder is below its first omitted term,
    # B_22/22! (s)_21 x^(1-s-22), which reaches 8e-14 relative at s = 16,
    # x = 16. The reference takes 80 digits: at 40, mpmath's own
    # zeta(12, 4113) is off by 1e-13.
    mpmath = pytest.importorskip("mpmath")
    b22 = Fraction(854513, 138) / math.factorial(22)
    with mpmath.workdps(80):
        for s in range(2, 17):
            for x in (16.0, 16.37, 16.5, 17.0, 17.81, 17.99, 18.5, 100.0, 4113.0, 1e6):
                expected = mpmath.zeta(s, x)
                omitted = float(b22 * math.prod(range(s, s + 21))) * x ** (1 - s - 22)
                assert abs(_hurwitz_zeta(s, x) - expected) <= 3e-16 * expected + omitted


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                     (3.0, 0.25, 0.5, 1e-3, 7.0, 2e-6)])
def test_hurwitz_zeta_series_sums_weighted_orders(weights):
    # a weighted sum of _hurwitz_zeta values, summed as the two-plate tail
    # sums them, is within a few ulps of the same weighted sum of
    # zeta(s + 2j, x), for the six orders from s = 4 the tail takes. The
    # reference takes 80 digits: at 50, mpmath's own zeta(s, x) is off by up
    # to 1e-11 at s >= 14 and x in the thousands.
    mpmath = pytest.importorskip("mpmath")
    for x in (16.0, 17.0, 18.5, 100.0, 4113.0, 1e6):
        total = sum(w * _hurwitz_zeta(4 + 2 * j, x) for j, w in enumerate(weights))
        with mpmath.workdps(80):
            expected = float(mpmath.fsum(w * mpmath.zeta(4 + 2 * j, x)
                                         for j, w in enumerate(weights)))
        assert abs(total - expected) <= 8 * 2.0**-53 * expected
