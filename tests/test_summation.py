"""Truncation control and the Hurwitz zeta function behind the analytic tails."""
import math
from fractions import Fraction

import pytest

from casvolt import DomainError, SummationControl
from casvolt.summation import hurwitz_zeta


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
    # every order the two-plate tail (4, 6) and the dual-plate tail (4 to 16)
    # request, at integer and non-integer x; the Euler-Maclaurin remainder is
    # below its first omitted term, B_22/22! (s)_21 x^(1-s-22), which reaches
    # 8e-14 relative at s = 16, x = 16. The reference takes 60 digits: at 40,
    # mpmath's own zeta(12, 4113) is off by 1e-13.
    mpmath = pytest.importorskip("mpmath")
    b22 = Fraction(854513, 138) / math.factorial(22)
    with mpmath.workdps(60):
        for s in range(2, 17):
            for x in (16.0, 16.37, 16.5, 17.0, 17.81, 17.99, 18.5, 100.0, 4113.0, 1e6):
                expected = mpmath.zeta(s, x)
                omitted = float(b22 * math.prod(range(s, s + 21))) * x ** (1 - s - 22)
                assert abs(hurwitz_zeta(s, x) - expected) <= 3e-16 * expected + omitted


@pytest.mark.parametrize("s, x", [(1, 20.0), (4, 15.5), (4, math.nan)])
def test_hurwitz_zeta_domain(s, x):
    with pytest.raises(DomainError):
        hurwitz_zeta(s, x)
