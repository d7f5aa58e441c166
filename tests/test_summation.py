"""Truncation control, and the Hurwitz zeta series behind the two-plate
tail (images._hurwitz_zeta)."""
import math
from fractions import Fraction

import pytest

from casvolt import (
    ConvergenceError,
    DomainError,
    Particle,
    PathSegment,
    SummationControl,
    variance_two_plate_exact,
)
from casvolt.images import _EULER_MACLAURIN_FROM, _TAIL_ROUNDING, _hurwitz_zeta, _tail_zetas
from casvolt.summation import _refusal
from casvolt.variance import _REFERENCE_FLOOR, _cone_index


def test_control_validation():
    with pytest.raises(DomainError):
        SummationControl(tol=0.0)
    with pytest.raises(DomainError):
        SummationControl(tol=-1e-3)
    with pytest.raises(DomainError):
        SummationControl(n_max=0)


def test_both_two_plate_refusals_are_the_budgets_refusal():
    # n_U = 11 here. An n_max below it refuses before any pair, with bound
    # inf; at n_max = n_ref the first block ends the budget, and a tol below
    # its rounding allowance refuses there, with the finite bound it reached
    seg = PathSegment(z0=0.3, b=0.1, v=0.01)
    particle, n_ref = Particle.electron(speed=seg.v), _cone_index(seg, 1.0)
    assert n_ref == 11 > _REFERENCE_FLOOR
    for control in (SummationControl(n_max=n_ref - 1), SummationControl(1e-17, n_ref)):
        with pytest.raises(ConvergenceError) as refused:
            variance_two_plate_exact(particle, seg, 1.0, control)
        message = str(refused.value)
        bound = float(message.rpartition("last tail bound ")[2].rstrip(")"))
        assert math.isfinite(bound) == (control.n_max == n_ref)
        assert message == str(_refusal(control.tol, control.n_max, bound))


@pytest.mark.parametrize("n_max", [True, 40.5, math.inf])
def test_control_refuses_n_max_that_is_not_an_integer(n_max):
    # these passed and the sum then refused "within n_max=True terms"
    with pytest.raises(DomainError, match="n_max must be an integer >= 1"):
        SummationControl(n_max=n_max)


def test_control_takes_numpy_integers_and_refuses_integral_floats():
    np = pytest.importorskip("numpy")
    assert SummationControl(n_max=np.int64(40)).n_max == 40
    for n_max in (40.0, np.float64(40.0), np.bool_(True)):
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


# ulps of zeta(4+2j, x) the six tail orders stay within, at every block end
# x = N + 1 from _REFERENCE_FLOOR + 1 = 10 to 40; the worst measured is 60.3
# ulps at s = 14 and x = 16, the Euler-Maclaurin remainder at 16
_TAIL_ZETA_ULPS = 64


def test_tail_zetas_match_mpmath_from_the_reference_floor():
    # below _EULER_MACLAURIN_FROM = 16 each value is the fsum of the head
    # sum_{m=x}^{15} m^-s and the Euler-Maclaurin value at 16; from 16 on,
    # the series itself. The reference takes 80 digits.
    mpmath = pytest.importorskip("mpmath")
    assert _TAIL_ZETA_ULPS * 2.0**-53 <= _TAIL_ROUNDING
    xs = range(_REFERENCE_FLOOR + 1, 41)
    assert xs[0] < _EULER_MACLAURIN_FROM < xs[-1]
    with mpmath.workdps(80):
        for x in xs:
            for j, value in enumerate(_tail_zetas(float(x))):
                expected = mpmath.zeta(4 + 2 * j, x)
                assert abs(value - expected) <= _TAIL_ZETA_ULPS * 2.0**-53 * expected, (x, j)
