"""The expansion the two-plate sum subtracts: C_0, ..., C_5 of
pair_term(n) = sum_j C_j n^-(4+2j) + O(n^-16), and the certificate on what
is left."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casvolt import PathSegment
from casvolt.variance import _TAIL_ORDERS, _tail_coefficients

mpmath = pytest.importorskip("mpmath")
import mp_squares as mp  # noqa: E402


def _derived_orders():
    """_TAIL_ORDERS derived again: the four image kernels of +n and -n,
    1/[d^2 - v^2 (w -+ s)^2]^2 and 1/[d^2 - v^2 (w -+ d)^2]^2 with
    w = 2an, d = z - z', s = z + z', expanded in 1/w by sympy, each order
    integrated over the square [z0, z0 + b]^2 and written as
    b^2 / (v^4 w^4) sum_{k,i} q_jki g^k s_^i h^(j-i) with g = 1/v^2,
    s_ = (zc/2a)^2, h = (b/2a)^2, zc = z0 + b/2, over the least common
    denominator of the q_jki."""
    sp = pytest.importorskip("sympy")
    d, s, v, eps = sp.symbols("d s v epsilon", positive=True)
    x, y, zc, b, w = sp.symbols("x y z_c b w", positive=True)
    g, s_, h = sp.symbols("g s_ h", positive=True)

    def kernel(separation):
        # 1/[d^2 - v^2 (separation / eps)^2]^2 times eps^-4
        return 1 / (d**2 * eps**2 - v**2 * separation**2) ** 2

    pair = eps**4 * (kernel(s * eps - 1) + kernel(s * eps + 1)
                     + kernel(d * eps - 1) + kernel(d * eps + 1))
    series = sp.expand(sp.series(pair, eps, 0, 16).removeO())
    assert all(series.coeff(eps, p) == 0 for p in range(0, 16) if p % 2 or p < 4)
    orders = []
    for j in range(6):
        order = series.coeff(eps, 4 + 2 * j).subs({d: x - y, s: 2 * zc + x + y})
        order = sp.integrate(sp.expand(order), (x, -b / 2, b / 2), (y, -b / 2, b / 2))
        scaled = sp.expand((order * v**4 / (b**2 * w ** (2 * j))).subs(
            {v: 1 / sp.sqrt(g), zc: sp.sqrt(s_) * w, b: sp.sqrt(h) * w}))
        poly = sp.Poly(scaled, g, s_, h)
        denominator = sp.lcm([sp.fraction(q)[1] for q in poly.coeffs()] + [1])
        rows = tuple(
            tuple(poly.coeff_monomial(g**k * s_**i * h ** (j - i)) * denominator
                  for i in range(j - k + 1))
            for k in range(j + 1))
        assert sum(map(len, rows)) == len(poly.coeffs())
        orders.append((denominator, rows))
    return orders


def test_tail_orders_equal_their_sympy_derivation():
    sp = pytest.importorskip("sympy")
    derived = _derived_orders()
    assert len(derived) == len(_TAIL_ORDERS)
    for (denominator, rows), (derived_denominator, derived_rows) in zip(_TAIL_ORDERS, derived):
        assert [[sp.Rational(q, denominator) for q in row] for row in rows] == [
            [q / derived_denominator for q in row] for row in derived_rows]
    # the two lowest orders are the C and D of the former two-order tail
    assert _TAIL_ORDERS[:2] == ((1, ((4,),)), (3, ((20, 240), (4,))))


def _exact_coefficients(z0, b, v, a):
    """C_0, ..., C_5 as exact rationals of the float inputs."""
    z0, b, v, w = (Fraction(t) for t in (z0, b, v, 2.0 * a))
    s, h = ((z0 + b / 2) / w) ** 2, (b / w) ** 2
    return [b * b / (v**4 * w**4) * sum(
        Fraction(q, denominator) * v ** (-2 * k) * s**i * h ** (j - i)
        for k, row in enumerate(rows) for i, q in enumerate(row))
        for j, (denominator, rows) in enumerate(_TAIL_ORDERS)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(1e-3, 1e3), uz=st.floats(1e-4, 0.999), ub=st.floats(1e-4, 0.999),
       log_v=st.floats(-6.0, math.log10(0.99)))
def test_tail_coefficients_evaluate_the_table(a, uz, ub, log_v):
    # every term is positive, so nothing cancels: the float coefficients stay
    # within 64 ulps of the exact ones (23 at worst over 20,000 random inputs
    # on these ranges)
    z0 = uz * a
    seg = PathSegment(z0=z0, b=ub * (a - z0), v=10.0**log_v)
    for got, exact in zip(_tail_coefficients(seg, a),
                          _exact_coefficients(seg.z0, seg.b, seg.v, a), strict=True):
        assert got > 0.0
        assert abs(Fraction(got) - exact) <= 64 * 2.0**-53 * exact


def _natural_index(z0, b, a, v, least=1):
    """The first n >= least with U = v (2an - 2(z0+b)) / b >= 2."""
    n = least
    while v * (2.0 * a * n - 2.0 * (z0 + b)) / b < 2.0:
        n += 1
    return n


def _reference_index(z0, b, a, v):
    """The first n >= 16 with U >= 2."""
    return _natural_index(z0, b, a, v, least=16)


# indices past n_ref at which the remainder is checked: every one of the
# first eight, then spread out to about 3 n_ref
_STEPS = (0, 1, 2, 3, 4, 5, 6, 7, 11, 17, 26, 40)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.02, 0.9), ub=st.floats(0.01, 0.9),
       log_v=st.floats(-3.5, math.log10(0.5)))
def test_scaled_remainder_is_nonnegative_and_nonincreasing(a, uz, ub, log_v):
    # the certificate: past the light cone every 1/n^2 coefficient of the
    # pair term is nonnegative, so r(n) = pair(n) - sum_j C_j n^-(4+2j) >= 0
    # and n^16 r(n) does not increase from n_U on, the first n >= 1 with
    # U >= 2, and so from n_ref = max(16, n_U) on; a sum whose n_ref is
    # raised to 16 ends its pair block from n_U on that premise. Against
    # 60-digit pair terms and the exact coefficients
    z0 = uz * a
    b, v = ub * (a - z0), 10.0**log_v
    n_u, n_ref = _natural_index(z0, b, a, v), _reference_index(z0, b, a, v)
    coefficients = _exact_coefficients(z0, b, v, a)
    ns = sorted({start + step for start in (n_u, n_ref) for step in _STEPS}
                | {n_ref + n_ref * k // 2 for k in (1, 2, 3, 4)})
    with mpmath.workdps(mp.DPS):
        expansion = [mpmath.mpf(c.numerator) / c.denominator for c in coefficients]
        scaled = []
        for n in ns:
            remainder = mp.pair(z0, b, v, a, n) - sum(
                c / mpmath.mpf(n) ** (4 + 2 * j) for j, c in enumerate(expansion))
            scaled.append(mpmath.mpf(n) ** 16 * remainder)
    assert scaled[-1] > 0
    for earlier, later in zip(scaled, scaled[1:]):
        assert later <= earlier
