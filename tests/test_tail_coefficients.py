"""The expansion the two-plate sum subtracts: C_0, ..., C_5 of
pair_term(n) = sum_j C_j n^-(4+2j) + O(n^-16), and the certificate on what
is left."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casvolt import PathSegment
from casvolt.images import _tail_coefficients
from casvolt.variance import _REFERENCE_FLOOR

mpmath = pytest.importorskip("mpmath")
import mp_squares as mp  # noqa: E402

# The pair term's expansion in 1/n past the light cone, through n^-14:
#   pair_term(n) = sum_{j=0..5} C_j n^-(4+2j) + O(n^-16),
#   C_j = b^2 / (v^4 (2a)^4) sum_{k,i} q_jki g^k s^i h^(j-i),
# with g = 1/v^2, s = (zc/2a)^2, h = (b/2a)^2 and zc = z0 + b/2. Entry j is
# (denominator, rows): rows[k][i] is the numerator of q_jki. Every q_jki is
# positive. _tail_coefficients writes each q_jki as this numerator over this
# denominator; _derived_orders derives the table again and compares exactly.
_TAIL_ORDERS = (
    (1, ((4,),)),
    (3, ((20, 240), (4,))),
    (15, ((140, 4200, 16800), (98, 840), (12,))),
    (35, ((420, 23520, 235200, 376320), (672, 4704, 47040), (288, 2016), (20,))),
    (315, ((4620, 415800, 7761600, 31046400, 26611200), (13398, 83160, 1552320, 6209280),
           (14058, 35640, 665280), (3190, 19800), (140,))),
    (3465, ((60060, 7927920, 237837600, 1775854080, 3805401600, 2029547520),
            (276276, 1585584, 47567520, 355170816, 761080320),
            (543114, 679536, 20386080, 152216064), (301730, 377520, 11325600),
            (41860, 240240), (1260,))),
)


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
# the speed edges, b up to 0.999 (a - z0): at v = 1.000001e-6, g = 1/v^2 is
# about 1e12 and the g^5 h^5 term holds C_5; at 0.98 the s^i terms weigh in
@example(a=1e-3, uz=1e-4, ub=0.999, log_v=math.log10(1.000001e-6))
@example(a=1.0, uz=0.5, ub=0.999, log_v=math.log10(1.000001e-6))
@example(a=1e3, uz=0.999, ub=0.999, log_v=math.log10(1.000001e-6))
@example(a=1e-3, uz=0.5, ub=0.999, log_v=math.log10(0.98))
@example(a=1e3, uz=1e-4, ub=0.999, log_v=math.log10(0.98))
def test_tail_coefficients_evaluate_the_table(a, uz, ub, log_v):
    # every term is positive, so nothing cancels: the float coefficients stay
    # within 64 ulps of the exact ones (24 at worst over 20,000 random inputs
    # on these ranges, 13 at these speed edges)
    z0 = uz * a
    seg = PathSegment(z0=z0, b=ub * (a - z0), v=10.0**log_v)
    for got, exact in zip(_tail_coefficients(seg, a),
                          _exact_coefficients(seg.z0, seg.b, seg.v, a), strict=True):
        assert got > 0.0
        assert abs(Fraction(got) - exact) <= 64 * 2.0**-53 * exact


def _walk_coefficients(seg, a):
    """C_0, ..., C_5 by the Horner walk of _TAIL_ORDERS that _tail_coefficients
    writes out: for each order j, P_ji = sum_k q_jki g^k by Horner's rule in
    g, q = numerator / denominator rounded once, then the order by Horner's
    rule in s, from i = j down, total = P_ji h^(j-i) + s total, h^(j-i) from
    the powers [1.0, h, h * h, h**3, h**4, h**5]."""
    v, b, w = seg.v, seg.b, 2.0 * a
    g, s, h = 1.0 / (v * v), ((seg.z0 + 0.5 * b) / w) ** 2, (b / w) ** 2
    h_powers = [1.0, h, h * h, h**3, h**4, h**5]
    scale = (b / (v * v * w * w)) ** 2
    coefficients = []
    for j, (denominator, rows) in enumerate(_TAIL_ORDERS):
        total = 0.0
        for i in range(j, -1, -1):
            poly = rows[j - i][i] / denominator
            for k in range(j - i - 1, -1, -1):
                poly = rows[k][i] / denominator + g * poly
            total = poly * h_powers[j - i] + s * total
        coefficients.append(scale * total)
    return coefficients


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(a=st.floats(1e-3, 1e3), uz=st.floats(1e-4, 0.999), ub=st.floats(1e-4, 0.999),
       log_v=st.floats(-6.0, math.log10(0.99), exclude_max=True))
def test_tail_coefficients_are_the_walk_of_the_table(a, uz, ub, log_v):
    # the function forms every product and every sum of the walk in the
    # walk's order, and the compiler folds each numerator / denominator to
    # the walk's q, so each C_j is the same float
    z0 = uz * a
    seg = PathSegment(z0=z0, b=ub * (a - z0), v=10.0**log_v)
    got = _tail_coefficients(seg, a)
    assert [c.hex() for c in got] == [c.hex() for c in _walk_coefficients(seg, a)]


def _natural_index(z0, b, a, v, least=1):
    """The first n >= least with U = v (2an - 2(z0+b)) / b >= 2."""
    n = least
    while v * (2.0 * a * n - 2.0 * (z0 + b)) / b < 2.0:
        n += 1
    return n


def _reference_index(z0, b, a, v):
    """n_ref: the first n >= _REFERENCE_FLOOR with U >= 2."""
    return _natural_index(z0, b, a, v, least=_REFERENCE_FLOOR)


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
    # U >= 2, and so from n_ref = max(9, n_U) on; a sum whose n_ref is
    # raised to 9 ends its pair block from n_U on that premise. Against
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
