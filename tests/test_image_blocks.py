"""Block-evaluated image sums against the scalar image integrals they replace."""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casvolt import (
    DEFAULT_SCALE,
    DomainError,
    LogScale,
    Particle,
    PathSegment,
    SingularityError,
    SpacetimePair,
    correlator_dual_plate,
    one_plate_integral,
    reflected_image_integral,
    reflection_antiderivative,
    translated_image_integral,
    translation_antiderivative,
    variance_two_plate_exact,
)
import casvolt.variance
from casvolt.closed_forms import _DIAGONAL_EPS, _LOG1P_MAX, _image_pair_term, image_pair_terms
from casvolt.correlators import _dual_pair_term
from casvolt.summation import _BLOCK_CAP


def _scalar_pair(seg, a, n, scale=DEFAULT_SCALE):
    total = 0.0
    for s in (n, -n):
        total += reflected_image_integral(seg, a, s, scale)
        total += translated_image_integral(seg, a, s, scale)
    return total


def _corner_magnitude(seg, a, n, scale):
    """Sum of |antiderivative| over the sixteen corners of the +n/-n images."""
    corners = (seg.z0, seg.z0 + seg.b)
    total = 0.0
    for s in (n, -n):
        for x in corners:
            for y in corners:
                total += abs(reflection_antiderivative(x - a * s, y - a * s, seg.v, scale))
                total += abs(translation_antiderivative(x, y, seg.v, a, s, scale))
    return total


lengths = st.floats(1e-5, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=lengths, b=lengths, a=lengths, v=lengths,
       ns=st.lists(st.integers(1, 20000), min_size=1, max_size=6),
       ell=st.sampled_from([1.0, 7.3, 1e-3]))
def test_block_pair_terms_match_scalar_images(z0, b, a, v, ns, ell):
    # no per-term relative tolerance: at large n and v both paths are
    # dominated by the cancellation between corners, so the error scale is
    # the corner magnitudes themselves
    seg = PathSegment(z0=z0, b=b, v=v)
    scale = LogScale(ell=ell)
    block = np.array(ns, dtype=float)
    try:
        expected = [_scalar_pair(seg, a, n, scale) for n in ns]
    except (DomainError, SingularityError) as exc:
        # a corner on the light cone, or an image plane through a corner
        with pytest.raises(type(exc)) as excinfo:
            image_pair_terms(seg, a, block, scale)
        assert str(excinfo.value) == str(exc)
        return
    got = image_pair_terms(seg, a, block, scale)
    for n, value, reference in zip(ns, got, expected):
        assert abs(value - reference) <= 1e-12 * _corner_magnitude(seg, a, n, scale)


def _reference_sum(pair_term, tail_bound, tol, base):
    """The per-index stop rule: (compensated value, terms used). tail_bound
    gives (bound, subtracted tail) for each index."""
    parts = [base]
    running = base
    n = 0
    while True:
        n += 1
        term = pair_term(n)
        parts.append(term)
        running += term
        bound, subtracted = tail_bound(n)
        if bound <= tol * abs(running + subtracted):
            return math.fsum([*parts, subtracted]), n


def _two_plate_bound(n, seg, a):
    u = seg.v * (2.0 * a * n - 2.0 * (seg.z0 + seg.b)) / seg.b
    if u <= 1.0:
        return math.inf
    q_u = 0.25 * (1.0 / (u - 1.0) + 1.0 / (u + 1.0) - math.log((u + 1.0) / (u - 1.0)))
    return 4.0 * q_u / (2.0 * a * seg.v * seg.b)


def _two_plate_tail(seg, a):
    """variance_two_plate_exact's tail rule for one index N: (bound, T).

    From the first N >= 16 with U = v (2aN - 2(z0+b)) / b >= 2 on, the sum
    adds T(N) = C zeta(4, N+1) + D zeta(6, N+1) and bounds the remainder by
    n_ref^8 r(n_ref) zeta(8, N+1) plus rounding allowances, r being the pair
    term minus C n^-4 and D n^-6; before n_ref, T = 0 under the plain bound.
    """
    mpmath = pytest.importorskip("mpmath")
    z0, b, v = seg.z0, seg.b, seg.v
    c4 = b * b / (4.0 * a**4 * v**4)
    zc = z0 + b / 2.0
    c6 = (20.0 * b * b * (4.0 * zc * zc + b * b / 6.0)
          + (20.0 + 8.0 / v**2) * b**4 / 6.0) / (v**4 * (2.0 * a) ** 6)
    n_ref = 16
    while v * (2.0 * a * n_ref - 2.0 * (z0 + b)) / b < 2.0:
        n_ref += 1
    remainder = _scalar_pair(seg, a, n_ref) - c4 / n_ref**4 - c6 / n_ref**6
    magnitude = _corner_magnitude(seg, a, n_ref, DEFAULT_SCALE)
    envelope = n_ref**8 * (abs(remainder) + 1e-12 * magnitude)

    def rule(n):
        if n < n_ref:
            return _two_plate_bound(n, seg, a), 0.0
        x = n + 1.0
        tail = c4 * float(mpmath.zeta(4, x)) + c6 * float(mpmath.zeta(6, x))
        zeta8 = (1.0 / 7.0 + (0.5 + 2.0 / (3.0 * x)) / x) / x**7
        return envelope * zeta8 + 1e-12 * tail, tail

    return rule


@pytest.mark.parametrize("z0, b, a, v", [
    (0.3, 0.1, 1.0, 0.1),
    (0.3, 0.1, 1.0, 0.02),
    (0.3, 0.1, 1.0, 1e-3),  # reference index 101, stop at 388
    (0.05, 0.4, 0.5, 0.05),
    (1.2, 0.3, 1.6, 0.01),
])
def test_two_plate_exact_matches_per_index_reference(z0, b, a, v):
    particle = Particle.electron(speed=v)
    seg = PathSegment(z0=z0, b=b, v=v)
    result = variance_two_plate_exact(particle, seg, a)
    value, terms = _reference_sum(
        lambda n: _scalar_pair(seg, a, n),
        _two_plate_tail(seg, a),
        1e-10,
        one_plate_integral(seg),
    )
    q = particle.charge_natural
    assert result.terms_used == terms
    expected = q * q * v**4 / math.pi**2 * value
    assert result.variance_eV2 == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_pole_touching_image_raises_as_scalar_path():
    v, a, z0 = 0.1, 1.0, 0.3
    # the n = 1 reflected image puts a corner on the light cone
    seg = PathSegment(z0=z0, b=2.0 * v * (a - z0) / (1.0 + v), v=v)
    with pytest.raises(SingularityError) as scalar:
        reflected_image_integral(seg, a, 1)
    with pytest.raises(SingularityError) as block:
        image_pair_terms(seg, a, np.arange(1.0, 9.0))
    with pytest.raises(SingularityError) as summed:
        variance_two_plate_exact(Particle.electron(speed=v), seg, a)
    for raised in (block.value, summed.value):
        assert type(raised) is type(scalar.value)
        assert str(raised) == str(scalar.value)
        assert (raised.factor, raised.threshold) == (scalar.value.factor, scalar.value.threshold)


def test_light_like_dual_image_raises_as_scalar_path():
    a, z, z_prime = 1.0, 0.3, 0.4
    dt = 2.0 * a - (z - z_prime)  # the n = 1 image of z - z' sits on the light cone
    with pytest.raises(SingularityError) as scalar:
        _dual_pair_term(1, a, dt, z - z_prime, z + z_prime)
    with pytest.raises(SingularityError) as block:
        correlator_dual_plate(SpacetimePair(t=dt, z=z, t_prime=0.0, z_prime=z_prime), a)
    assert type(block.value) is type(scalar.value)
    assert str(block.value) == str(scalar.value)
    assert block.value.factor == scalar.value.factor


def _image_sums_grid(seed):
    """(a, z0, b, v) on a 5 x 4 x 3 grid over log10 v in [-3, -1], z0/a in
    [0.05, 0.8] and b/(a - z0) in [0.02, 0.5], each point jittered by up to
    a tenth of its cell, with a in [0.5, 2]."""
    rng = random.Random(seed)
    for cell in itertools.product(range(5), range(4), range(3)):
        uv, uz, ub = ((i + 0.5 + 0.1 * (rng.random() - 0.5)) / n
                      for i, n in zip(cell, (5, 4, 3)))
        a = rng.uniform(0.5, 2.0)
        z0 = a * (0.05 + 0.75 * uz)
        yield a, z0, (0.02 + 0.48 * ub) * (a - z0), 10.0 ** (-3.0 + 2.0 * uv)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_plate_sum_takes_one_pair_block(seed, monkeypatch):
    # the first window of tail bounds predicts the stop against the one-plate
    # term plus the subtracted tail, so the pair terms are evaluated once, on
    # at most twice the indices the sum keeps (1.94x at worst over the whole
    # ranges, for z0/a = 0.8 at v = 0.1). Only a sum keeping more than
    # _BLOCK_CAP pairs takes a second block: near v = 1e-3 with b/(a - z0)
    # = 0.5, which this grid's cells do not reach.
    sizes = []

    def counted(seg, a, ns, scale):
        sizes.append(ns.size)
        return image_pair_terms(seg, a, ns, scale)

    monkeypatch.setattr(casvolt.variance, "image_pair_terms", counted)
    for a, z0, b, v in _image_sums_grid(seed):
        sizes.clear()
        try:
            result = variance_two_plate_exact(Particle.electron(speed=v),
                                              PathSegment(z0=z0, b=b, v=v), a)
        except SingularityError:
            continue
        assert result.terms_used <= _BLOCK_CAP
        assert len(sizes) == 1
        assert sizes[0] <= 2 * result.terms_used


def _assert_block_matches_scalar(seg, a, ns):
    block = image_pair_terms(seg, a, np.array(ns, dtype=float))
    for n, value in zip(ns, block):
        reference = _image_pair_term(seg, a, n, DEFAULT_SCALE)
        assert abs(value - reference) <= 1e-12 * _corner_magnitude(seg, a, n, DEFAULT_SCALE)


def _near_edge(edge, measure, above, step=1e-9):
    """Of edge * (1 -+ step), the value at which measure lies above (or at
    and below) its branch edge."""
    return next(x for x in (edge * (1.0 - step), edge * (1.0 + step)) if measure(x) == above)


# One off-diagonal corner per family whose |2 delta / second|, the fused
# kernel's log1p test, crosses _LOG1P_MAX = 1/2 at a solvable separation a,
# for z0 = 0.3, b = 0.1, v = 0.1 and image index n. Each entry holds n, that
# a, delta and second(a), the last two formed as the kernel forms them:
#   reflected (top, base) of s = +1: second = 2 v top + (1-v) b = -4 b,
#   reflected (top, base) of s = -1: second = +4 b,
#   translated (z1, z0) of s = +2:   second = 2 (2a) v + (1-v) b = +4 b.
_Z0, _B, _V = 0.3, 0.1, 0.1
_LOG1P_EDGES = {
    "reflected+": (1, _Z0 + _B + (5.0 - _V) * _B / (2.0 * _V), -_B,
                   lambda a: 2.0 * _V * ((_Z0 - a) + _B) + (_V - 1.0) * -_B),
    "reflected-": (1, (3.0 + _V) * _B / (2.0 * _V) - _Z0 - _B, -_B,
                   lambda a: 2.0 * _V * ((_Z0 + a) + _B) + (_V - 1.0) * -_B),
    "translated+": (2, (3.0 + _V) * _B / (4.0 * _V), _Z0 - (_Z0 + _B),
                    lambda a: 2.0 * _V * (a * 2.0) + (_V - 1.0) * (_Z0 - (_Z0 + _B))),
}


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("family", sorted(_LOG1P_EDGES))
def test_fused_kernel_log1p_edge_matches_scalar(family, above):
    n, a_edge, delta, second = _LOG1P_EDGES[family]

    def ratio(a):
        return abs(2.0 * delta / second(a))

    a = _near_edge(a_edge, lambda a: ratio(a) > _LOG1P_MAX, above)
    assert abs(ratio(a) - _LOG1P_MAX) < 1e-8
    _assert_block_matches_scalar(PathSegment(z0=_Z0, b=_B, v=_V), a, range(1, n + 3))


@pytest.mark.parametrize("above", [False, True])
def test_fused_kernel_reflected_diagonal_edge_matches_scalar(above):
    # the off-diagonal reflected corners of s = +1 switch to the diagonal
    # limit where b < _DIAGONAL_EPS (|top| + |base|) = _DIAGONAL_EPS (2(a - z0) - b)
    z0, b, v = 0.3, 1e-6, 0.1

    def diagonal(a):
        base = z0 - a
        return b < _DIAGONAL_EPS * (abs(base + b) + abs(base))

    a = _near_edge(z0 + 0.5 * (b / _DIAGONAL_EPS + b), diagonal, above)
    _assert_block_matches_scalar(PathSegment(z0=z0, b=b, v=v), a, [1, 2])


@pytest.mark.parametrize("above", [False, True])
def test_fused_kernel_translated_diagonal_edge_matches_scalar(above):
    # the off-diagonal translated corners switch to the diagonal limit where
    # z1 - z0 < _DIAGONAL_EPS (z0 + z1); z1 - z0 is rounded to 1.1e-8 of b,
    # so b steps by 1e-7 across the edge
    z0, a, v = 1.0, 3.0, 0.1

    def diagonal(b):
        return (z0 + b) - z0 < _DIAGONAL_EPS * (z0 + (z0 + b))

    b = _near_edge(2.0 * _DIAGONAL_EPS / (1.0 - _DIAGONAL_EPS), diagonal, above, step=1e-7)
    _assert_block_matches_scalar(PathSegment(z0=z0, b=b, v=v), a, [1, 2, 3])


@pytest.mark.parametrize("family, a", [
    # reflected (top, base) of s = +5: 2 v top + (1-v) b = 0
    ("reflected image n=5", (0.3 + 0.5 + 0.99 * 0.5 / 0.02) / 5.0),
    # translated (z0, z1) of s = +5: 2 (5a) v - (1-v) b = 0
    ("translated image n=5", 0.99 * 0.5 / (10.0 * 0.01)),
], ids=["reflected", "translated"])
def test_singular_corner_inside_block_raises_as_scalar_path(family, a):
    # z0 = 0.3, b = 0.5, v = 0.01: only index 5 of the block has a corner on
    # its light cone
    seg = PathSegment(z0=0.3, b=0.5, v=0.01)
    with pytest.raises(SingularityError) as scalar:
        for n in range(1, 10):
            _image_pair_term(seg, a, n, DEFAULT_SCALE)
    assert str(scalar.value).startswith(family)
    with pytest.raises(SingularityError) as block:
        image_pair_terms(seg, a, np.arange(1.0, 10.0))
    assert str(block.value) == str(scalar.value)
    assert (block.value.factor, block.value.threshold) == (scalar.value.factor,
                                                           scalar.value.threshold)
