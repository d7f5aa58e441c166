"""Block-evaluated image sums against the scalar image integrals they replace."""
import math

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
    correlator_single_plate,
    one_plate_integral,
    reflected_image_integral,
    reflection_antiderivative,
    translated_image_integral,
    translation_antiderivative,
    variance_two_plate_exact,
)
from casvolt.closed_forms import image_pair_terms
from casvolt.correlators import _dual_pair_term


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
    (0.3, 0.1, 1.0, 1e-3),  # reference index 101: the tail is subtracted in a later block
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


def _dual_bound(n, a, dt, dz, sz):
    big = max(sz, abs(dz))
    m_next = 2.0 * a * (n + 1) - big
    edge = 2.0 * a * n - big
    if m_next <= abs(dt) or edge <= 0.0:
        return math.inf
    gamma = 1.0 - (dt * dt) / (m_next * m_next)
    return 4.0 / (math.pi**2 * gamma * gamma) / (6.0 * a * edge**3)


@pytest.mark.parametrize("t, z, z_prime, a", [
    (0.0, 0.3, 0.4, 1.0),
    (0.25, 0.1, 0.9, 1.0),
    (0.9, 0.5, 0.5, 1.0),
    (0.02, 0.01, 0.03, 0.05),
])
def test_dual_plate_matches_per_index_reference(t, z, z_prime, a):
    pair = SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime)
    result = correlator_dual_plate(pair, a)
    dz, sz = z - z_prime, z + z_prime
    value, terms = _reference_sum(
        lambda n: _dual_pair_term(n, a, t, dz, sz),
        lambda n: (_dual_bound(n, a, t, dz, sz), 0.0),
        1e-10,
        correlator_single_plate(pair),
    )
    assert result.terms_used == terms
    assert result.value == pytest.approx(value, rel=1e-14, abs=0.0)


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
