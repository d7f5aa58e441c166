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
    ConvergenceError,
    DomainError,
    LogScale,
    Particle,
    PathSegment,
    SingularityError,
    SpacetimePair,
    SummationControl,
    correlator_dual_plate,
    one_plate_integral,
    reflected_image_integral,
    reflection_antiderivative,
    translated_image_integral,
    translation_antiderivative,
    variance_two_plate_exact,
)
import casvolt.variance
from casvolt.closed_forms import (
    _DIAGONAL_EPS,
    _KERNEL_BLOCK,
    _LOG1P_MAX,
    _image_pair_term,
    image_pair_terms,
)
from casvolt.correlators import _dual_pair_term
from casvolt.variance import _first_certified, _two_plate_sum

pytest.importorskip("mpmath")
import mp_squares as mp  # noqa: E402


def _scalar_pair(seg, a, n, scale=DEFAULT_SCALE):
    total = 0.0
    for s in (n, -n):
        total += reflected_image_integral(seg, a, s, scale)
        total += translated_image_integral(seg, a, s, scale)
    return total


def _corner_magnitude(seg, a, n, scale=DEFAULT_SCALE):
    """Sum of |antiderivative| over the sixteen corners of the +n/-n images:
    the scale of the rounding error of their corner difference."""
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
    # block and scalar pair terms against the 60-digit corner difference,
    # within the rounding scale of that difference in floats: 1e-12 of the
    # summed corner magnitudes (tests/test_square_accuracy.py holds the
    # tighter map over the physical ranges)
    seg = PathSegment(z0=z0, b=b, v=v)
    scale = LogScale(ell=ell)
    block = np.array(ns, dtype=float)
    try:
        scalar = [_image_pair_term(seg, a, n, scale) for n in ns]
    except (DomainError, SingularityError) as exc:
        # a corner on the light cone, or an image plane through a corner
        with pytest.raises(type(exc)) as excinfo:
            image_pair_terms(seg, a, block, scale)
        assert str(excinfo.value) == str(exc)
        return
    got = image_pair_terms(seg, a, block, scale)
    for n, value, scalar_value in zip(ns, got, scalar):
        reference = float(mp.pair(z0, b, v, a, n))
        bound = 1e-12 * _corner_magnitude(seg, a, n, scale)
        assert abs(value - reference) <= bound
        assert abs(scalar_value - reference) <= bound


def _reference_sum(pair_term, tail_bound, control, base):
    """The per-index stop rule: (compensated value, terms used), or the
    ConvergenceError message when no index up to control.n_max certifies.
    tail_bound gives (bound, subtracted tail) for each index."""
    parts = [base]
    running = base
    for n in range(1, control.n_max + 1):
        term = pair_term(n)
        parts.append(term)
        running += term
        bound, subtracted = tail_bound(n)
        if bound <= control.tol * abs(running + subtracted):
            return math.fsum([*parts, subtracted]), n
    return (f"two-plate variance: image sum not certified below relative tolerance "
            f"{control.tol:g} within n_max={control.n_max} terms (last tail bound {bound:.3e})")


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
    term minus C n^-4 and D n^-6, and the pair term's allowance 1e-12 of
    itself; before n_ref, T = 0 under the plain bound. Returns the rule and
    n_ref.
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
    pair = _image_pair_term(seg, a, n_ref, DEFAULT_SCALE)
    remainder = pair - c4 / n_ref**4 - c6 / n_ref**6
    envelope = n_ref**8 * (abs(remainder) + 1e-12 * pair)

    def rule(n):
        if n < n_ref:
            return _two_plate_bound(n, seg, a), 0.0
        x = n + 1.0
        tail = c4 * float(mpmath.zeta(4, x)) + c6 * float(mpmath.zeta(6, x))
        zeta8 = (1.0 / 7.0 + (0.5 + 2.0 / (3.0 * x)) / x) / x**7
        return envelope * zeta8 + max(1e-12, n * 2.0**-53) * tail, tail

    return rule, n_ref


def _case(z0, b, a, v, tol=1e-10):
    name = "-".join(map(str, (z0, b, a, v))) + ("" if tol == 1e-10 else f"-tol{tol:g}")
    return pytest.param(z0, b, a, v, tol, id=name)


def _assert_matches_per_index_reference(z0, b, a, v, control, shift=0.0):
    """variance_two_plate_exact against the per-index loop, with shift
    subtracted from the first pair term on both sides."""
    particle = Particle.electron(speed=v)
    seg = PathSegment(z0=z0, b=b, v=v)
    rule, n_ref = _two_plate_tail(seg, a)
    expected = _reference_sum(
        lambda n: _scalar_pair(seg, a, n) - (shift if n == 1 else 0.0),
        rule,
        control,
        one_plate_integral(seg),
    )
    if isinstance(expected, str):
        with pytest.raises(ConvergenceError) as excinfo:
            variance_two_plate_exact(particle, seg, a, control)
        assert str(excinfo.value) == expected
        return None, n_ref
    result = variance_two_plate_exact(particle, seg, a, control)
    value, terms = expected
    q = particle.charge_natural
    assert result.terms_used == terms
    expected = q * q * v**4 / math.pi**2 * value
    assert result.variance_eV2 == pytest.approx(expected, rel=1e-14, abs=0.0)
    return result, n_ref


@pytest.mark.parametrize("z0, b, a, v, tol", [
    _case(0.3, 0.1, 1.0, 0.1),
    _case(0.3, 0.1, 1.0, 0.02),
    _case(0.3, 0.1, 1.0, 1e-3),  # reference index 101, stop at 388
    _case(0.05, 0.4, 0.5, 0.05),
    _case(1.2, 0.3, 1.6, 0.01),
    _case(0.3, 0.1, 1.0, 0.1, tol=1e-4),  # the plain bound stops at 7, before n_ref = 16
    _case(0.3, 0.1, 1.0, 1e-3, tol=1e-13),
])
def test_two_plate_exact_matches_per_index_reference(z0, b, a, v, tol):
    result, n_ref = _assert_matches_per_index_reference(z0, b, a, v, SummationControl(tol=tol))
    if tol == 1e-4:
        assert (result.terms_used, n_ref) == (7, 16)


# (0.3, 0.1, 1.0, 1e-3) has n_ref = 101 and stops at 388: n_max 8 and 50 end
# under the plain bound (infinite at 50, inside the light cone), 200 under
# the envelope
@pytest.mark.parametrize("n_max", [8, 50, 200])
def test_two_plate_exact_n_max_refusal_matches_per_index_reference(n_max):
    result, _ = _assert_matches_per_index_reference(0.3, 0.1, 1.0, 1e-3,
                                                    SummationControl(n_max=n_max))
    assert result is None


def test_two_plate_sum_continues_past_a_short_prediction(monkeypatch):
    # pair terms are nonnegative on every geometry tried, so the continuation
    # is forced: taking 0.9 of the whole sum off the first pair leaves a
    # total about a fifth of the one-plate term, so the stop predicted from
    # that term (33) falls short of the true one
    seg = PathSegment(z0=0.3, b=0.1, v=0.02)
    shift = 0.9 * _two_plate_sum(seg, 1.0, DEFAULT_SCALE, SummationControl()).value
    sizes = []

    def shifted(seg, a, ns, scale):
        sizes.append(ns.size)
        return image_pair_terms(seg, a, ns, scale) - np.where(ns == 1.0, shift, 0.0)

    monkeypatch.setattr(casvolt.variance, "image_pair_terms", shifted)
    result, _ = _assert_matches_per_index_reference(0.3, 0.1, 1.0, 0.02, SummationControl(),
                                                    shift=shift)
    assert len(sizes) > 1
    assert sum(sizes) >= result.terms_used


def test_long_block_is_taken_in_pieces_with_the_same_terms():
    seg = PathSegment(z0=0.3, b=0.5, v=1e-4)
    ns = np.arange(1.0, 2.5 * _KERNEL_BLOCK)
    pieces = [image_pair_terms(seg, 1.0, ns[i:i + 100]) for i in range(0, ns.size, 100)]
    assert image_pair_terms(seg, 1.0, ns).tolist() == np.concatenate(pieces).tolist()


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


@pytest.mark.parametrize("a", [0.25, 0.5], ids=["base", "top"])
def test_image_plane_through_a_corner_raises_as_scalar_path(a):
    # the n = 1 reflected square starts (a = z0) or ends (a = z0 + b) at z = 0
    seg = PathSegment(z0=0.25, b=0.25, v=0.1)
    with pytest.raises(DomainError) as scalar:
        reflected_image_integral(seg, a, 1)
    with pytest.raises(DomainError) as block:
        image_pair_terms(seg, a, np.arange(1.0, 4.0))
    assert str(block.value) == str(scalar.value) == "antiderivative undefined at z = 0 or z' = 0"


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


def test_two_plate_sum_adds_the_running_total_left_to_right(monkeypatch):
    # below n_ref = 16 only the plain bound applies. Each pair term is below
    # half an ulp of the one-plate term, so a left-to-right running total
    # stays exactly 1.0 and never meets the bound, while adding the terms up
    # first would reach 1 + 2**-52 and stop
    control = SummationControl(tol=0.5, n_max=10)
    bound = control.tol * (1.0 + 2.0**-52)
    monkeypatch.setattr(casvolt.variance, "one_plate_integral", lambda seg, scale: 1.0)
    monkeypatch.setattr(casvolt.variance, "image_pair_terms",
                        lambda seg, a, ns, scale: np.full_like(ns, 6e-17))
    monkeypatch.setattr(casvolt.variance, "_two_plate_tail_bound",
                        lambda ns, seg, a: np.full_like(ns, bound))
    expected = _reference_sum(lambda n: 6e-17, lambda n: (bound, 0.0), control, 1.0)
    with pytest.raises(ConvergenceError) as excinfo:
        variance_two_plate_exact(Particle.electron(speed=0.1), PathSegment(z0=0.3, b=0.1, v=0.1),
                                 1.0, control)
    assert str(excinfo.value) == expected


# stop 1001 lies past hi = 1000: nothing certifies and hi comes back
@pytest.mark.parametrize("stop", [16, 40, 1000, 1001])
@pytest.mark.parametrize("guess", [3.0, 39.0, 40.0, 41.7, 5000.0, math.nan])
def test_first_certified_finds_the_least_certified_index(stop, guess):
    seen = []

    def certifies(n):
        assert 16 <= n <= 1000
        seen.append(n)
        return n >= stop

    assert _first_certified(certifies, 16, 1000, guess) == min(stop, 1000)
    # steps from the guess and bisection: logarithmic in the distance; a nan
    # guess starts at hi
    start = max(16, math.floor(guess)) if guess < 1000 else 1000
    assert len(seen) <= 2 * math.log2(abs(stop - start) + 2) + 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_plate_sum_takes_one_pair_block(seed, monkeypatch):
    # the stop is predicted against the one-plate term plus the subtracted
    # tail, so the pair terms are evaluated once, on at most twice the
    # indices the sum keeps (1.94x at worst over the whole ranges, for
    # z0/a = 0.8 at v = 0.1)
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
        assert len(sizes) == 1
        assert sizes[0] <= 2 * result.terms_used


def _assert_block_matches_scalar(seg, a, ns):
    """Block and scalar pair terms both within 1e-12 of the corner
    magnitudes of the 60-digit pair term."""
    block = image_pair_terms(seg, a, np.array(ns, dtype=float))
    for n, value in zip(ns, block):
        reference = float(mp.pair(seg.z0, seg.b, seg.v, a, n))
        bound = 1e-12 * _corner_magnitude(seg, a, n)
        assert abs(value - reference) <= bound
        assert abs(_image_pair_term(seg, a, n, DEFAULT_SCALE) - reference) <= bound


def _near_edge(edge, measure, above, step=1e-9):
    """Of edge * (1 -+ step), the value at which measure lies above (or at
    and below) its branch edge."""
    return next(x for x in (edge * (1.0 - step), edge * (1.0 + step)) if measure(x) == above)


# The branch edges of the former 16-corner kernel, pinned against the
# 60-digit pair term: the collapsed squares have no branch there, and these
# geometries keep checking that. One off-diagonal corner per family whose
# |2 delta / second|, that kernel's log1p test, crosses _LOG1P_MAX = 1/2 at
# a solvable separation a, for z0 = 0.3, b = 0.1, v = 0.1 and image index n.
# Each entry holds n, that a, delta and second(a), the last two formed as
# that kernel formed them:
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
    # the former kernel switched the off-diagonal reflected corners of s = +1
    # to the diagonal limit where b < _DIAGONAL_EPS (|top| + |base|)
    # = _DIAGONAL_EPS (2(a - z0) - b)
    z0, b, v = 0.3, 1e-6, 0.1

    def diagonal(a):
        base = z0 - a
        return b < _DIAGONAL_EPS * (abs(base + b) + abs(base))

    a = _near_edge(z0 + 0.5 * (b / _DIAGONAL_EPS + b), diagonal, above)
    _assert_block_matches_scalar(PathSegment(z0=z0, b=b, v=v), a, [1, 2])


@pytest.mark.parametrize("above", [False, True])
def test_fused_kernel_translated_diagonal_edge_matches_scalar(above):
    # the former kernel switched the off-diagonal translated corners to the
    # diagonal limit where z1 - z0 < _DIAGONAL_EPS (z0 + z1); z1 - z0 is
    # rounded to 1.1e-8 of b, so b steps by 1e-7 across the edge
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
