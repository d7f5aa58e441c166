"""Block-evaluated image sums against the scalar image integrals they replace."""
import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casvolt import (
    ConvergenceError,
    DomainError,
    Particle,
    PathSegment,
    SingularityError,
    SpacetimePair,
    SummationControl,
    correlator_dual_plate,
    one_plate_integral,
    reflected_image_integral,
    translated_image_integral,
    variance_two_plate_exact,
)
import casvolt.closed_forms
import casvolt.images
from casvolt.closed_forms import _POLE_TOUCH_EPS
from casvolt.correlators import _inverse_square_factor
from casvolt.images import (
    _KERNEL_BLOCK,
    _SCALAR_BLOCK,
    _image_pair_term,
    _scalar_pair_terms,
    image_pair_terms,
)
from casvolt.variance import _REFERENCE_FLOOR

pytest.importorskip("mpmath")
import mp_squares as mp  # noqa: E402
from test_square_accuracy import BRANCHES, _assert_close, _pair_kappa, pinned_branch  # noqa: E402
from test_tail_coefficients import (  # noqa: E402
    _exact_coefficients,
    _natural_index,
    _reference_index,
)
from test_two_plate_tail import _engine_sum  # noqa: E402


def _scalar_pair(seg, a, n):
    total = 0.0
    for s in (n, -n):
        total += reflected_image_integral(seg, a, s)
        total += translated_image_integral(seg, a, s)
    return total


def _corner_magnitude(seg, a, n):
    """Sum of |antiderivative| over the sixteen corners of the +n/-n images:
    the scale of the rounding error of their corner difference."""
    corners = (seg.z0, seg.z0 + seg.b)
    total = 0.0
    for s in (n, -n):
        total += mp.corner_magnitude(mp.reflection_corner, [c - a * s for c in corners], seg.v)
        total += mp.corner_magnitude(mp.translation_corner, corners, seg.v, s * a * seg.v)
    return total


lengths = st.floats(1e-5, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=lengths, b=lengths, a=lengths, v=lengths,
       ns=st.lists(st.integers(1, 20000), min_size=1, max_size=6))
def test_block_pair_terms_match_scalar_images(z0, b, a, v, ns):
    # block and scalar pair terms of each index, as range(n, n + 1) through
    # both branches, against the 60-digit corner difference, within the
    # rounding scale of that difference in floats: 1e-12 of the summed
    # corner magnitudes (tests/test_square_accuracy.py holds the tighter map
    # over the physical ranges)
    seg = PathSegment(z0=z0, b=b, v=v)
    for n in ns:
        try:
            scalar = _image_pair_term(seg, a, n)
        except (DomainError, SingularityError) as exc:
            # a corner on the light cone, or an image plane through a corner
            for branch in BRANCHES:
                with pinned_branch(branch), pytest.raises(type(exc)) as excinfo:
                    image_pair_terms(seg, a, range(n, n + 1))
                assert str(excinfo.value) == str(exc)
            continue
        reference = float(mp.pair(z0, b, v, a, n))
        bound = 1e-12 * _corner_magnitude(seg, a, n)
        assert abs(scalar - reference) <= bound
        for branch in BRANCHES:
            with pinned_branch(branch):
                [value] = image_pair_terms(seg, a, range(n, n + 1))
            assert abs(value - reference) <= bound


def _block_ends(n_ref, n_u, n_max):
    """Where variance_two_plate_exact tries to certify: E = min(n_max,
    max(n_ref, n_u + n_u // 4 + 2)), then min(n_max, 2E), and so on up to
    n_max. n_u is the first n >= 1 with U >= 2 and n_ref = max(_REFERENCE_FLOOR,
    n_u)."""
    ends = [min(n_max, max(n_ref, n_u + n_u // 4 + 2))]
    while ends[-1] < n_max:
        ends.append(min(n_max, 2 * ends[-1]))
    return ends


def _reference_sum(pair_term, tail_bound, control, base, ends):
    """The block-end stop rule, index by index: (compensated value, end,
    bound at end, first) at the first of ends where the bound is within
    control.tol of the compensated sum of base, the pairs up to that end and
    the subtracted tail, or the ConvergenceError message when none is. first
    is the least index at which the left-to-right running total plus its
    subtracted tail certifies (the former stop rule), or None. tail_bound
    gives (bound, subtracted tail) for each index."""
    parts = [base]
    running = base
    first = None
    for n in range(1, ends[-1] + 1):
        term = pair_term(n)
        parts.append(term)
        running += term
        bound, subtracted = tail_bound(n)
        if first is None and bound <= control.tol * abs(running + subtracted):
            first = n
        if n in ends:
            value = math.fsum([*parts, subtracted])
            if bound <= control.tol * abs(value):
                return value, n, bound, first
    return (f"two-plate variance: image sum not certified below relative tolerance "
            f"{control.tol:g} within n_max={control.n_max} terms (last tail bound {bound:.3e})")


def _two_plate_tail(seg, a):
    """variance_two_plate_exact's tail rule for one index N: (bound, T).

    From the first N >= _REFERENCE_FLOOR with U = v (2aN - 2(z0+b)) / b >= 2
    on, the sum adds T(N) = sum_j C_j zeta(4+2j, N+1), j = 0..5, and bounds the
    remainder by n_ref^16 r(n_ref) zeta(16, N+1) plus rounding allowances,
    r being the pair term minus sum_j C_j n^-(4+2j), and the pair term's
    allowance 1e-12 of itself. The C_j are the exact rationals of
    _TAIL_ORDERS rounded once, and the pair term at n_ref is the block's. No
    index below n_ref certifies: there the rule gives an infinite bound.
    Returns the rule, n_ref and rounding(n): the bound at n moves by that
    when r(n_ref) moves by 8 ulps of the pair term, as it does when the C_j
    are rounded differently (by up to 3.6 ulps at the geometries tried).
    """
    mpmath = pytest.importorskip("mpmath")
    coefficients = [float(c) for c in _exact_coefficients(seg.z0, seg.b, seg.v, a)]
    n_ref = _reference_index(seg.z0, seg.b, a, seg.v)
    [pair] = image_pair_terms(seg, a, range(n_ref, n_ref + 1))
    remainder = pair - sum(c / n_ref ** (4 + 2 * j) for j, c in enumerate(coefficients))
    envelope = n_ref**16 * (abs(remainder) + 1e-12 * pair)

    def rule(n):
        if n < n_ref:
            return math.inf, 0.0
        x = n + 1.0
        tail = sum(c * float(mpmath.zeta(4 + 2 * j, x)) for j, c in enumerate(coefficients))
        return envelope * _zeta16(x) + max(1e-12, n * 2.0**-53) * tail, tail

    def rounding(n):
        return n_ref**16 * 8.0 * 2.0**-53 * pair * _zeta16(n + 1.0)

    return rule, n_ref, rounding


def _zeta16(x):
    return (1.0 / 15.0 + (0.5 + 4.0 / (3.0 * x)) / x) / x**15


def _case(z0, b, a, v, tol=1e-10):
    name = "-".join(map(str, (z0, b, a, v))) + ("" if tol == 1e-10 else f"-tol{tol:g}")
    return pytest.param(z0, b, a, v, tol, id=name)


def _assert_matches_per_index_reference(z0, b, a, v, control, shift=0.0):
    """variance_two_plate_exact against the per-index loop, with shift
    subtracted from the first pair term on both sides. Returns the result
    (None for a refusal), n_ref and the reference's (value, end, bound,
    first), or its refusal message."""
    particle = Particle.electron(speed=v)
    seg = PathSegment(z0=z0, b=b, v=v)
    rule, n_ref, rounding = _two_plate_tail(seg, a)
    expected = _reference_sum(
        lambda n: _scalar_pair(seg, a, n) - (shift if n == 1 else 0.0),
        rule,
        control,
        one_plate_integral(seg),
        _block_ends(n_ref, _natural_index(z0, b, a, v), control.n_max),
    )
    if isinstance(expected, str):
        with pytest.raises(ConvergenceError) as excinfo:
            variance_two_plate_exact(particle, seg, a, control)
        assert str(excinfo.value) == expected
        return None, n_ref, expected
    result = variance_two_plate_exact(particle, seg, a, control)
    value, end, bound, _ = expected
    q = particle.charge_natural
    prefactor = q * q * v**4 / math.pi**2
    assert result.terms_used == end
    assert result.variance_eV2 == pytest.approx(prefactor * value, rel=1e-14, abs=0.0)
    assert result.tail_estimate_eV2 == pytest.approx(prefactor * bound, rel=1e-14,
                                                     abs=prefactor * rounding(end))
    return result, n_ref, expected


@pytest.mark.parametrize("z0, b, a, v, tol", [
    _case(0.3, 0.1, 1.0, 0.1),
    _case(0.3, 0.1, 1.0, 0.02),
    _case(0.3, 0.1, 1.0, 1e-3),  # reference index 101, block end 128
    _case(0.05, 0.4, 0.5, 0.05),
    _case(1.2, 0.3, 1.6, 0.01),
    _case(0.3, 0.1, 1.0, 0.1, tol=1e-4),  # n_U = 2, n_ref = 9 certifies already
    _case(0.3, 0.1, 1.0, 1e-3, tol=1e-13),
])
def test_two_plate_exact_matches_per_index_reference(z0, b, a, v, tol):
    # the sum certifies at the first block end at or past the least index
    # the running total would certify at: the end E of its one pair block,
    # or at tol = 1e-13 the doubled end 2E = 256 (former stop 185)
    control = SummationControl(tol=tol)
    result, n_ref, (_, end, _, first) = _assert_matches_per_index_reference(z0, b, a, v, control)
    ends = _block_ends(n_ref, _natural_index(z0, b, a, v), control.n_max)
    assert result.terms_used == end == ends[0 if tol > 1e-13 else 1]
    assert n_ref <= first <= end
    assert end == min(e for e in ends if e >= first)
    if tol == 1e-4:
        # no index below n_ref certifies, and the block ends at n_ref
        assert first == n_ref == _REFERENCE_FLOOR and end == _REFERENCE_FLOOR


# (0.3, 0.1, 1.0, 5.5e-4) has n_ref = 183 and certifies at E = 230: n_max 8
# and 50 lie below n_ref and refuse with an infinite bound, 200 ends under
# the envelope
@pytest.mark.parametrize("n_max", [8, 50, 200])
def test_two_plate_exact_n_max_refusal_matches_per_index_reference(n_max):
    result, _, _ = _assert_matches_per_index_reference(0.3, 0.1, 1.0, 5.5e-4,
                                                       SummationControl(n_max=n_max))
    assert result is None


def test_two_plate_sum_continues_past_a_short_prediction(monkeypatch):
    # pair terms are nonnegative on every geometry tried, so the continuation
    # is forced: n_ref = 183 and the sum certifies at the end E = 230 of its
    # first block; taking 0.99 of the whole sum off the first pair leaves a
    # hundredth of it, E no longer certifies, and the next block 231..460
    # ends at 2E, which does
    seg = PathSegment(z0=0.3, b=0.1, v=5.5e-4)
    shift = 0.99 * _engine_sum(seg, 1.0).value
    blocks = []

    def shifted(seg, a, ns):
        blocks.append((ns[0], ns[-1]))
        return [term - (shift if n == 1 else 0.0)
                for n, term in zip(ns, image_pair_terms(seg, a, ns))]

    monkeypatch.setattr(casvolt.images, "image_pair_terms", shifted)
    result, _, _ = _assert_matches_per_index_reference(0.3, 0.1, 1.0, 5.5e-4, SummationControl(),
                                                       shift=shift)
    assert blocks == [(1, 230), (231, 460)]
    assert result.terms_used == 460


def test_long_block_is_taken_in_pieces_with_the_same_terms():
    seg = PathSegment(z0=0.3, b=0.5, v=1e-4)
    ns = range(1, 5 * _KERNEL_BLOCK // 2)
    pieces = [image_pair_terms(seg, 1.0, ns[i:i + 100]) for i in range(0, len(ns), 100)]
    assert image_pair_terms(seg, 1.0, ns) == [term for piece in pieces for term in piece]


def test_blocks_up_to_the_scalar_length_take_the_pure_python_pass(monkeypatch):
    # the least block a sum forms, 22 indices, and every block up to
    # _SCALAR_BLOCK go through the pass; a longer one through the kernel,
    # whose fallback is the pass only for a refusable block
    calls = []

    def counted(seg, a, ns):
        calls.append(len(ns))
        return _scalar_pair_terms(seg, a, ns)

    monkeypatch.setattr(casvolt.images, "_scalar_pair_terms", counted)
    seg = PathSegment(z0=0.3, b=0.1, v=1e-3)
    assert _SCALAR_BLOCK >= 22
    for length in (22, _SCALAR_BLOCK, _SCALAR_BLOCK + 1, 128):
        calls.clear()
        assert len(image_pair_terms(seg, 1.0, range(1, length + 1))) == length
        assert calls == ([length] if length <= _SCALAR_BLOCK else [])


def test_pole_touching_image_raises_as_scalar_path():
    v, a, z0 = 0.1, 1.0, 0.3
    # the n = 1 reflected image puts a corner on the light cone
    seg = PathSegment(z0=z0, b=2.0 * v * (a - z0) / (1.0 + v), v=v)
    with pytest.raises(SingularityError) as scalar:
        reflected_image_integral(seg, a, 1)
    raised = []
    for branch in BRANCHES:
        with pinned_branch(branch):
            with pytest.raises(SingularityError) as block:
                image_pair_terms(seg, a, range(1, 9))
            with pytest.raises(SingularityError) as summed:
                variance_two_plate_exact(Particle.electron(speed=v), seg, a)
        raised += [block.value, summed.value]
    for error in [scalar.value, *raised]:
        assert type(error) is type(scalar.value)
        assert str(error) == str(scalar.value)
        assert (error.factor, error.threshold) == (scalar.value.factor, scalar.value.threshold)
        assert error.__cause__ is None


@pytest.mark.parametrize("a", [0.25, 0.5], ids=["base", "top"])
def test_image_plane_through_a_corner_raises_as_scalar_path(a):
    # the n = 1 reflected square starts (a = z0) or ends (a = z0 + b) at z = 0
    seg = PathSegment(z0=0.25, b=0.25, v=0.1)
    with pytest.raises(DomainError) as scalar:
        reflected_image_integral(seg, a, 1)
    for branch in BRANCHES:
        with pinned_branch(branch), pytest.raises(DomainError) as block:
            image_pair_terms(seg, a, range(1, 4))
        assert str(block.value) == str(scalar.value) == "antiderivative undefined at z = 0 or z' = 0"


def _on_locus_separation(family, z0, b, v, n):
    """The plate separation a at which a log argument of the pair term of n
    vanishes, or an image plane passes through a corner: X or Y of the
    reflected square of +n, X of that of -n, the translated corner p1 or
    q2, or base = 0 of +n. None where no positive a does."""
    separation = {
        "X+": (z0 - (1.0 - v) * b / (2.0 * v)) / n,
        "Y+": (z0 + (1.0 + v) * b / (2.0 * v)) / n,
        "X-": ((1.0 - v) * b / (2.0 * v) - z0) / n,
        "p1": (1.0 + v) * b / (2.0 * v * n),
        "q2": (1.0 - v) * b / (2.0 * v * n),
        "plane": z0 / n,
    }[family]
    return separation if separation > 0.0 else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z0=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
       b=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       v=st.floats(-4.0, math.log10(0.3)).map(lambda e: 10.0**e),
       n=st.integers(1, 50),
       family=st.sampled_from(["X+", "Y+", "X-", "p1", "q2", "plane"]),
       offset=st.one_of(st.just(0.0), st.floats(-16.0, -1.0).map(lambda e: 10.0**e),
                        st.floats(-16.0, -1.0).map(lambda e: -(10.0**e))),
       before=st.integers(0, 3), after=st.integers(0, 10))
def test_branches_refuse_alike_and_agree(z0, b, v, n, family, offset, before, after):
    # a block of indices around n, with n next to, or on, a singular locus
    # or an image plane through a corner: both branches raise the same
    # error, or both return terms within the error maps' 64 u kappa of each
    # other
    a = _on_locus_separation(family, z0, b, v, n)
    if a is None:
        return
    a *= 1.0 + offset
    _assert_branches_agree(PathSegment(z0=z0, b=b, v=v), a,
                           range(max(1, n - before), n + after + 1))


def _assert_branches_agree(seg, a, ns):
    """Both branches raise the same error on the block ns (class, message,
    factor, threshold), or both return terms within the error maps' 64 u
    kappa of each other; a RuntimeWarning from either is an error. Returns
    the kernel's outcome."""
    outcomes = []
    for branch in BRANCHES:
        with pinned_branch(branch), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                outcomes.append(image_pair_terms(seg, a, ns))
            except (DomainError, SingularityError) as exc:
                outcomes.append((type(exc), str(exc), getattr(exc, "factor", None),
                                 getattr(exc, "threshold", None)))
    kernel, loop = outcomes
    if isinstance(kernel, tuple) or isinstance(loop, tuple):
        assert kernel == loop
        return kernel
    for index, x, y in zip(ns, kernel, loop, strict=True):
        assert abs(x - y) <= 64.0 * 2.0**-53 * _pair_kappa(seg, a, index) * abs(x)
    return kernel


def test_light_like_dual_image_raises_as_scalar_path():
    a, z, z_prime = 1.0, 0.3, 0.4
    dt = 2.0 * a - (z - z_prime)  # the n = 1 image of z - z' sits on the light cone
    with pytest.raises(SingularityError) as scalar:
        _inverse_square_factor(dt, (z - z_prime) - 2.0 * a * 1, "(z-z'-2an), n=1")
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


@pytest.mark.parametrize("z0, b, a, v, n_max", [
    (0.3, 0.1, 1.0, 1e-3, 100),  # n_ref = 101
    (0.3, 0.1, 1.0, 0.1, _REFERENCE_FLOOR - 1),  # n_ref = _REFERENCE_FLOOR
])
def test_n_max_below_reference_index_refuses_before_any_pair(z0, b, a, v, n_max, monkeypatch):
    calls = []

    def counted(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    monkeypatch.setattr(casvolt.images, "image_pair_terms",
                        counted("image_pair_terms", image_pair_terms))
    monkeypatch.setattr(casvolt.closed_forms, "one_plate_integral",
                        counted("one_plate_integral", one_plate_integral))
    with pytest.raises(ConvergenceError, match=rf"within n_max={n_max} terms "
                                               r"\(last tail bound inf\)$"):
        variance_two_plate_exact(Particle.electron(speed=v), PathSegment(z0=z0, b=b, v=v), a,
                                 SummationControl(n_max=n_max))
    assert calls == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.05, 0.8), ub=st.floats(0.02, 0.5),
       log_v=st.floats(-3.0, -1.0), tol=st.floats(1e-12, 0.5))
def test_two_plate_sum_never_stops_before_the_reference_index(a, uz, ub, log_v, tol):
    z0 = a * uz
    b, v = ub * (a - z0), 10.0**log_v
    seg = PathSegment(z0=z0, b=b, v=v)
    try:
        result = _engine_sum(seg, a, SummationControl(tol=tol))
    except SingularityError:
        return
    assert result.terms_used >= _reference_index(z0, b, a, v) >= _REFERENCE_FLOOR


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.05, 0.8), ub=st.floats(0.02, 0.5),
       log_v=st.floats(-3.0, -1.0), log_tol=st.floats(-15.0, math.log10(0.5)))
def test_two_plate_sum_certifies_at_a_block_end(a, uz, ub, log_v, log_tol):
    z0 = a * uz
    b, v, control = ub * (a - z0), 10.0**log_v, SummationControl(tol=10.0**log_tol)
    seg = PathSegment(z0=z0, b=b, v=v)
    try:
        result = _engine_sum(seg, a, control)
    except SingularityError:
        return
    assert result.tail_estimate <= control.tol * abs(result.value)
    assert result.terms_used in _block_ends(_reference_index(z0, b, a, v),
                                            _natural_index(z0, b, a, v), control.n_max)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.05, 0.8), ub=st.floats(0.02, 0.5),
       log_v=st.floats(-3.0, -1.0))
def test_two_plate_sum_certifies_at_its_first_block_end(a, uz, ub, log_v):
    # on the image_sums ranges, at the default tolerance, every sum certifies
    # at the end of its first pair block, a floored one (n_U < 9) at
    # max(_REFERENCE_FLOOR, n_U + n_U // 4 + 2) <= 12 as well
    z0 = a * uz
    b, v = ub * (a - z0), 10.0**log_v
    seg = PathSegment(z0=z0, b=b, v=v)
    try:
        result = _engine_sum(seg, a)
    except SingularityError:
        return
    n_u = _natural_index(z0, b, a, v)
    assert result.terms_used == max(_REFERENCE_FLOOR, n_u + n_u // 4 + 2)
    assert result.tail_estimate <= SummationControl().tol * abs(result.value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_plate_sum_takes_one_pair_block(seed, monkeypatch):
    # the pair terms 1..E, E = max(n_ref, n_U + n_U // 4 + 2), are evaluated
    # once, and the sum certifies at E, keeping every one of them
    sizes = []

    def counted(seg, a, ns):
        sizes.append((type(ns), len(ns)))
        return image_pair_terms(seg, a, ns)

    monkeypatch.setattr(casvolt.images, "image_pair_terms", counted)
    for a, z0, b, v in _image_sums_grid(seed):
        sizes.clear()
        try:
            result = variance_two_plate_exact(Particle.electron(speed=v),
                                              PathSegment(z0=z0, b=b, v=v), a)
        except SingularityError:
            continue
        # a range, which the pure-Python pass takes as it is
        assert sizes == [(range, result.terms_used)]


def _assert_block_matches_scalar(seg, a, ns):
    """Block and scalar pair terms both within 1e-12 of the corner
    magnitudes of the 60-digit pair term."""
    for branch in BRANCHES:
        with pinned_branch(branch):
            block = image_pair_terms(seg, a, ns)
        for n, value in zip(ns, block):
            reference = float(mp.pair(seg.z0, seg.b, seg.v, a, n))
            bound = 1e-12 * _corner_magnitude(seg, a, n)
            assert abs(value - reference) <= bound
            assert abs(_image_pair_term(seg, a, n) - reference) <= bound


def _near_edge(edge, measure, above, step=1e-9):
    """Of edge * (1 -+ step), the value at which measure lies above (or at
    and below) its branch edge."""
    return next(x for x in (edge * (1.0 - step), edge * (1.0 + step)) if measure(x) == above)


# The branch edges of the former 16-corner kernel, pinned against the
# 60-digit pair term: the collapsed squares have no branch there, and these
# geometries keep checking that. That kernel took a corner's log difference
# through log1p where |2 delta / second| <= _LOG1P_MAX, and took the diagonal
# limit where |z - z'| < _DIAGONAL_EPS (|z| + |z'|).
_LOG1P_MAX = 0.5
_DIAGONAL_EPS = 1e-8
# One off-diagonal corner per family whose
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
    _assert_block_matches_scalar(PathSegment(z0=z0, b=b, v=v), a, range(1, 3))


@pytest.mark.parametrize("above", [False, True])
def test_fused_kernel_translated_diagonal_edge_matches_scalar(above):
    # the former kernel switched the off-diagonal translated corners to the
    # diagonal limit where z1 - z0 < _DIAGONAL_EPS (z0 + z1); z1 - z0 is
    # rounded to 1.1e-8 of b, so b steps by 1e-7 across the edge
    z0, a, v = 1.0, 3.0, 0.1

    def diagonal(b):
        return (z0 + b) - z0 < _DIAGONAL_EPS * (z0 + (z0 + b))

    b = _near_edge(2.0 * _DIAGONAL_EPS / (1.0 - _DIAGONAL_EPS), diagonal, above, step=1e-7)
    _assert_block_matches_scalar(PathSegment(z0=z0, b=b, v=v), a, range(1, 4))


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
            _image_pair_term(seg, a, n)
    assert str(scalar.value).startswith(family)
    assert scalar.value.__cause__ is None
    for branch in BRANCHES:
        with pinned_branch(branch), pytest.raises(SingularityError) as block:
            image_pair_terms(seg, a, range(1, 10))
        assert str(block.value) == str(scalar.value)
        assert (block.value.factor, block.value.threshold) == (scalar.value.factor,
                                                               scalar.value.threshold)
        assert block.value.__cause__ is None


def _locus_ratio(row, z0, b, v, n, a):
    """|argument| / tolerance of one log argument of the pair term of n, as
    _reflection_square and _translation_square form them: X or Y of the
    reflected square of +n ("X+", "Y+") or of -n ("X-"), or the
    translated corner p1 = c - (1+v) b or q2 = c - (1-v) b."""
    if row[0] in "XY":
        base = z0 - a * n if row[1] == "+" else z0 + a * n
        top = base + b
        if row[0] == "X":
            argument = 2.0 * v * top - (1.0 + v) * b
        else:
            argument = 2.0 * v * top + (1.0 - v) * b
        touch = v * (abs(top) + abs(base)) + b
    else:
        c = 2.0 * (n * a * v)
        argument = c - (1.0 + v) * b if row == "p1" else c - (1.0 - v) * b
        touch = c + b
    return abs(argument) / (_POLE_TOUCH_EPS * touch)


def _place_on_edge(row, z0, b, v, n, a_zero, inside):
    """(b, a) within 16 ulps of b and of the linear estimate of the a at
    which _locus_ratio is 1 -+ 1e-6: the pair closest to that target on the
    side asked for. A ratio moves by about 1e-6 per ulp of its argument."""
    target = 1.0 - 1e-6 if inside else 1.0 + 1e-6
    slope = _locus_ratio(row, z0, b, v, n, a_zero * (1.0 + 1e-9)) / (a_zero * 1e-9)
    a = a_zero + target / slope
    ratios = {(b_j, a_i): _locus_ratio(row, z0, b_j, v, n, a_i)
              for b_j in (b + j * math.ulp(b) for j in range(-16, 17))
              for a_i in (a + i * math.ulp(a) for i in range(-16, 17))}
    return min((pair for pair, ratio in ratios.items() if (ratio < 1.0) == inside),
               key=lambda pair: abs(ratios[pair] - target))


# (row, z0, b, v, n, a at which the argument vanishes) for each log argument
# of an index n >= 1 that can reach the singular locus. Y of -n cannot: the
# -n square lies above z = 0, where Y > 0; nor can the corners
# q1 = c + (1-v) b and p2 = c + (1+v) b, which stay above (1-v) b. The last
# case puts p1 on the locus while the square of image +1 straddles z = 0
# (z0 < a < z0 + b).
_LOCUS_EDGES = [
    ("X+", 0.3, 0.01, 0.1, 2, (0.31 - 1.1 * 0.01 / 0.2) / 2.0),
    ("Y+", 0.3, 0.01, 0.1, 2, (0.31 + 0.9 * 0.01 / 0.2) / 2.0),
    ("X-", 0.3, 0.1, 0.1, 2, (1.1 * 0.1 / 0.2 - 0.4) / 2.0),
    ("p1", 0.3, 0.1, 0.1, 2, 1.1 * 0.1 / 0.4),
    ("q2", 0.3, 0.1, 0.1, 2, 0.9 * 0.1 / 0.4),
    ("p1", 0.12, 0.1, 0.5, 1, 1.5 * 0.1 / 1.0),
]


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("row, z0, b, v, n, a_zero", _LOCUS_EDGES,
                         ids=["X+", "Y+", "X-", "p1", "q2", "p1-straddle"])
def test_locus_edge_matches_scalar(row, z0, b, v, n, a_zero, inside):
    # a log argument at (1 -+ 1e-6) of its tolerance, to the resolution of
    # the floats: the block refuses exactly when the scalar path does, with
    # its message, and otherwise both stay within the 60-digit error map's
    # 64 u kappa bound, kappa about 1e10 here (tests/test_square_accuracy.py)
    b, a = _place_on_edge(row, z0, b, v, n, a_zero, inside)
    assert abs(_locus_ratio(row, z0, b, v, n, a) - 1.0) < 1.5e-6
    seg = PathSegment(z0=z0, b=b, v=v)
    ns = range(1, 4)
    try:
        for index in ns:
            _image_pair_term(seg, a, index)
    except SingularityError as exc:
        assert inside and exc.__cause__ is None
        for branch in BRANCHES:
            with pinned_branch(branch), pytest.raises(SingularityError) as block:
                image_pair_terms(seg, a, ns)
            assert str(block.value) == str(exc)
            assert (block.value.factor, block.value.threshold) == (exc.factor, exc.threshold)
            assert block.value.__cause__ is None
        return
    assert not inside
    for branch in BRANCHES:
        with pinned_branch(branch):
            block = image_pair_terms(seg, a, ns)
        for index, value in zip(ns, block):
            reference, kappa = mp.pair(z0, b, v, a, index), _pair_kappa(seg, a, index)
            _assert_close(value, reference, kappa)
            _assert_close(_image_pair_term(seg, a, index), reference, kappa)


# (z0, b, a) at the lower and the upper corner of the length window [1e-60, 1e60]
_WINDOW_CORNERS = {"1e-60": (3e-60, 1e-60, 1e-59), "1e60": (3e59, 1e59, 1e60)}


@pytest.mark.parametrize("ns", [range(1, 65), range(1000, 1400), range(10**6 - 1023, 10**6 + 1)],
                         ids=["1-64", "1000-1399", "last-of-default-n_max"])
@pytest.mark.parametrize("v", [1.000001e-6, 0.98])
@pytest.mark.parametrize("corner", sorted(_WINDOW_CORNERS))
def test_kernel_blocks_at_the_window_corners_match_the_pass(corner, v, ns):
    # the kernel tests the locus and the sign of the near top before any
    # divide or log, with no np.errstate: no warning at the window's corners,
    # up to the last piece a sum of the default n_max = 10^6 pairs forms
    z0, b, a = _WINDOW_CORNERS[corner]
    assert isinstance(_assert_branches_agree(PathSegment(z0=z0, b=b, v=v), a, ns), list)


@pytest.mark.parametrize("target", [0.0, 0.9, 1.1])
@pytest.mark.parametrize("family", ["Y+", "X-", "p1", "q2"])
@pytest.mark.parametrize("v", [1.000001e-6, 1e-3])
@pytest.mark.parametrize("corner", sorted(_WINDOW_CORNERS))
def test_kernel_blocks_with_an_interior_locus_index_match_the_pass(corner, v, family, target):
    # index 50 of the block 31..70 with a log argument at target times its
    # tolerance (_locus_ratio): on the locus; inside the tolerance but above
    # the tolerance of index 31's largest touch scale, which a bound taken at
    # the block's first index would clear; or just outside, where the bound
    # at its last index fails and the pass, testing each index, forms the block.
    # z0 = 3 b, with b at the lower corner of the length window or a just
    # below the upper one
    ratio = _on_locus_separation(family, 3.0, 1.0, v, 50)
    b = 1e-60 if corner == "1e-60" else 0.9e60 / ratio
    z0 = 3.0 * b
    a_zero = _on_locus_separation(family, z0, b, v, 50)
    slope = _locus_ratio(family, z0, b, v, 50, a_zero * (1.0 + 1e-9)) / (a_zero * 1e-9)
    a = a_zero + target / slope
    assert abs(_locus_ratio(family, z0, b, v, 50, a) - target) < 1e-3
    assert 1e-60 <= b and z0 + b < a <= 1e60
    kernel = _assert_branches_agree(PathSegment(z0=z0, b=b, v=v), a, range(31, 71))
    assert isinstance(kernel, list) == (target > 1.0)
