"""Certified symmetric image summation."""
import math

import numpy as np
import pytest

from casvolt import ConvergenceError, DomainError, SummationControl
from casvolt.summation import _BLOCK_CAP, _HEAD_BLOCK, hurwitz_zeta, sum_symmetric_images

ZETA4_PAIR_SUM = math.pi**4 / 45.0  # 2 * zeta(4)


def test_control_validation():
    with pytest.raises(DomainError):
        SummationControl(tol=0.0)
    with pytest.raises(DomainError):
        SummationControl(tol=-1e-3)
    with pytest.raises(DomainError):
        SummationControl(n_max=0)


def test_converges_to_known_series():
    # pair term 2/n^4 sums to 2 zeta(4) = pi^4/45; tail bound by integral test
    control = SummationControl(tol=1e-12, n_max=10**6)
    result = sum_symmetric_images(
        lambda n: 2.0 / n**4,
        lambda n: 2.0 / (3.0 * n**3),
        control,
    )
    assert abs(result.value - ZETA4_PAIR_SUM) <= result.tail_estimate
    assert result.value == pytest.approx(ZETA4_PAIR_SUM, rel=1e-11, abs=0.0)
    assert result.terms_used > 10


def test_tail_estimate_is_certified():
    # the reported tail estimate must cover the actual truncation error
    loose = sum_symmetric_images(
        lambda n: 2.0 / n**4,
        lambda n: 2.0 / (3.0 * n**3),
        SummationControl(tol=1e-6, n_max=10**6),
    )
    assert abs(loose.value - ZETA4_PAIR_SUM) <= loose.tail_estimate
    assert loose.tail_estimate <= 2e-6 * abs(loose.value)


def test_base_term_included():
    result = sum_symmetric_images(
        lambda n: 2.0 / n**4,
        lambda n: 2.0 / (3.0 * n**3),
        SummationControl(tol=1e-12),
        base=10.0,
    )
    assert result.value == pytest.approx(10.0 + ZETA4_PAIR_SUM, rel=1e-12, abs=0.0)


def test_infinite_bound_defers_termination():
    # bound unavailable until n >= 5: the sum must keep going, then certify
    def bound(n):
        return np.where(n < 5, np.inf, 2.0 / (3.0 * n**3))

    result = sum_symmetric_images(
        lambda n: 2.0 / n**4, bound, SummationControl(tol=1e-6)
    )
    assert result.terms_used >= 5
    assert abs(result.value - ZETA4_PAIR_SUM) <= result.tail_estimate


def test_budget_exhaustion_raises():
    with pytest.raises(ConvergenceError) as excinfo:
        sum_symmetric_images(
            lambda n: 1.0 / n**2,
            lambda n: 1.0 / n,  # slow bound never reaches tol * value
            SummationControl(tol=1e-10, n_max=50),
        )
    assert "n_max=50" in str(excinfo.value)


# The callables below use only +, -, * and /, which round identically in any
# numpy loop, so the block engine and the per-index reference see bit-equal
# terms and bounds.

def _zeta4_pair(n):
    return 2.0 / (n * n * n * n)


def _zeta4_bound(n):
    return 2.0 / (3.0 * n * n * n)


def _reference(pair_term, tail_bound, control, base=0.0, n_min=1):
    """The one-index-at-a-time loop: (value, terms_used, tail) or the
    ConvergenceError message. A tail_bound returning (bound, subtracted)
    stops against the running total plus the subtracted tail, which the
    value then includes."""
    parts = [base]
    running = base
    bound = math.inf
    for n in range(n_min, control.n_max + 1):
        index = np.array([float(n)])
        term = float(pair_term(index)[0])
        parts.append(term)
        running += term
        bounds = tail_bound(index)
        subtracted = 0.0
        if isinstance(bounds, tuple):
            bounds, subtracted = bounds[0], float(bounds[1][0])
        bound = float(bounds[0])
        if bound <= control.tol * abs(running + subtracted):
            return math.fsum([*parts, subtracted]), n, bound
    return (
        f"image sum not certified below relative tolerance {control.tol:g} "
        f"within n_max={control.n_max} terms (last tail bound {bound:.3e})"
    )


def _assert_matches_reference(pair_term, tail_bound, control, base=0.0, n_min=1):
    expected = _reference(pair_term, tail_bound, control, base=base, n_min=n_min)
    if isinstance(expected, str):
        with pytest.raises(ConvergenceError) as excinfo:
            sum_symmetric_images(pair_term, tail_bound, control, base=base, n_min=n_min)
        assert str(excinfo.value) == expected
        return None
    result = sum_symmetric_images(pair_term, tail_bound, control, base=base, n_min=n_min)
    assert (result.value, result.terms_used, result.tail_estimate) == expected
    return result


def test_stop_inside_first_block_matches_reference():
    result = _assert_matches_reference(_zeta4_pair, _zeta4_bound, SummationControl(tol=1e-3))
    assert 1 < result.terms_used < _HEAD_BLOCK


def test_stop_inside_second_block_matches_reference():
    result = _assert_matches_reference(_zeta4_pair, _zeta4_bound, SummationControl(tol=1e-6))
    assert _HEAD_BLOCK < result.terms_used < _HEAD_BLOCK + _BLOCK_CAP


# the first block ends at _HEAD_BLOCK, the second _BLOCK_CAP indices later
_EDGES = (_HEAD_BLOCK, _HEAD_BLOCK + _BLOCK_CAP)


@pytest.mark.parametrize("stop", [edge + step for edge in _EDGES for step in (-1, 0, 1)])
def test_stop_on_block_edge_matches_reference(stop):
    def bound(n):
        return np.where(n < stop, np.inf, _zeta4_bound(n))

    # at tol 1e-3 the zeta(4) bound alone certifies from n = 7 on
    result = _assert_matches_reference(_zeta4_pair, bound, SummationControl(tol=1e-3))
    assert result.terms_used == stop


def test_shrinking_total_spans_blocks_and_matches_reference():
    # negative terms shrink the running total, so every predicted stop falls
    # short of the true one and the engine must carry on in later blocks
    result = _assert_matches_reference(
        lambda n: -0.5 / (n * n), lambda n: 0.5 / n, SummationControl(tol=1e-3), base=1.0
    )
    assert result.terms_used > 1000


@pytest.mark.parametrize("n_max", [50, _BLOCK_CAP + 10])
def test_n_max_inside_block_matches_reference(n_max):
    _assert_matches_reference(
        lambda n: 1.0 / (n * n), lambda n: 1.0 / n, SummationControl(tol=1e-10, n_max=n_max)
    )


def test_running_total_adds_left_to_right():
    # each term is below half an ulp of the base, so a left-to-right running
    # total stays exactly 1.0 and never meets the bound, while adding the
    # terms up first would reach 1 + 2**-52 and stop
    tol = 0.5
    _assert_matches_reference(
        lambda n: np.full_like(n, 1e-17),
        lambda n: np.full_like(n, tol * (1.0 + 2.0**-52)),
        SummationControl(tol=tol, n_max=100),
        base=1.0,
    )


def test_n_min_above_one_matches_reference():
    result = _assert_matches_reference(
        _zeta4_pair, _zeta4_bound, SummationControl(tol=1e-12), n_min=3
    )
    assert result.value == pytest.approx(ZETA4_PAIR_SUM - 2.0 - 2.0 / 16.0, rel=1e-11, abs=0.0)


def test_blocks_never_exceed_cap():
    sizes = []

    def pair(n):
        sizes.append(len(n))
        return 2.0 / (n * n)

    def bound(n):
        sizes.append(len(n))
        return 2.0 / n

    result = _assert_matches_reference(pair, bound, SummationControl(tol=1e-4), base=1.0)
    assert result.terms_used > _BLOCK_CAP
    assert max(sizes) <= _BLOCK_CAP


def test_pair_terms_stop_near_the_true_stop():
    # against the small base alone the stop would be predicted about
    # (sum/base)^(1/3) ~ 3x too far out; after the first block the
    # prediction is within an index of the true stop
    seen = []

    def pair(n):
        seen.extend(n.tolist())
        return _zeta4_pair(n)

    result = _assert_matches_reference(pair, _zeta4_bound, SummationControl(tol=1e-10),
                                       base=0.05)
    assert result.terms_used > _HEAD_BLOCK
    assert max(seen) <= result.terms_used + 1


# pair term 2/n^4 + 8/n^8: subtracting T(N) = 2 zeta(4, N+1) from N = 16 on
# leaves the remainder 8 zeta(8, N+1), bounded by its first Euler-Maclaurin terms
ZETA8 = math.pi**8 / 9450.0
ZETA48_PAIR_SUM = ZETA4_PAIR_SUM + 8.0 * ZETA8


def _zeta48_pair(n):
    inv_sq = 1.0 / (n * n)
    return 2.0 * inv_sq * inv_sq + 8.0 * inv_sq * inv_sq * inv_sq * inv_sq


def _zeta48_tail(n):
    far = n >= _HEAD_BLOCK
    x = n + 1.0
    remainder = 8.0 * (1.0 / 7.0 + (0.5 + 2.0 / (3.0 * x)) / x) / x**7
    subtracted = np.array([2.0 * hurwitz_zeta(4, float(m)) if f else 0.0
                           for m, f in zip(x, far)])
    return np.where(far, remainder, 2.0 / (3.0 * n**3)), subtracted


def test_subtracted_tail_certifies_early_and_matches_reference():
    control = SummationControl(tol=1e-12)
    result = _assert_matches_reference(_zeta48_pair, _zeta48_tail, control)
    assert _HEAD_BLOCK < result.terms_used < 60
    assert abs(result.value - ZETA48_PAIR_SUM) <= result.tail_estimate
    plain = sum_symmetric_images(_zeta48_pair, lambda n: 2.0 / (3.0 * n**3), control)
    assert plain.terms_used > 100 * result.terms_used


@pytest.mark.parametrize("stop", [_HEAD_BLOCK + _BLOCK_CAP + step for step in (-1, 0, 1)])
def test_subtracted_tail_on_block_edge_matches_reference(stop):
    def tail(n):
        bounds, subtracted = _zeta48_tail(n)
        return np.where(n < stop, np.inf, bounds), subtracted

    result = _assert_matches_reference(_zeta48_pair, tail, SummationControl(tol=1e-12))
    assert result.terms_used == stop


def test_zero_subtracted_tail_is_the_plain_bound():
    control = SummationControl(tol=1e-8)
    plain = sum_symmetric_images(_zeta4_pair, _zeta4_bound, control, base=0.5)
    paired = sum_symmetric_images(
        _zeta4_pair, lambda n: (_zeta4_bound(n), np.zeros_like(n)), control, base=0.5
    )
    assert paired == plain


def test_hurwitz_zeta_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for s in (2, 4, 6, 8):
        for x in (16.0, 17.0, 18.5, 100.0, 4113.0, 1e6):
            expected = mpmath.zeta(s, x)
            assert abs(hurwitz_zeta(s, x) - expected) <= 3e-16 * expected


@pytest.mark.parametrize("s, x", [(1, 20.0), (4, 15.5), (4, math.nan)])
def test_hurwitz_zeta_domain(s, x):
    with pytest.raises(DomainError):
        hurwitz_zeta(s, x)
