"""Closed-form flight integrals."""
import math
import random

import pytest

from casvolt import (
    DomainError,
    PathSegment,
    SingularityError,
    one_plate_integral,
    one_plate_integral_smallv,
    one_plate_kernel,
    reflected_image_integral,
    reflected_image_kernel,
    translated_image_integral,
    translated_image_kernel,
)
from casvolt.closed_forms import _reflection_square


def test_segment_validation():
    with pytest.raises(DomainError):
        PathSegment(z0=0.0, b=0.1, v=0.01)
    with pytest.raises(DomainError):
        PathSegment(z0=1.0, b=0.0, v=0.01)
    with pytest.raises(DomainError):
        PathSegment(z0=1.0, b=0.1, v=1.0)


@pytest.mark.parametrize("field, value", [
    ("z0", math.inf), ("z0", math.nan), ("b", math.inf), ("b", math.nan),
])
def test_segment_rejects_non_finite_lengths(field, value):
    # z0 = inf gave variance 0.0 and b = inf gave nan
    lengths = {"z0": 0.3, "b": 0.1}
    lengths[field] = value
    with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
        PathSegment(v=0.1, **lengths)


def test_exact_integral_rejects_out_of_range_speeds():
    # the corner construction carries 1/v^3 prefactors, so it refuses speeds
    # it cannot evaluate accurately; the small-v form has no lower limit
    with pytest.raises(DomainError):
        one_plate_integral(PathSegment(z0=1.0, b=0.1, v=0.995))
    with pytest.raises(DomainError):
        one_plate_integral(PathSegment(z0=1.0, b=0.1, v=1e-7))
    assert one_plate_integral_smallv(PathSegment(z0=1.0, b=0.1, v=1e-7)) > 0.0


def test_one_plate_integral_goldens():
    # frozen against the adaptive-quadrature oracle
    assert one_plate_integral(PathSegment(1.0, 0.05, 0.01)) == pytest.approx(
        2532.3517781561696, rel=1e-12, abs=0.0
    )
    assert one_plate_integral(PathSegment(1.0, 0.005, 0.01)) == pytest.approx(
        158.03089619354606, rel=1e-12, abs=0.0
    )
    assert one_plate_integral(PathSegment(1.0, 1000.0, 0.01)) == pytest.approx(
        1249.9595802954851, rel=1e-12, abs=0.0
    )


def test_one_plate_integral_scale_invariance():
    # the arbitrary log scale must cancel between the four corners of the
    # 60-digit antiderivative, whose difference the square matches
    pytest.importorskip("mpmath")
    import mp_squares

    seg = PathSegment(0.7, 0.02, 0.03)
    for ell in (1.0, 7.3):
        reference = float(mp_squares.one_plate(seg.z0, seg.b, seg.v, ell))
        assert one_plate_integral(seg) == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_one_plate_integral_homogeneity():
    # scaling all lengths by lambda scales the integral by 1/lambda^2
    seg = PathSegment(1.0, 0.01, 0.02)
    lam = 3.7
    scaled = PathSegment(lam * seg.z0, lam * seg.b, seg.v)
    assert one_plate_integral(scaled) == pytest.approx(
        one_plate_integral(seg) / lam**2, rel=1e-12, abs=0.0
    )


def test_one_plate_smallv_golden():
    assert one_plate_integral_smallv(PathSegment(1.0, 0.05, 0.01)) == pytest.approx(
        2517.0407218442933, rel=1e-12, abs=0.0
    )


def test_one_plate_smallv_warns_at_large_v():
    with pytest.warns(UserWarning):
        one_plate_integral_smallv(PathSegment(1.0, 0.05, 0.2))


def test_one_plate_pole_touch_raises_with_guidance():
    z0, v = 1.0, 0.01
    b_star = 2.0 * v * z0 / (1.0 - v)
    with pytest.raises(SingularityError) as excinfo:
        one_plate_integral(PathSegment(z0, b_star, v))
    assert "perturb b" in str(excinfo.value)
    # the square's own refusal, raised once with the guidance in front
    with pytest.raises(SingularityError) as square:
        _reflection_square(z0, b_star, v)
    error = excinfo.value
    assert str(error).endswith(f"perturb b slightly. {square.value}")
    assert (error.factor, error.threshold) == (square.value.factor, square.value.threshold)
    assert error.__cause__ is None


@pytest.mark.parametrize("z0, v", [(1.0, 0.01), (0.3, 0.1), (2.0, 1e-3), (1.0, 0.5)])
def test_one_plate_integral_diverges_logarithmically_at_the_pole_entry(z0, v):
    # I(b) = -kappa ln|b - b*| + O(1), kappa = (1 - v) / (8 v^2 z0^2 (1 + v)):
    # from 1e-4 to 1e-6 relative of b* the integral rises by kappa ln 100 on
    # either side, up to O(|b - b*|) terms of opposite sign on the two sides
    b_star = 2.0 * v * z0 / (1.0 - v)
    kappa = (1.0 - v) / (8.0 * v * v * z0 * z0 * (1.0 + v))
    slopes = []
    for side in (1.0, -1.0):
        near = one_plate_integral(PathSegment(z0, b_star * (1.0 + side * 1e-6), v))
        far = one_plate_integral(PathSegment(z0, b_star * (1.0 + side * 1e-4), v))
        slopes.append((near - far) / math.log(100.0))
        assert slopes[-1] == pytest.approx(kappa, rel=3e-4, abs=0.0)
    assert 0.5 * (slopes[0] + slopes[1]) == pytest.approx(kappa, rel=1e-7, abs=0.0)


def test_reflected_image_goldens():
    seg = PathSegment(0.3, 0.05, 0.01)
    assert reflected_image_integral(seg, 1.0, 1) == pytest.approx(
        5648.9068948243971, rel=1e-12, abs=0.0
    )
    assert reflected_image_integral(seg, 1.0, -1) == pytest.approx(
        1587.0693877401477, rel=1e-12, abs=0.0
    )
    tiny = PathSegment(0.3, 1e-4, 0.01)
    assert reflected_image_integral(tiny, 1.0, 1) == pytest.approx(
        0.26038702322852106, rel=1e-12, abs=0.0
    )


def test_reflected_image_rejects_n_zero():
    with pytest.raises(DomainError):
        reflected_image_integral(PathSegment(0.3, 0.01, 0.01), 1.0, 0)


def test_translated_image_goldens():
    assert translated_image_integral(PathSegment(0.3, 0.2, 0.01), 1.0, 1) == pytest.approx(
        2508.1353975993175, rel=1e-12, abs=0.0
    )
    assert translated_image_integral(PathSegment(0.3, 0.2, 0.01), 1.0, 2) == pytest.approx(
        633.47858840333756, rel=1e-12, abs=0.0
    )
    assert translated_image_integral(
        PathSegment(0.3, 0.005, 0.005), 1.0, 1
    ) == pytest.approx(2746.5731702078004, rel=1e-12, abs=0.0)


def test_translated_image_sign_symmetry():
    # the kernel depends on z - z' only and the square weights z - z'
    # symmetrically, so the n and -n integrals coincide
    seg = PathSegment(0.3, 0.05, 0.01)
    plus = translated_image_integral(seg, 1.0, 1)
    minus = translated_image_integral(seg, 1.0, -1)
    assert plus > 0.0
    assert minus == pytest.approx(plus, rel=1e-10, abs=0.0)


def test_kernels_match_their_definitions():
    z, zp, v = 1.2, 0.7, 0.1
    expected = 1.0 / ((z - zp) ** 2 - v * v * (z + zp) ** 2) ** 2
    assert one_plate_kernel(z, zp, v) == pytest.approx(expected, rel=1e-15, abs=0.0)
    a, n = 1.0, 1
    expected_refl = 1.0 / ((z - zp) ** 2 - v * v * (z + zp - 2 * a * n) ** 2) ** 2
    assert reflected_image_kernel(z, zp, v, a, n) == pytest.approx(
        expected_refl, rel=1e-15, abs=0.0
    )
    expected_trans = 1.0 / ((z - zp) ** 2 - v * v * (z - zp - 2 * a * n) ** 2) ** 2
    assert translated_image_kernel(z, zp, v, a, n) == pytest.approx(
        expected_trans, rel=1e-15, abs=0.0
    )


def test_integrals_positive_on_random_segments():
    rng = random.Random(4821)
    for _ in range(25):
        z0 = rng.uniform(0.1, 3.0)
        v = rng.uniform(0.002, 0.3)
        b = rng.uniform(0.001, 0.5) * z0
        try:
            value = one_plate_integral(PathSegment(z0, b, v))
        except SingularityError:
            continue  # measure-zero corner touch; any perturbation works
        assert value > 0.0


@pytest.mark.parametrize("seg, a, n", [
    # the cases behind verify failures at seeds 279810 and 97803
    (PathSegment(z0=0.08577874980435383, b=0.0048999048989935914, v=0.003000442850510922),
     1.604335547642061, -2),
    (PathSegment(z0=0.3941684158644799, b=0.0028608975973274256, v=0.0031379375574008875),
     1.3919058518591165, 2),
])
def test_reflected_image_keeps_the_exact_side(seg, a, n):
    # shifting the corners by -a n first rounded the side b at the magnitude
    # of a n, 1.7e-13 and 1.9e-13 relative here
    pytest.importorskip("mpmath")
    import mp_squares

    expected = mp_squares.reflected(seg.z0, seg.b, seg.v, a, n)
    assert abs(reflected_image_integral(seg, a, n) - expected) <= 1e-14 * abs(expected)
