"""Boundary-induced field correlators."""
import math
import random

import pytest

from casvolt import (
    DomainError,
    SingularityError,
    SpacetimePair,
    brute_dual_correlator,
    correlator_dual_plate,
    correlator_single_plate,
    mean_squared_field,
)


def test_pair_validation():
    with pytest.raises(DomainError):
        SpacetimePair(t=0.0, z=0.0, t_prime=0.0, z_prime=1.0)
    with pytest.raises(DomainError):
        SpacetimePair(t=0.0, z=1.0, t_prime=0.0, z_prime=-0.2)


@pytest.mark.parametrize("coordinates", [
    {"t": math.nan}, {"t": math.inf}, {"t_prime": -math.inf},
    {"z": math.inf}, {"z_prime": math.nan},
])
def test_pair_rejects_non_finite_coordinates(coordinates):
    with pytest.raises(DomainError):
        SpacetimePair(**{"t": 0.0, "z": 0.3, "t_prime": 0.0, "z_prime": 0.4, **coordinates})


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_plate_separation_must_be_finite(a):
    pair = SpacetimePair(t=0.0, z=0.3, t_prime=0.0, z_prime=0.4)
    with pytest.raises(DomainError, match="positive and finite"):
        correlator_dual_plate(pair, a)


def test_single_plate_equal_time_values():
    # equal-time correlator is 1/(pi^2 (z+z')^4)
    pair = SpacetimePair(t=0.0, z=1.0, t_prime=0.0, z_prime=1.0)
    assert correlator_single_plate(pair) == pytest.approx(
        1.0 / (16.0 * math.pi**2), rel=1e-14, abs=0.0
    )
    pair = SpacetimePair(t=0.0, z=1.5, t_prime=0.0, z_prime=1.5)
    assert correlator_single_plate(pair) == pytest.approx(
        1.0 / (81.0 * math.pi**2), rel=1e-14, abs=0.0
    )


def test_single_plate_time_translation_invariance():
    a = correlator_single_plate(SpacetimePair(t=2.0, z=0.8, t_prime=1.7, z_prime=1.1))
    b = correlator_single_plate(SpacetimePair(t=0.3, z=0.8, t_prime=0.0, z_prime=1.1))
    assert a == pytest.approx(b, rel=1e-15, abs=0.0)


def test_single_plate_light_cone_raises():
    pair = SpacetimePair(t=3.0, z=1.0, t_prime=0.0, z_prime=2.0)  # t - t' = z + z'
    with pytest.raises(SingularityError):
        correlator_single_plate(pair)


def test_dual_plate_goldens():
    # frozen against brute-force summation of 10^6 image pairs
    mid = correlator_dual_plate(
        SpacetimePair(t=0.0, z=0.5, t_prime=0.0, z_prime=0.5), 1.0
    )
    assert mid.value == pytest.approx(0.21932454224643, rel=1e-9, abs=0.0)
    off = correlator_dual_plate(
        SpacetimePair(t=0.0, z=0.3, t_prime=0.0, z_prime=0.4), 1.0
    )
    assert off.value == pytest.approx(0.474751268919025, rel=1e-9, abs=0.0)
    timelike = correlator_dual_plate(
        SpacetimePair(t=0.2, z=0.3, t_prime=0.0, z_prime=0.4), 1.0
    )
    assert timelike.value == pytest.approx(0.55515208407463, rel=1e-9, abs=0.0)


def test_dual_plate_mirror_symmetry():
    # swapping z -> a - z, z' -> a - z' relabels the image families
    a = 1.0
    left = correlator_dual_plate(
        SpacetimePair(t=0.0, z=0.3, t_prime=0.0, z_prime=0.4), a
    )
    right = correlator_dual_plate(
        SpacetimePair(t=0.0, z=0.7, t_prime=0.0, z_prime=0.6), a
    )
    assert right.value == pytest.approx(left.value, rel=1e-11, abs=0.0)


def test_dual_plate_matches_brute_force():
    # production truncation against 10^6 explicitly summed image pairs
    rng = random.Random(90210)
    for _ in range(10):
        a = rng.choice((0.7, 1.0, 1.9))
        z = a * rng.uniform(0.1, 0.9)
        zp = a * rng.uniform(0.1, 0.9)
        dt = rng.uniform(0.0, 0.05 * a)
        pair = SpacetimePair(t=dt, z=z, t_prime=0.0, z_prime=zp)
        result = correlator_dual_plate(pair, a)
        brute = brute_dual_correlator(dt, z, 0.0, zp, a)
        assert abs(result.value - brute) <= result.tail_estimate + 1e-13 * abs(brute)


def test_dual_plate_reduces_to_single_as_a_grows():
    pair = SpacetimePair(t=0.0, z=0.4, t_prime=0.0, z_prime=0.5)
    single = correlator_single_plate(pair)
    dual = correlator_dual_plate(pair, 500.0)
    assert dual.value == pytest.approx(single, rel=1e-8, abs=0.0)


def test_dual_plate_requires_points_between_plates():
    pair = SpacetimePair(t=0.0, z=1.2, t_prime=0.0, z_prime=0.4)
    with pytest.raises(DomainError):
        correlator_dual_plate(pair, 1.0)


_SINGULAR = "singular correlator configuration: (t-t')^2 ~ "


# a refusal's message and factor are part of the contract: pinned at
# light-like images and within the singular test next to them, as the
# image-by-image sum gave them
@pytest.mark.parametrize("t, z, z_prime, a, message, factor", [
    (0.7, 0.3, 0.4, 1.0, "(z+z')^2 (factor 0.000e+00 with scale 7.000e-01)", 0.0),
    (0.7000000001, 0.3, 0.4, 1.0, "(z+z')^2 (factor 1.400e-10 with scale 7.000e-01)",
     1.4000001159365193e-10),
    (2.1, 0.3, 0.4, 1.0, "(z-z'-2an), n=1^2 (factor 0.000e+00 with scale 2.100e+00)", 0.0),
    (2.0999999970000003, 0.3, 0.4, 1.0,
     "(z-z'-2an), n=1^2 (factor -1.260e-08 with scale 2.100e+00)", -1.2599999168353996e-08),
    (1.9, 0.3, 0.4, 1.0, "(z-z'-2an), n=-1^2 (factor 0.000e+00 with scale 1.900e+00)", 0.0),
    (1.9000000019999999, 0.3, 0.4, 1.0,
     "(z-z'-2an), n=-1^2 (factor 7.600e-09 with scale 1.900e+00)", 7.59999978905732e-09),
    # reach |z + z'| + |t| just below 2a: only the margin sends it to the search
    (1.299999998, 0.3, 0.4, 1.0,
     "(z+z'-2an), n=1^2 (factor -5.200e-09 with scale 1.300e+00)", -5.199999848933957e-09),
    (-2.7, 0.3, 0.4, 1.0, "(z+z'-2an), n=-1^2 (factor -0.000e+00 with scale 2.700e+00)", -0.0),
    (3.3, 0.3, 0.4, 1.0, "(z+z'-2an), n=2^2 (factor 0.000e+00 with scale 3.300e+00)", 0.0),
    (99.3, 0.3, 0.4, 1.0, "(z+z'-2an), n=50^2 (factor 0.000e+00 with scale 9.930e+01)", 0.0),
    (99.30000009999999, 0.3, 0.4, 1.0,
     "(z+z'-2an), n=50^2 (factor 1.986e-05 with scale 9.930e+01)", 1.985999883094802e-05),
    # two light-like images: +n before -n, and the single-plate term first
    (2.0, 0.3, 0.3, 1.0, "(z-z'-2an), n=1^2 (factor 0.000e+00 with scale 2.000e+00)", 0.0),
    (0.5, 0.25, 0.25, 0.5, "(z+z')^2 (factor 0.000e+00 with scale 5.000e-01)", 0.0),
    # far out the window stays 1e-6a wide, so it names the light-like image
    (1000000.1, 0.3, 0.4, 1.0,
     "(z-z'-2an), n=500000^2 (factor 0.000e+00 with scale 1.000e+06)", 0.0),
])
def test_dual_plate_light_like_image_message_and_factor(t, z, z_prime, a, message, factor):
    pair = SpacetimePair(t=t, z=z, t_prime=0.0, z_prime=z_prime)
    with pytest.raises(SingularityError) as raised:
        correlator_dual_plate(pair, a)
    assert str(raised.value) == _SINGULAR + message
    assert repr(raised.value.factor) == repr(factor)


def test_correlators_positive_at_random_points():
    rng = random.Random(777)
    for _ in range(25):
        z = rng.uniform(0.05, 3.0)
        zp = rng.uniform(0.05, 3.0)
        pair = SpacetimePair(t=0.0, z=z, t_prime=0.0, z_prime=zp)
        assert correlator_single_plate(pair) > 0.0
    for _ in range(25):
        a = rng.uniform(0.5, 2.0)
        pair = SpacetimePair(
            t=0.0, z=a * rng.uniform(0.05, 0.95), t_prime=0.0, z_prime=a * rng.uniform(0.05, 0.95)
        )
        assert correlator_dual_plate(pair, a).value > 0.0


def test_mean_squared_field_regimes():
    # perfect-reflector branch: 3/(16 pi^2 z^4) once omega_p z >= 1
    good = mean_squared_field(z=1.0, omega_p=2.0)
    assert good.regime == "perfect_reflector"
    assert good.value == pytest.approx(3.0 / (16.0 * math.pi**2), rel=1e-14, abs=0.0)
    # finite-reflectivity branch: sqrt(2) omega_p / (32 pi z^3)
    poor = mean_squared_field(z=1.0, omega_p=0.1)
    assert poor.regime == "finite_reflectivity"
    assert poor.value == pytest.approx(
        math.sqrt(2.0) * 0.1 / (32.0 * math.pi), rel=1e-14, abs=0.0
    )


def test_mean_squared_field_switch_is_hard():
    omega_p = 2.0
    at = mean_squared_field(z=0.5, omega_p=omega_p)  # omega_p z = 1 exactly
    below = mean_squared_field(z=0.5 * (1.0 - 1e-12), omega_p=omega_p)
    assert at.regime == "perfect_reflector"
    assert below.regime == "finite_reflectivity"


def test_mean_squared_field_validation():
    with pytest.raises(DomainError):
        mean_squared_field(z=0.0, omega_p=1.0)
    with pytest.raises(DomainError):
        mean_squared_field(z=1.0, omega_p=0.0)
