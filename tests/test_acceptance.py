"""Acceptance gate: one test per shipped guarantee.

Each test below corresponds to one acceptance criterion; `pytest -v` prints
one pass/fail line per criterion, and all ten pass. Criterion 7 states the
one-plate small-speed asymptotics where they hold: well past the light-cone
pole entry the 1/v^2 lead term is off by O(v^2) and the small-speed form with
its O(v^0) term by O(v^4); from three pole entries to 0.1 z0 the integral
follows the leading level (1/z0^2 + 1/z1^2)/(8 v^2); at b = 2 v z0, just
below the pole entry, it peaks above twice the plateau 1/(4 z0^2 v^2), as
quadrature confirms; and long flights halve the plateau. A 60-digit mpmath
corner difference backs the closed form at the criterion's points.
"""
import math
import random
import time

import numpy as np
import pytest

from casvolt import (
    Particle,
    PathSegment,
    SingularityError,
    SpacetimePair,
    correlator_dual_plate,
    correlator_single_plate,
    csc_identity,
    enhancement_ratio,
    one_plate_integral,
    one_plate_integral_smallv,
    quad_one_plate,
    reflected_image_integral,
    rms_estimate_eV,
    rms_one_plate_smallv,
    run_verification,
    translated_image_integral,
    validity_window,
    variance_one_plate,
    variance_two_plate_exact,
    variance_two_plate_series_smallv,
    variance_two_plate_smallv,
    zeta_two_series,
)


@pytest.fixture(scope="module")
def verification():
    return run_verification(seed=12345, sets_per_family=50, grid_points=20)


def test_criterion_01_flight_rms_golden_and_fast():
    # electron accelerated through 1 eV, starting 100 nm from the mirror
    rms_estimate_eV(1.0, 100.0)
    timings = []
    for _ in range(7):
        start = time.perf_counter()
        value = rms_estimate_eV(1.0, 100.0)
        timings.append(time.perf_counter() - start)
    assert abs(value / 1.9e-4 - 1.0) <= 0.02
    assert min(timings) < 1e-3


def test_criterion_02_capacitor_spread_estimates():
    low = rms_estimate_eV(1e-4, 33.0) / 1e-4
    assert abs(low / 0.06 - 1.0) <= 0.05
    high = rms_estimate_eV(0.2, 33.0) / 0.2
    assert abs(high / 0.0013 - 1.0) <= 0.05


def test_criterion_03_enhancement_ratio():
    ratio = enhancement_ratio(kinetic_eV=1.0, z0_nm=100.0, a_nm=1.0)
    assert abs(ratio.formula_value / 1.9e4 - 1.0) <= 0.03
    direct = ratio.formula_value / math.sqrt(2.0)
    assert abs(ratio.quotient_value / direct - 1.0) <= 1e-10


def test_criterion_04_quadrature_agreement(verification):
    quad_checks = {
        check.name: check
        for check in verification.checks
        if check.name.startswith("quad_") and check.name.endswith("_vs_closed")
    }
    assert set(quad_checks) == {
        "quad_one_plate_vs_closed",
        "quad_reflected_vs_closed",
        "quad_translated_vs_closed",
    }
    for check in quad_checks.values():
        assert check.passed, check.detail
        assert check.worst <= 1e-7
    assert verification.elapsed_s < 60.0


def test_criterion_05_derivative_identities(verification):
    for name in ("deriv_reflection_identity", "deriv_translation_identity"):
        (check,) = [c for c in verification.checks if c.name == name]
        assert check.passed, check.detail
        assert check.worst <= 1e-6


def test_criterion_06_log_scale_invariance():
    # the scale ell inside the antiderivatives' logs cancels between the
    # corners: the squares match the 60-digit corner difference at any ell
    pytest.importorskip("mpmath")
    import mp_squares as mp

    seg = PathSegment(z0=1.0, b=0.05, v=0.01)
    image_seg = PathSegment(z0=0.3, b=0.01, v=0.005)
    z0, b, v = image_seg.z0, image_seg.b, image_seg.v
    for ell in (1.0, 7.3):
        reference = mp.one_plate(seg.z0, seg.b, seg.v, ell)
        assert abs(one_plate_integral(seg) / reference - 1.0) <= 1e-12
        for n in (-2, -1, 1, 2):
            reference = mp.reflected(z0, b, v, 1.0, n, ell)
            assert abs(reflected_image_integral(image_seg, a=1.0, n=n) / reference - 1.0) <= 1e-12
            reference = mp.translated(z0, b, v, 1.0, n, ell)
            assert abs(translated_image_integral(image_seg, a=1.0, n=n) / reference - 1.0) <= 1e-12


def _criterion_07_segments():
    """The one-plate segments of criterion 7: slope fit, level, peak, far."""
    z0 = 1.0
    slope = [PathSegment(z0=z0, b=0.05, v=float(v)) for v in np.geomspace(5e-4, 5e-3, 9)]
    v = 0.01
    pole = validity_window(PathSegment(z0=z0, b=0.1 * z0, v=v)).pole_entry
    level = [PathSegment(z0=z0, b=float(b), v=v) for b in np.linspace(3.0 * pole, 0.1 * z0, 9)]
    peak = PathSegment(z0=z0, b=2.0 * v * z0, v=v)
    far = PathSegment(z0=z0, b=1000.0 * z0, v=v)
    return slope, level, peak, far


def _leading_level(seg):
    z0, z1 = seg.z0, seg.z0 + seg.b
    return (z0 * z0 + z1 * z1) / (8.0 * z0 * z0 * z1 * z1 * seg.v * seg.v)


def test_criterion_07_small_speed_asymptotics():
    failures = []
    slope_segs, level_segs, peak, far_seg = _criterion_07_segments()
    # the expansion needs b well past the pole entry 2 v z0 / (1 - v)
    for seg in slope_segs:
        assert seg.b >= 2.0 * validity_window(seg).pole_entry, seg
    speeds = [seg.v for seg in slope_segs]
    lead_errors, full_errors = [], []
    for seg in slope_segs:
        exact = one_plate_integral(seg)
        lead_errors.append(abs(exact - _leading_level(seg)) / abs(exact))
        full_errors.append(abs(exact - one_plate_integral_smallv(seg)) / abs(exact))
    for form, errors, target in (
        ("lead term alone", lead_errors, 2.0),
        ("small-speed form with its O(v^0) term", full_errors, 4.0),
    ):
        slope = float(np.polyfit(np.log(speeds), np.log(errors), 1)[0])
        if not abs(slope - target) <= 0.2:
            failures.append(
                f"relative error of the {form} scales with log-log slope "
                f"{slope:.4f}, outside the asserted {target} +/- 0.2"
            )
    worst_dev = 0.0
    for seg in level_segs:
        value = one_plate_integral(seg)
        worst_dev = max(worst_dev, abs(value / _leading_level(seg) - 1.0))
    if worst_dev > 0.05:
        failures.append(
            f"from 3 pole entries to 0.1 z0 the exact integral deviates from the "
            f"leading level (1/z0^2 + 1/z1^2)/(8 v^2) by up to {worst_dev:.4f} (limit 0.05)"
        )
    # just below the pole entry the integral peaks; quadrature confirms the peak
    closed = one_plate_integral(peak)
    quad = quad_one_plate(peak)
    if not abs(closed - quad.value) <= quad.error_estimate:
        failures.append(
            f"pole peak at b = 2 v z0: closed form {closed!r} and quadrature "
            f"{quad.value!r} differ by more than its estimate {quad.error_estimate:.3e}"
        )
    plateau = 1.0 / (4.0 * peak.z0 * peak.z0 * peak.v * peak.v)
    if not closed > 2.0 * plateau:
        failures.append(
            f"pole peak at b = 2 v z0 is {closed / plateau:.4f} times the plateau "
            f"1/(4 z0^2 v^2), not above 2"
        )
    far = one_plate_integral(far_seg)
    far_rel = abs(far * 8.0 * far_seg.z0 * far_seg.z0 * far_seg.v * far_seg.v - 1.0)
    if far_rel > 0.01:
        failures.append(f"long-flight limit off by {far_rel:.2e} (limit 0.01)")
    if failures:
        pytest.fail("; ".join(failures))


def test_one_plate_integral_matches_mpmath_at_criterion_07_points():
    mpmath = pytest.importorskip("mpmath")
    slope_segs, level_segs, peak, far_seg = _criterion_07_segments()

    def antiderivative(z, z_prime, v):
        # the reflection antiderivative as written, continuous on the diagonal
        big_a = (1 + v) * z_prime + (v - 1) * z
        big_b = (1 + v) * z + (v - 1) * z_prime
        log_diff = 0 if z == z_prime else mpmath.log(big_a**2) - mpmath.log(big_b**2)
        num = 8 * v * z * z_prime + (1 - v * v) * (z * z - z_prime * z_prime) * log_diff
        return num / (128 * v**3 * (z * z_prime) ** 2)

    with mpmath.workdps(60):
        for seg in slope_segs + level_segs + [peak, far_seg]:
            # the same float corners as the closed form, taken exactly
            c0, c1, v = (mpmath.mpf(x) for x in (seg.z0, seg.z0 + seg.b, seg.v))
            reference = (
                antiderivative(c1, c1, v) - antiderivative(c1, c0, v)
                - antiderivative(c0, c1, v) + antiderivative(c0, c0, v)
            )
            rel = abs((one_plate_integral(seg) - reference) / reference)
            assert rel <= 1e-12, (seg, float(rel))


def test_criterion_08_two_plate_structure():
    particle = Particle.electron(speed=0.005)
    q2 = particle.charge_natural**2
    v = particle.speed_value
    # midpoint value collapses to q^2 v^2 / (3 a^2) with no rounding residue
    for a in (1.0, 0.7, 3.2):
        result = variance_two_plate_smallv(particle, a / 2.0, a)
        assert result.variance_eV2 == q2 * v * v / (3.0 * a * a)
    # mirror symmetry about the midplane is exact, not approximate
    rng = random.Random(8172635)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        z0 = rng.uniform(0.05, 0.45) * a
        left = variance_two_plate_smallv(particle, z0, a).variance_eV2
        right = variance_two_plate_smallv(particle, a - z0, a).variance_eV2
        assert left == right
    # close to one plate the second plate stops mattering
    a = 1.0
    near = variance_two_plate_smallv(particle, 1e-3 * a, a).variance_eV2
    one_plate_level = q2 * v * v / (4.0 * math.pi**2 * (1e-3 * a) ** 2)
    assert abs(near / one_plate_level - 1.0) <= 0.01
    z0 = a - 1e-3 * a
    far_wall = variance_two_plate_smallv(particle, z0, a).variance_eV2
    mirrored_level = q2 * v * v / (4.0 * math.pi**2 * (a - z0) ** 2)
    assert abs(far_wall / mirrored_level - 1.0) <= 0.01
    # the truncated image series lands within its certified tail bound
    for _ in range(10):
        z0 = rng.uniform(0.05, 0.95) * a
        series = variance_two_plate_series_smallv(particle, z0, a)
        closed = variance_two_plate_smallv(particle, z0, a)
        gap = abs(series.variance_eV2 - closed.variance_eV2)
        assert gap <= series.tail_estimate_eV2, (z0, gap, series.tail_estimate_eV2)


def test_criterion_09_series_identities():
    zeta = zeta_two_series()
    assert abs(zeta.series_value - zeta.closed_form) <= zeta.tail_bound
    for x in (0.25, 1.0 / 3.0, 0.5, 0.9):
        comparison = csc_identity(x)
        gap = abs(comparison.series_value - comparison.closed_form)
        assert gap <= comparison.tail_bound, (x, gap, comparison.tail_bound)


def test_criterion_10_positivity_and_monotonicity():
    rng = random.Random(97531)
    for _ in range(40):
        z = rng.uniform(0.1, 5.0)
        z_prime = rng.uniform(0.1, 5.0)
        dt = rng.uniform(-0.8, 0.8) * (z + z_prime)
        pair = SpacetimePair(t=dt, z=z, t_prime=0.0, z_prime=z_prime)
        assert correlator_single_plate(pair) > 0.0
    for _ in range(25):
        a = rng.uniform(0.5, 2.0)
        z = rng.uniform(0.05, 0.95) * a
        z_prime = rng.uniform(0.05, 0.95) * a
        pair = SpacetimePair(t=rng.uniform(-0.3, 0.3) * a, z=z, t_prime=0.0, z_prime=z_prime)
        assert correlator_dual_plate(pair, a).value > 0.0
    electron = Particle.electron
    for _ in range(25):
        particle = electron(speed=rng.uniform(1e-3, 0.3))
        z0 = rng.uniform(0.1, 10.0)
        b = z0 * 10.0 ** rng.uniform(-3.0, 1.0)
        try:
            result = variance_one_plate(particle, PathSegment(z0=z0, b=b, v=particle.speed_value))
        except SingularityError:
            continue
        assert result.variance_eV2 > 0.0
    for _ in range(10):
        particle = electron(speed=rng.uniform(1e-3, 0.05))
        a = rng.uniform(0.5, 2.0)
        z0 = rng.uniform(0.05, 0.8) * a
        b = rng.uniform(0.05, 0.9) * (a - z0)
        seg = PathSegment(z0=z0, b=b, v=particle.speed_value)
        try:
            result = variance_two_plate_exact(particle, seg, a)
        except SingularityError:
            continue
        assert result.variance_eV2 > 0.0
        assert variance_two_plate_smallv(particle, z0, a).variance_eV2 > 0.0
        assert variance_two_plate_series_smallv(particle, z0, a).variance_eV2 > 0.0
        assert rms_one_plate_smallv(particle, z0).rms_energy_eV > 0.0
    flights = np.geomspace(0.05, 100.0, 40)
    values = [one_plate_integral(PathSegment(z0=1.0, b=float(b), v=0.01)) for b in flights]
    assert all(x > y for x, y in zip(values, values[1:]))
