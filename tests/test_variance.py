"""Flight energy-fluctuation statistics."""
import math
import random
import sys
import warnings

import pytest

from casvolt import (
    CONSTANTS,
    ConvergenceError,
    DomainError,
    Particle,
    PathSegment,
    SummationControl,
    csc_identity,
    one_plate_integral,
    one_plate_integral_smallv,
    rms_one_plate_smallv,
    length_to_natural,
    validity_window,
    variance_one_plate,
    variance_two_plate_exact,
    variance_two_plate_series_smallv,
    variance_two_plate_smallv,
    zeta_two_series,
)
from casvolt.closed_forms import _SMALLV_MIN, _V_MAX, _V_MIN
from casvolt.variance import _CHARGE_MIN, _REFERENCE_FLOOR, _result

M_E = CONSTANTS.electron_mass_eV


def test_particle_requires_exactly_one_energy_input():
    with pytest.raises(DomainError):
        Particle(charge_e=1.0, mass_eV=M_E)
    with pytest.raises(DomainError):
        Particle(charge_e=1.0, mass_eV=M_E, kinetic_energy_eV=1.0, speed=0.01)
    with pytest.raises(DomainError):
        Particle(charge_e=1.0, mass_eV=M_E, speed=1.0)
    with pytest.raises(DomainError):
        Particle(charge_e=1.0, mass_eV=0.0, speed=0.01)


@pytest.mark.parametrize("kinetic, message", [
    (math.inf, "kinetic energy must be non-negative and finite, got inf eV"),
    (1e7, "speed 6.25612 >= 1"),
], ids=["infinite", "superluminal"])
def test_particle_refuses_an_unusable_kinetic_energy_at_construction(kinetic, message):
    # both constructed, and failed only when speed_value was read
    with pytest.raises(DomainError, match=message):
        Particle.electron(kinetic_energy_eV=kinetic)


def test_particle_electron_derives_speed():
    p = Particle.electron(kinetic_energy_eV=1.0)
    assert p.mass_eV == M_E
    assert p.speed_value == pytest.approx(math.sqrt(2.0 / M_E), rel=1e-14, abs=0.0)
    assert p.kinetic_eV == 1.0
    q = Particle.electron(speed=0.01)
    assert q.kinetic_eV == pytest.approx(0.5 * M_E * 1e-4, rel=1e-14, abs=0.0)


def test_segment_speed_must_match_particle():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    seg = PathSegment(1.0, 0.05, 0.02)
    with pytest.raises(DomainError):
        variance_one_plate(p, seg)


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_two_plate_separation_must_be_finite(a):
    # a = inf gave nan from the small-speed closed form
    particle = Particle.electron(speed=0.1)
    with pytest.raises(DomainError, match="positive and finite"):
        variance_two_plate_exact(particle, PathSegment(z0=0.3, b=0.1, v=0.1), a)
    for small_speed in (variance_two_plate_smallv, variance_two_plate_series_smallv):
        with pytest.raises(DomainError, match="positive and finite"):
            small_speed(particle, 0.3, a)


def test_one_plate_small_speed_start_must_be_finite():
    # z0 = inf gave a zero spread
    with pytest.raises(DomainError, match="positive and finite"):
        rms_one_plate_smallv(Particle.electron(speed=0.01), math.inf)


def test_variance_one_plate_golden():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    seg = PathSegment(1.0, 0.05, 0.01)
    result = variance_one_plate(p, seg)
    assert result.variance_eV2 == pytest.approx(2.3528784032353669e-07, rel=1e-12, abs=0.0)
    rms = math.sqrt(result.variance_eV2)
    assert result.rms_energy_eV == pytest.approx(rms, rel=1e-15, abs=0.0)
    assert result.rms_voltage_V == pytest.approx(result.rms_energy_eV, rel=1e-15, abs=0.0)
    assert "exact" in result.regime and "one_plate" in result.regime


def test_variance_scales_with_charge_squared():
    seg = PathSegment(1.0, 0.05, 0.01)
    single = variance_one_plate(Particle(charge_e=1.0, mass_eV=M_E, speed=0.01), seg)
    double = variance_one_plate(Particle(charge_e=2.0, mass_eV=M_E, speed=0.01), seg)
    assert double.variance_eV2 == pytest.approx(4.0 * single.variance_eV2, rel=1e-14, abs=0.0)
    # rms voltage is energy spread per unit charge: doubles once, not twice
    assert double.rms_voltage_V == pytest.approx(single.rms_voltage_V, rel=1e-14, abs=0.0)


def test_neutral_particle_zero_with_flag():
    p = Particle(charge_e=0.0, mass_eV=M_E, speed=0.01)
    result = variance_one_plate(p, PathSegment(1.0, 0.05, 0.01))
    assert result.variance_eV2 == 0.0
    assert result.rms_voltage_V == 0.0
    assert "neutral" in result.regime


def test_rms_one_plate_smallv_golden():
    # Delta U_rms = e v / (2 pi z0): 1 eV electron at 100 nm gives 1.88e-4 eV
    p = Particle.electron(kinetic_energy_eV=1.0)
    result = rms_one_plate_smallv(p, length_to_natural(100.0))
    assert result.rms_energy_eV == pytest.approx(1.88147820861e-4, rel=1e-11, abs=0.0)
    assert "small_v" in result.regime


def test_rms_one_plate_smallv_warns_at_large_speed():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.2)
    with pytest.warns(UserWarning):
        rms_one_plate_smallv(p, 1.0)


SMALL_SPEED_FORMS = {
    "one_plate_integral_smallv": lambda v: one_plate_integral_smallv(PathSegment(1.0, 0.5, v)),
    "rms_one_plate_smallv": lambda v: rms_one_plate_smallv(Particle.electron(speed=v), 1.0),
    "variance_two_plate_smallv":
        lambda v: variance_two_plate_smallv(Particle.electron(speed=v), 0.3, 1.0),
}


@pytest.mark.parametrize("form", sorted(SMALL_SPEED_FORMS))
@pytest.mark.parametrize("speed, warns", [(0.1, False), (0.1000001, True)])
def test_small_speed_forms_share_the_warning_edge(form, speed, warns):
    # one_plate_integral_smallv warned at v = 0.1 and the other two did not;
    # all three give one text, attributed to the line that called the form
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SMALL_SPEED_FORMS[form](speed)
    if warns:
        assert [str(w.message) for w in caught] == [
            f"small-v formula evaluated at v={speed}: accuracy degrades above v ~ 0.1"]
        assert caught[0].category is UserWarning
        assert caught[0].filename == __file__
    else:
        assert caught == []


# every small-v form at speed v, its lengths a multiple of the scale L
FLOOR_FORMS = {
    "one_plate_integral_smallv": lambda v, L: one_plate_integral_smallv(PathSegment(L, L, v)),
    "rms_one_plate_smallv":
        lambda v, L: rms_one_plate_smallv(Particle.electron(speed=v), 3.0 * L).variance_eV2,
    "variance_two_plate_smallv":
        lambda v, L: variance_two_plate_smallv(Particle.electron(speed=v), L, 3.0 * L).variance_eV2,
    # the oracle's series returned 0.0 with tail 0.0 at v = 1e-200
    "variance_two_plate_series_smallv": lambda v, L: variance_two_plate_series_smallv(
        Particle.electron(speed=v), L, 3.0 * L).variance_eV2,
}


@pytest.mark.parametrize("speed", [1e-200, math.nextafter(_SMALLV_MIN, 0.0)],
                         ids=["1e-200", "below"])
@pytest.mark.parametrize("form", FLOOR_FORMS.values(), ids=FLOOR_FORMS)
def test_small_speed_forms_refuse_below_the_floor(form, speed):
    # at 1e-200 the segment form raised ZeroDivisionError and the two
    # variances returned 0.0 for a charged electron
    with pytest.raises(DomainError, match="below 1e-22, the least the small-v forms evaluate"):
        form(speed, 1.0)


@pytest.mark.parametrize("scale", [1e-60, 1.0, 3e59])
@pytest.mark.parametrize("form", FLOOR_FORMS.values(), ids=FLOOR_FORMS)
def test_small_speed_forms_stay_normal_just_above_the_floor(form, scale):
    # lengths at either edge of the window, where the forms' products of v^2
    # and lengths lie nearest the ends of the doubles
    for speed in (_SMALLV_MIN, math.nextafter(_SMALLV_MIN, 1.0)):
        assert sys.float_info.min <= form(speed, scale) < math.inf


@pytest.mark.parametrize("charge", [1e-200, math.nextafter(_CHARGE_MIN, 0.0), 5e-324])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_particle_refuses_a_charge_below_the_floor(charge, sign):
    # rms_one_plate_smallv gave variance 0.0 at charge_e = 1e-200, unflagged
    with pytest.raises(DomainError) as excinfo:
        Particle(charge_e=sign * charge, mass_eV=M_E, speed=0.01)
    assert str(excinfo.value) == (
        f"particle charge must be 0 or at least 1e-58 in magnitude, got {sign * charge!r}")


@pytest.mark.parametrize("charge", [_CHARGE_MIN, -_CHARGE_MIN])
def test_small_speed_variances_stay_normal_at_the_charge_floor(charge):
    # the least charge at the least speed, with lengths at the window's upper
    # edge: the least variances the package forms
    particle = Particle(charge_e=charge, mass_eV=M_E, speed=_SMALLV_MIN)
    scale = 3e59
    for result in (rms_one_plate_smallv(particle, 3.0 * scale),
                   variance_two_plate_smallv(particle, scale, 3.0 * scale),
                   variance_two_plate_series_smallv(particle, scale, 3.0 * scale)):
        assert sys.float_info.min <= result.variance_eV2 < math.inf
        assert "neutral" not in result.regime


def test_charged_variance_below_the_normal_doubles_refuses():
    # the length window bounds each length, not their ratios: a flight of
    # 1e-57 at z0 = 5e59 gave an electron variance 0.0, unflagged
    v = 1.0000001e-6
    seg = PathSegment(z0=5e59, b=1e-57, v=v)
    with pytest.raises(DomainError, match=r"^variance underflows: 0\.0 eV\^2 lies below "):
        variance_one_plate(Particle.electron(speed=v), seg)
    neutral = variance_one_plate(Particle(charge_e=0.0, mass_eV=M_E, speed=v), seg)
    assert neutral.variance_eV2 == 0.0 and "neutral" in neutral.regime


@pytest.mark.parametrize("charge", [1.0, -1.0])
def test_result_refuses_exactly_below_the_least_normal_double(charge):
    least = sys.float_info.min
    assert _result(least, charge, ("exact",)).variance_eV2 == least
    for variance in (math.nextafter(least, 0.0), 5e-324, 0.0):
        with pytest.raises(DomainError, match="variance underflows"):
            _result(variance, charge, ("exact",))


def test_validity_window():
    seg = PathSegment(1.0, 0.05, 0.01)
    report = validity_window(seg)
    assert report.lower_bound == pytest.approx(2.0 * 0.01 / math.sqrt(3.0), rel=1e-12, abs=0.0)
    assert report.pole_entry == pytest.approx(0.0202020202, rel=1e-9, abs=0.0)
    assert report.inside and not report.below_window
    short = validity_window(PathSegment(1.0, 0.005, 0.01))
    assert short.below_window and not short.inside
    long = validity_window(PathSegment(1.0, 2.0, 0.01))
    assert not long.inside


def test_below_window_flagged_in_results():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    result = variance_one_plate(p, PathSegment(1.0, 0.005, 0.01))
    assert "below_window" in result.regime


# (z0, b, v) at each (below_window, beyond_window): both at once need
# z0 < b < 2 v z0 / sqrt(3), so v > sqrt(3) / 2
_WINDOW_EDGES = {
    (False, False): (1.0, 0.05, 0.01),
    (True, False): (1.0, 0.005, 0.01),
    (False, True): (0.3, 0.4, 0.01),
    (True, True): (0.3, 0.31, 0.9),
}


@pytest.mark.parametrize("edges", sorted(_WINDOW_EDGES),
                         ids=lambda edges: f"below={edges[0]}-beyond={edges[1]}")
@pytest.mark.parametrize("charge", [1.0, 0.0], ids=["charged", "neutral"])
@pytest.mark.parametrize("plates", ["one_plate", "two_plate"])
def test_exact_regime_flags_follow_the_window_edges(plates, charge, edges):
    z0, b, v = _WINDOW_EDGES[edges]
    seg = PathSegment(z0, b, v)
    report = validity_window(seg)
    assert (report.below_window, report.b > report.upper_bound) == edges
    expected = ["exact", plates]
    if report.b < report.lower_bound:
        expected.append("below_window")
    if report.b > report.upper_bound:
        expected.append("beyond_window")
    if charge == 0.0:
        expected.append("neutral")
    particle = Particle(charge_e=charge, mass_eV=M_E, speed=v)
    if plates == "one_plate":
        result = variance_one_plate(particle, seg)
    else:
        result = variance_two_plate_exact(particle, seg, 2.0 * (z0 + b))
    assert result.regime == tuple(expected)


def test_variance_two_plate_exact_golden():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    result = variance_two_plate_exact(p, PathSegment(0.3, 0.005, 0.005), 1.0)
    ratio = result.variance_eV2 / p.charge_natural**2
    assert ratio == pytest.approx(9.3252416830100971e-06, rel=1e-9, abs=0.0)
    assert result.terms_used > 0
    assert result.tail_estimate_eV2 <= 1.1e-10 * result.variance_eV2


def test_variance_two_plate_truncation_certified():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    seg = PathSegment(0.3, 0.005, 0.005)
    loose = variance_two_plate_exact(p, seg, 1.0, SummationControl(tol=1e-6))
    tight = variance_two_plate_exact(p, seg, 1.0, SummationControl(tol=1e-13))
    assert abs(loose.variance_eV2 - tight.variance_eV2) <= loose.tail_estimate_eV2


def test_variance_two_plate_mirror_symmetry():
    # starting z0 from either plate with the same flight gives the same spread
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    left = variance_two_plate_exact(p, PathSegment(0.2, 0.05, 0.01), 1.0)
    right = variance_two_plate_exact(p, PathSegment(0.75, 0.05, 0.01), 1.0)
    assert left.variance_eV2 == pytest.approx(6.3224835678640e-06, rel=1e-9, abs=0.0)
    # each side is certified to its own tail, and the two remainders after
    # the subtracted analytic tail differ, so they agree within both tails
    assert abs(right.variance_eV2 - left.variance_eV2) <= (
        left.tail_estimate_eV2 + right.tail_estimate_eV2)
    tight = SummationControl(tol=1e-13)
    left = variance_two_plate_exact(p, PathSegment(0.2, 0.05, 0.01), 1.0, tight)
    right = variance_two_plate_exact(p, PathSegment(0.75, 0.05, 0.01), 1.0, tight)
    assert right.variance_eV2 == pytest.approx(left.variance_eV2, rel=1e-12, abs=0.0)


def test_variance_two_plate_requires_flight_between_plates():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    with pytest.raises(DomainError):
        variance_two_plate_exact(p, PathSegment(0.7, 0.4, 0.01), 1.0)
    with pytest.raises(ConvergenceError):
        variance_two_plate_exact(
            p, PathSegment(0.3, 0.005, 0.01), 1.0, SummationControl(n_max=1)
        )


@pytest.mark.parametrize("v, n_max", [(1e-320, 10**6), (1e-7, 10**6), (1e-7, 10**8)])
def test_variance_two_plate_checks_the_speed_before_using_it(v, n_max):
    # the reference index was formed from b/v before the speed was checked:
    # at 1e-320 math.ceil overflowed, and at 1e-7 the default n_max refused
    # with ConvergenceError; a neutral particle still returns zero
    seg, control = PathSegment(0.3, 0.1, v), SummationControl(n_max=n_max)
    with pytest.raises(DomainError, match=rf"speed v={v!r} outside the supported range"):
        variance_two_plate_exact(Particle(charge_e=1.0, mass_eV=M_E, speed=v), seg, 1.0, control)
    neutral = variance_two_plate_exact(Particle(charge_e=0.0, mass_eV=M_E, speed=v), seg, 1.0)
    assert neutral.variance_eV2 == 0.0 and "neutral" in neutral.regime


_EDGES = pytest.mark.parametrize("edge, inward", [(_V_MIN, 1.0), (_V_MAX, 0.0)],
                                 ids=["v_min", "v_max"])
# a short flight: at the float above _V_MIN its two-plate sum takes one block
# of 10,003 pairs, E = n_U + n_U // 4 + 2 with n_U = 8,001
_EDGE_FLIGHT = {"z0": 0.3, "b": 0.008}


@_EDGES
def test_exact_forms_refuse_the_speed_limits(edge, inward):
    # the supported speeds (_V_MIN, _V_MAX) are open at both ends
    seg = PathSegment(v=edge, **_EDGE_FLIGHT)
    with pytest.raises(DomainError, match=rf"speed v={edge!r} outside the supported range"):
        one_plate_integral(seg)
    with pytest.raises(DomainError, match=rf"speed v={edge!r} outside the supported range"):
        variance_two_plate_exact(Particle(charge_e=1.0, mass_eV=M_E, speed=edge), seg, 1.0)


@_EDGES
def test_exact_forms_evaluate_just_inside_the_speed_limits(edge, inward):
    v = math.nextafter(edge, inward)
    seg = PathSegment(v=v, **_EDGE_FLIGHT)
    assert 0.0 < one_plate_integral(seg) < math.inf
    result = variance_two_plate_exact(Particle(charge_e=1.0, mass_eV=M_E, speed=v), seg, 1.0)
    assert 0.0 < result.variance_eV2 < math.inf
    assert result.tail_estimate_eV2 <= SummationControl().tol * result.variance_eV2
    assert result.terms_used == (10_003 if edge == _V_MIN else _REFERENCE_FLOOR)


def test_variance_two_plate_smallv_golden():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    result = variance_two_plate_smallv(p, 0.3, 1.0)
    assert result.variance_eV2 == pytest.approx(1.0667131362055282e-06, rel=1e-12, abs=0.0)
    # and against the formula written out
    q, v, a, z0 = p.charge_natural, 0.005, 1.0, 0.3
    expected = q * q * v * v / (12.0 * a * a) * (
        1.0 + 3.0 / math.sin(math.pi * z0 / a) ** 2
    )
    assert result.variance_eV2 == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_variance_two_plate_smallv_midpoint_exact():
    # at z0 = a/2 the closed form collapses to q^2 v^2 / (3 a^2)
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    a = 0.8
    result = variance_two_plate_smallv(p, 0.4, a)
    q = p.charge_natural
    assert result.variance_eV2 == pytest.approx(
        q * q * 0.005**2 / (3.0 * a * a), rel=1e-15, abs=0.0
    )


def test_variance_two_plate_smallv_symmetry_exact():
    # from a/32 on, z0 and a - z0 fold to the same near distance, so give
    # bitwise-identical results by construction
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    mirrored = variance_two_plate_smallv(p, 0.79, 1.0).variance_eV2
    assert variance_two_plate_smallv(p, 1.0 - 0.79, 1.0).variance_eV2 == mirrored
    assert variance_two_plate_smallv(p, 0.21, 1.0).variance_eV2 == mirrored
    for z0 in (1.0 / 32.0, 0.05):
        assert (variance_two_plate_smallv(p, z0, 1.0).variance_eV2
                == variance_two_plate_smallv(p, 1.0 - z0, 1.0).variance_eV2)


def _smallv_reference(p, z0, a):
    """(q^2 v^2 / 12 a^2) [1 + 3 csc^2(pi z0 / a)] in 50-digit mpmath at the
    same float inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        q, v, z0_mp, a_mp = (mpmath.mpf(x) for x in (p.charge_natural, p.speed_value, z0, a))
        csc2 = 1 / mpmath.sin(mpmath.pi * z0_mp / a_mp) ** 2
        return q * q * v * v / (12 * a_mp * a_mp) * (1 + 3 * csc2)


@pytest.mark.parametrize("z0, a", [
    (1e-17, 1.0), (1e-15, 1.0), (1e-12, 1.0), (1e-9, 1.0), (1e-60, 1.0), (1e-60, 1e60),
    (0.3, 1.0), (0.5, 1.0), (0.7, 1.0), (1.0 - 1e-9, 1.0),
])
def test_variance_two_plate_smallv_near_a_plate_matches_mpmath(z0, a):
    # below a/32 the sine takes z0 itself, so a z0 far below a keeps its
    # relative precision: within 1e-14 of 50-digit mpmath, where folding
    # through a - z0 refused z0/a = 1e-17 and was off by 1.6e-3 at 1e-15
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    expected = _smallv_reference(p, z0, a)
    assert abs(variance_two_plate_smallv(p, z0, a).variance_eV2 - expected) <= 1e-14 * expected


def test_variance_two_plate_smallv_either_side_of_the_fold_matches_mpmath():
    # the fold through a - z0 costs up to 2 u a / z0 of csc^2, 64 u at a/32
    # where it starts; z0/a log-uniform over [1/128, 1/8]
    rng = random.Random(2718)
    for _ in range(300):
        a = rng.uniform(0.5, 2.0)
        z0 = a * 2.0 ** rng.uniform(-7.0, -3.0)
        p = Particle(charge_e=1.0, mass_eV=M_E, speed=10.0 ** rng.uniform(-3.0, -1.1))
        expected = _smallv_reference(p, z0, a)
        assert abs(variance_two_plate_smallv(p, z0, a).variance_eV2 - expected) <= 1e-14 * expected


def test_variance_two_plate_smallv_validation():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    with pytest.raises(DomainError):
        variance_two_plate_smallv(p, 0.0, 1.0)
    with pytest.raises(DomainError):
        variance_two_plate_smallv(p, 1.0, 1.0)


def test_series_smallv_matches_closed_within_tail():
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.01)
    q2v2 = p.charge_natural**2 * 0.01**2
    rng = random.Random(314159)
    for _ in range(10):
        z0 = rng.uniform(0.05, 0.95)
        closed = variance_two_plate_smallv(p, z0, 1.0).variance_eV2
        series = variance_two_plate_series_smallv(p, z0, 1.0)
        assert abs(series.variance_eV2 - closed) <= series.tail_estimate_eV2
        assert series.terms_used == 10000
        # the csc_identity and zeta_two_series integral-test bounds at N
        tail = q2v2 / (4.0 * math.pi**2) * (1.0 / (10000 - z0) + 1.0 / (10000 + z0) + 2.0 / 10000)
        assert series.tail_estimate_eV2 == pytest.approx(tail, rel=1e-14, abs=0.0)


def test_smallv_needs_short_flights():
    # at b = 0.01 the dropped image terms are log-enhanced: the closed
    # small-v form undershoots the exact sum by ~12%, far beyond the naive
    # v^2 residual scale, so short-flight validity must be respected
    p = Particle(charge_e=1.0, mass_eV=M_E, speed=0.005)
    exact = variance_two_plate_exact(p, PathSegment(0.3, 0.01, 0.005), 1.0)
    closed = variance_two_plate_smallv(p, 0.3, 1.0)
    rel = abs(exact.variance_eV2 - closed.variance_eV2) / exact.variance_eV2
    assert 0.10 < rel < 0.13


def test_csc_identity_values():
    quarter = csc_identity(0.25)
    assert quarter.closed_form == pytest.approx(2.0 * math.pi**2 - 16.0, rel=1e-14, abs=0.0)
    assert abs(quarter.series_value - quarter.closed_form) <= quarter.tail_bound
    half = csc_identity(0.5)
    assert half.closed_form == pytest.approx(math.pi**2 - 4.0, rel=1e-14, abs=0.0)
    assert abs(half.series_value - half.closed_form) <= half.tail_bound


def test_csc_identity_validation():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            csc_identity(bad)


def test_zeta_two_series():
    result = zeta_two_series()
    assert result.closed_form == pytest.approx(math.pi**2 / 3.0, rel=1e-15, abs=0.0)
    assert abs(result.series_value - result.closed_form) <= result.tail_bound
    assert result.tail_bound == pytest.approx(2e-4, rel=1e-15, abs=0.0)
