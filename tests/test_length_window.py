"""Lengths outside the window of casvolt.errors raise DomainError; inside it
every quantity is homogeneous in the lengths.

Scaling every length by 2^k and every inverse length by 2^-k scales each
value by an exact power of two (lambda^-2 for the variances and segment
squares, lambda^-4 for the correlators), as long as no intermediate leaves
the normal doubles. So inside the window the scaled value must equal the
unscaled one bit for bit."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casvolt import (
    DomainError,
    Particle,
    PathSegment,
    SpacetimePair,
    correlator_dual_plate,
    correlator_single_plate,
    enhancement_ratio,
    length_to_natural,
    minkowski_rms,
    one_plate_integral_smallv,
    rms_estimate_eV,
    rms_one_plate_smallv,
    variance_one_plate,
    variance_two_plate_exact,
    variance_two_plate_smallv,
)
from casvolt.cli import main
from casvolt.errors import _LENGTH_MAX, _LENGTH_MIN
from casvolt.units import CONSTANTS

ELECTRON = Particle.electron(speed=0.01)
# the unscaled lengths below lie in [0.002, 6]; 2^k with |k| <= 190 keeps
# them inside [1e-60, 1e60]
EXPONENTS = st.integers(-190, 190)
UNIT = st.floats(0.0, 1.0)


def _speed(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _one_plate(s, u1, u2, u3):
    v = _speed(1.1e-6, 0.98, u3)
    z0 = 0.2 + 0.8 * u1
    seg = PathSegment(z0 * s, z0 * (0.01 + 2.0 * u2) * s, v)
    return variance_one_plate(Particle.electron(speed=v), seg).variance_eV2


def _two_plate(s, u1, u2, u3):
    v = _speed(1e-3, 0.3, u3)
    z0 = 0.05 + 0.5 * u1
    seg = PathSegment(z0 * s, (0.02 + 0.4 * u2) * (1.0 - z0) * s, v)
    return variance_two_plate_exact(Particle.electron(speed=v), seg, s).variance_eV2


def _one_plate_smallv_integral(s, u1, u2, u3):
    z0 = 0.2 + 0.8 * u1
    return one_plate_integral_smallv(
        PathSegment(z0 * s, z0 * (0.01 + 2.0 * u2) * s, _speed(1e-6, 0.1, u3)))


def _rms_smallv(s, u1, u2, u3):
    return rms_one_plate_smallv(ELECTRON, (0.01 + u1) * s).variance_eV2


def _two_plate_smallv(s, u1, u2, u3):
    a = 0.5 + u1
    return variance_two_plate_smallv(ELECTRON, a * (0.05 + 0.9 * u2) * s, a * s).variance_eV2


def _single(s, u1, u2, u3):
    z, z_prime = 0.01 + u1, 0.01 + u2
    return correlator_single_plate(
        SpacetimePair(3.0 * u3 * (z + z_prime) * s, z * s, 0.0, z_prime * s))


def _dual(s, u1, u2, u3):
    pair = SpacetimePair(3.37 * u3 * s, (0.05 + 0.9 * u1) * s, 0.0, (0.05 + 0.9 * u2) * s)
    return correlator_dual_plate(pair, s).value


HOMOGENEOUS = {
    "variance_one_plate": (2, _one_plate),
    "variance_two_plate_exact": (2, _two_plate),
    "one_plate_integral_smallv": (2, _one_plate_smallv_integral),
    "rms_one_plate_smallv": (2, _rms_smallv),
    "variance_two_plate_smallv": (2, _two_plate_smallv),
    "correlator_single_plate": (4, _single),
    "correlator_dual_plate": (4, _dual),
}


@pytest.mark.parametrize("power, quantity", HOMOGENEOUS.values(), ids=HOMOGENEOUS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=EXPONENTS, u1=UNIT, u2=UNIT, u3=UNIT)
def test_values_scale_exactly_inside_the_window(power, quantity, k, u1, u2, u3):
    value = quantity(1.0, u1, u2, u3)
    assert value > 0.0
    assert quantity(2.0**k, u1, u2, u3) == math.ldexp(value, -power * k)


BELOW = math.nextafter(_LENGTH_MIN, 0.0)
ABOVE = math.nextafter(_LENGTH_MAX, math.inf)
SEG = PathSegment(0.3, 0.1, 0.01)
# every entry point that takes a length, refusing x in place of one of them
ENTRY_POINTS = {
    "PathSegment.z0": lambda x: PathSegment(x, 0.1, 0.01),
    "PathSegment.b": lambda x: PathSegment(0.3, x, 0.01),
    "SpacetimePair.z": lambda x: SpacetimePair(0.0, x, 0.0, 0.4),
    "SpacetimePair.z_prime": lambda x: SpacetimePair(0.0, 0.3, 0.0, x),
    "correlator_dual_plate.a": lambda x: correlator_dual_plate(
        SpacetimePair(0.0, 0.3, 0.0, 0.4), x),
    "variance_two_plate_exact.a": lambda x: variance_two_plate_exact(ELECTRON, SEG, x),
    "rms_one_plate_smallv.z0": lambda x: rms_one_plate_smallv(ELECTRON, x),
    "variance_two_plate_smallv.z0": lambda x: variance_two_plate_smallv(ELECTRON, x, 1.0),
    "variance_two_plate_smallv.a": lambda x: variance_two_plate_smallv(ELECTRON, 0.3, x),
}


@pytest.mark.parametrize("length", [BELOW, ABOVE, 0.0, -1.0], ids=["below", "above", "0", "-1"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_lengths_outside_the_window_raise(call, length):
    with pytest.raises(DomainError, match="must be positive and finite, in \\[1e-60, 1e\\+60\\]"):
        call(length)


@pytest.mark.parametrize("time", [-ABOVE, ABOVE], ids=["-above", "above"])
def test_times_past_the_window_raise(time):
    with pytest.raises(DomainError, match="event times must be finite, within 1e\\+60"):
        SpacetimePair(time, 0.3, 0.0, 0.4)


def test_window_edges_are_accepted():
    assert PathSegment(_LENGTH_MIN, _LENGTH_MAX, 0.5).b == _LENGTH_MAX
    assert SpacetimePair(-_LENGTH_MAX, _LENGTH_MIN, _LENGTH_MAX, _LENGTH_MAX).t == -_LENGTH_MAX


# each of these raised ZeroDivisionError or OverflowError, or returned nan,
# inf or a wrong finite value, before lengths were held to the window
FORMER_FAILURES = {
    "one plate at 1e-300": lambda: variance_one_plate(
        ELECTRON, PathSegment(1e-300, 1e-300, 0.01)),
    "one plate at 1e200": lambda: variance_one_plate(ELECTRON, PathSegment(1e200, 1e200, 0.01)),
    "one plate at 1e77": lambda: variance_one_plate(ELECTRON, PathSegment(1e77, 1e77, 0.01)),
    "one plate at 1e-80": lambda: variance_one_plate(ELECTRON, PathSegment(1e-80, 1e-80, 0.01)),
    "two plates, a = 1e200": lambda: variance_two_plate_exact(ELECTRON, SEG, 1e200),
    "single plate at 1e-100": lambda: correlator_single_plate(
        SpacetimePair(0.0, 1e-100, 0.0, 1e-100)),
    "single plate at 1e200": lambda: correlator_single_plate(
        SpacetimePair(0.0, 1e200, 0.0, 1e200)),
    "single plate, t = 1e200": lambda: correlator_single_plate(
        SpacetimePair(1e200, 1.0, 0.0, 1.0)),
    "dual plates at 1e-300": lambda: correlator_dual_plate(
        SpacetimePair(0.0, 1e-300, 0.0, 1e-300), 1.0),
    "two plates small-v, a = 1e-200": lambda: variance_two_plate_smallv(
        ELECTRON, 0.5e-200, 1e-200),
    "one plate small-v at 1e-310": lambda: rms_one_plate_smallv(ELECTRON, 1e-310),
}


@pytest.mark.parametrize("call", FORMER_FAILURES.values(), ids=FORMER_FAILURES)
def test_lengths_past_double_range_raise(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("argv", [
    ["variance", "--plates", "one", "--z0", "1e-300", "--b", "1e-300", "--speed", "0.01"],
    ["variance", "--plates", "one", "--z0", "1e200", "--b", "1e200", "--speed", "0.01"],
    ["correlator", "--plates", "single", "--z", "1e-100", "--z-prime", "1e-100"],
], ids=["variance-1e-300", "variance-1e200", "correlator-1e-100"])
def test_cli_refuses_lengths_outside_the_window(capsys, argv):
    # the 1e200 flight printed a nan spread and exited 0; the others ended
    # in a traceback
    code = main([*argv, "--natural-units"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "in [1e-60, 1e+60] 1/eV" in captured.err


# lengths in nm reach the window through units.length_to_natural: the first
# and last raised ZeroDivisionError, the second returned inf and the third
# two inf ratios
NM_FAILURES = {
    "minkowski_rms at 1e-200 nm": lambda: minkowski_rms(1.0, 1e-200),
    "rms_estimate_eV at 1e-320 nm": lambda: rms_estimate_eV(1.0, 1e-320),
    "enhancement_ratio, z0 = 1e-320 nm": lambda: enhancement_ratio(1.0, 1e-320, 10.0),
    "enhancement_ratio, a = 1e200 nm": lambda: enhancement_ratio(1.0, 10.0, 1e200),
}
NM_WINDOW = "length must be positive and finite, in \\[1.97327e-58, 1.97327e\\+62\\] nm"


@pytest.mark.parametrize("call", NM_FAILURES.values(), ids=NM_FAILURES)
def test_nm_lengths_past_the_window_raise(call):
    with pytest.raises(DomainError, match=NM_WINDOW):
        call()


def test_nm_window_is_the_natural_window():
    hbar_c = CONSTANTS.hbar_c_eV_nm
    for edge, outward in ((_LENGTH_MIN, -1.0), (_LENGTH_MAX, 1.0)):
        inside, outside = (edge * (1.0 + sign * 1e-12) * hbar_c for sign in (-outward, outward))
        assert length_to_natural(inside) == inside / hbar_c
        with pytest.raises(DomainError, match=NM_WINDOW):
            length_to_natural(outside)


@pytest.mark.parametrize("argv", [
    ["sweep", "--over", "d_C", "--values", "1e-300"],
    ["variance", "--plates", "one", "--z0", "1e-300", "--b", "10", "--kinetic-eV", "1"],
], ids=["sweep-d_C", "variance-z0"])
def test_cli_refuses_nm_lengths_outside_the_window(capsys, argv):
    # the cavity sweep printed an rms spread of 1.9e296 eV and exited 0
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "in [1.97327e-58, 1.97327e+62] nm" in captured.err
