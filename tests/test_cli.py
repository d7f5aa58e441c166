"""End-to-end checks of the command-line interface (in-process)."""
import contextlib
import csv
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casvolt import (
    ConvergenceError,
    Particle,
    PoleInsideDomainError,
    SingularityError,
    PathSegment,
    CONSTANTS,
    DEFAULT_SCENARIO,
    SpacetimePair,
    correlator_dual_plate,
    correlator_single_plate,
    length_to_natural,
    variance_one_plate,
)
import casvolt.cli as cli
from casvolt.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _sig9(value: float) -> float:
    return float(f"{value:.8e}")


def test_variance_csv_matches_api(capsys):
    code, out, err = _run(
        capsys,
        "variance", "--plates", "one", "--z0", "100", "--b", "10",
        "--kinetic-eV", "1",
    )
    assert code == 0 and err == ""
    (row,) = _rows(out)
    assert row["plates"] == "one" and row["mode"] == "exact"
    particle = Particle.electron(kinetic_energy_eV=1.0)
    seg = PathSegment(
        z0=length_to_natural(100.0), b=length_to_natural(10.0), v=particle.speed_value
    )
    expected = variance_one_plate(particle, seg)
    assert float(row["variance_eV2"]) == _sig9(expected.variance_eV2)
    assert float(row["rms_energy_eV"]) == _sig9(expected.rms_energy_eV)
    assert float(row["rms_voltage_V"]) == _sig9(expected.rms_voltage_V)
    assert row["regime"] == "+".join(expected.regime)


def test_csv_and_json_report_identical_numbers(capsys):
    argv = [
        "variance", "--plates", "one", "--z0", "100", "--b", "10",
        "--kinetic-eV", "1",
    ]
    code, out_csv, _ = _run(capsys, *argv)
    assert code == 0
    code, out_json, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    assert payload["command"] == "variance"
    (json_row,) = payload["rows"]
    (csv_row,) = _rows(out_csv)
    for key in ("variance_eV2", "rms_energy_eV", "rms_voltage_V", "speed_c"):
        assert float(csv_row[key]) == json_row[key]


def test_natural_units_rename_length_columns(capsys):
    code, out, _ = _run(
        capsys,
        "variance", "--plates", "one", "--z0", "1", "--b", "0.1",
        "--speed", "0.01", "--natural-units",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "z0_inv_eV" in header and "b_inv_eV" in header
    assert not any(name.endswith("_nm") for name in header)


def test_correlator_single_equal_time_golden(capsys):
    code, out, _ = _run(
        capsys,
        "correlator", "--plates", "single", "--z", "1", "--z-prime", "1",
        "--natural-units",
    )
    assert code == 0
    (row,) = _rows(out)
    assert float(row["correlator_eV4"]) == _sig9(1.0 / (16.0 * math.pi**2))


def test_correlator_dual_matches_api(capsys):
    code, out, _ = _run(
        capsys,
        "correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4",
        "--a", "1", "--natural-units",
    )
    assert code == 0
    (row,) = _rows(out)
    pair = SpacetimePair(t=0.0, z=0.3, t_prime=0.0, z_prime=0.4)
    expected = correlator_dual_plate(pair, 1.0)
    assert float(row["correlator_eV4"]) == _sig9(expected.value)
    assert int(row["terms_used"]) == expected.terms_used


@pytest.mark.parametrize("flag", [("--n-max", "5"), ("--tol", "1e-6")])
def test_correlator_takes_no_summation_flags(capsys, flag):
    # the dual correlator truncates nothing, so argparse refuses these
    with pytest.raises(SystemExit) as excinfo:
        main([
            "correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4",
            "--a", "1", "--natural-units", *flag,
        ])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_correlator_light_like_image_exits_two(capsys):
    # t = 3.3 puts the n = 2 image of z + z' = 0.7 on the light cone
    code, out, err = _run(
        capsys,
        "correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4",
        "--t", "3.3", "--a", "1", "--natural-units",
    )
    assert code == 2 and out == ""
    assert "(t-t')^2 ~ (z+z'-2an), n=2^2" in err


def test_correlator_dual_without_separation_fails(capsys):
    code, _, err = _run(
        capsys,
        "correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4",
        "--natural-units",
    )
    assert code == 2
    assert "--a" in err


@pytest.mark.parametrize("plates", ["single", "dual"])
@pytest.mark.parametrize("times", [(), ("--t", "-3.5", "--t-prime", "1.25")])
def test_correlator_lab_units_accept_zero_and_negative_times(capsys, plates, times):
    # c*t is a signed time in nm: t = 0 (the default) and t < 0 convert by
    # 1/(hbar c) like lengths but are not refused as non-positive lengths
    geometry = ("--a", "50") if plates == "dual" else ()
    code, out, err = _run(
        capsys,
        "correlator", "--plates", plates, "--z", "10", "--z-prime", "20", *times, *geometry,
    )
    assert code == 0, err
    (row,) = _rows(out)
    t, t_prime = (float(value) for value in times[1::2]) if times else (0.0, 0.0)
    assert (float(row["t_nm"]), float(row["t_prime_nm"])) == (t, t_prime)
    hbar_c = CONSTANTS.hbar_c_eV_nm
    pair = SpacetimePair(t=t / hbar_c, z=length_to_natural(10.0), t_prime=t_prime / hbar_c,
                         z_prime=length_to_natural(20.0))
    if plates == "single":
        expected = correlator_single_plate(pair)
    else:
        expected = correlator_dual_plate(pair, length_to_natural(50.0)).value
    assert float(row["correlator_eV4"]) == _sig9(expected)


@pytest.mark.parametrize("argv", [
    ("--plates", "single", "--z", "1", "--z-prime", "2", "--t", "nan"),
    ("--plates", "single", "--z", "1", "--z-prime", "2", "--t", "inf"),
    ("--plates", "dual", "--a", "1", "--z", "0.3", "--z-prime", "0.4", "--t", "inf"),
], ids=["single-nan", "single-inf", "dual-inf"])
def test_correlator_non_finite_time_exits_two(capsys, argv):
    # these printed nan, printed 0.0, and exited 3, all at natural units
    code, out, err = _run(capsys, "correlator", *argv, "--natural-units")
    assert code == 2 and out == ""
    assert "event times must be finite" in err


@pytest.mark.parametrize("lengths", [("--plates", "one", "--z0", "inf"),
                                     ("--plates", "two", "--z0", "0.3", "--a", "inf")],
                         ids=["one-z0", "two-a"])
def test_small_speed_variance_infinite_length_exits_two(capsys, lengths):
    # these printed a zero and a nan spread and exited 0
    code, out, err = _run(capsys, "variance", "--mode", "small-v", *lengths,
                          "--speed", "0.01", "--natural-units")
    assert code == 2 and out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("argv", [
    ("variance", "--plates", "one", "--z0", "inf", "--b", "10", "--kinetic-eV", "1"),
    ("correlator", "--plates", "dual", "--a", "nan", "--z", "10", "--z-prime", "20"),
    ("sweep", "--over", "d_C", "--values", "inf"),
], ids=["variance-z0", "correlator-a", "sweep-d_C"])
def test_lab_unit_non_finite_length_exits_two(capsys, argv):
    # the cavity sweep printed a zero spread and exited 0
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "length must be positive and finite" in err


@pytest.mark.parametrize("particle, message", [
    (("--charge-e", "nan"), "particle charge must be finite"),
    (("--charge-e", "inf"), "particle charge must be finite"),
    (("--mass-eV", "inf"), "particle mass must be positive and finite"),
], ids=["charge-nan", "charge-inf", "mass-inf"])
def test_non_finite_particle_exits_two(capsys, particle, message):
    # these printed a nan or infinite spread, or an infinite kinetic energy,
    # and exited 0
    code, out, err = _run(capsys, "variance", "--plates", "two", "--z0", "0.3", "--b", "0.1",
                          "--a", "1", "--natural-units", "--speed", "0.01", *particle)
    assert code == 2 and out == ""
    assert message in err


def test_charge_below_the_floor_exits_two(capsys):
    # this printed a zero spread and exited 0
    code, out, err = _run(capsys, "variance", "--plates", "one", "--mode", "small-v",
                          "--z0", "100", "--kinetic-eV", "1", "--charge-e", "1e-200")
    assert code == 2 and out == ""
    assert "particle charge must be 0 or at least 1e-58 in magnitude, got 1e-200" in err


def test_underflowing_variance_exits_two(capsys):
    # this printed a zero variance and exited 0
    code, out, err = _run(capsys, "variance", "--plates", "one", "--z0", "5e59", "--b", "1e-57",
                          "--speed", "1.0000001e-6", "--natural-units")
    assert code == 2 and out == ""
    assert "variance underflows: 0.0 eV^2 lies below the least normal double" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("variance", "--plates", "one", "--z0", "100", "--b", "10", "--kinetic-eV", "inf"),
     "kinetic energy must be non-negative and finite"),
    (("variance", "--plates", "one", "--z0", "100", "--b", "10", "--kinetic-eV", "1e7"),
     "speed 6.25612 >= 1"),
    (("sweep", "--over", "K", "--values", "1,1e7", "--plates", "one", "--z0", "100",
      "--b", "10"), "sweep value K=10000000.0: speed 6.25612 >= 1"),
], ids=["variance-inf", "variance-superluminal", "sweep-superluminal"])
def test_unusable_kinetic_energy_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


# each refusal of a check that a per-call path makes with one inline
# comparison, reached from the command line; the CI workflow runs the same
# commands as subprocesses
@pytest.mark.parametrize("argv, message", [
    ("variance --plates two --mode small-v --z0 0.3 --a inf --speed 0.01 --natural-units",
     "plate separation a must be positive and finite, in [1e-60, 1e+60] 1/eV, got inf"),
    ("variance --plates one --mode small-v --z0 0.3 --speed 1e-23 --natural-units",
     "speed v=1e-23 below 1e-22, the least the small-v forms evaluate"),
    ("variance --plates one --mode small-v --z0 1e-61 --speed 0.01 --natural-units",
     "starting distance z0 must be positive and finite, in [1e-60, 1e+60] 1/eV, got 1e-61"),
    ("correlator --plates dual --z 0.3 --z-prime 0.4 --a nan --natural-units",
     "plate separation a must be positive and finite, in [1e-60, 1e+60] 1/eV, got nan"),
    ("sweep --over d_C --values 10 --voltage nan",
     "sweep value d_C=10.0: kinetic energy must be positive and finite, got nan"),
    ("variance --plates one --z0 100 --b 10 --kinetic-eV nan",
     "kinetic energy must be positive, got nan"),
    ("variance --plates one --z0 100 --b 10 --kinetic-eV 1 --mass-eV 0",
     "particle mass must be positive and finite, got 0.0"),
], ids=["two-smallv-a", "one-smallv-speed", "one-smallv-z0", "dual-a", "sweep-d_C-voltage",
        "kinetic-nan", "mass-0"])
def test_inline_check_refusals_exit_two(capsys, argv, message):
    code, out, err = _run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_sweep_values_emitted_in_ascending_order(capsys):
    code, out, _ = _run(
        capsys,
        "sweep", "--over", "b", "--values", "10,5,20", "--plates", "one",
        "--z0", "100", "--kinetic-eV", "1",
    )
    assert code == 0
    swept = [float(row["b_nm"]) for row in _rows(out)]
    assert swept == [5.0, 10.0, 20.0]


def test_sweep_jobs_do_not_change_output(capsys):
    argv = [
        "sweep", "--over", "z0", "--start", "50", "--stop", "400", "--count", "8",
        "--spacing", "log", "--plates", "one", "--b", "10", "--kinetic-eV", "1",
    ]
    code, serial, _ = _run(capsys, *argv)
    assert code == 0
    code, threaded, _ = _run(capsys, *argv, "--jobs", "4")
    assert code == 0
    assert threaded == serial


def test_sweep_speed_conflict_fails(capsys):
    code, _, err = _run(
        capsys,
        "sweep", "--over", "v", "--values", "0.01,0.02", "--plates", "one",
        "--z0", "1", "--b", "0.1", "--speed", "0.05", "--natural-units",
    )
    assert code == 2
    assert "sweep value v=" in err


@pytest.mark.parametrize("error", [
    SingularityError("corner on the locus", factor=1e-13, threshold=1e-11),
    PoleInsideDomainError("pole inside the square", threshold=0.25),
    ConvergenceError("not certified"),
])
def test_sweep_error_keeps_class_and_attributes(monkeypatch, error):
    # the second point's row raises: the sweep re-raises that very error,
    # its attributes untouched, with the failing value before its message
    attributes = dict(vars(error))
    swept = []

    def row(args):
        swept.append(args.b)
        if len(swept) == 2:
            raise error
        return {"row": 1}

    monkeypatch.setattr(cli, "_variance_row", row)
    parser = cli._build_parser()
    args = parser.parse_args(["sweep", "--over", "b", "--values", "1,2,3", "--z0", "1",
                              "--speed", "0.01", "--natural-units"])
    with pytest.raises(type(error)) as excinfo:
        cli._cmd_sweep(args, parser)
    assert type(excinfo.value) is type(error)
    assert excinfo.value is error and swept == [1.0, 2.0]
    assert str(excinfo.value).startswith("sweep value b=2.0: ")
    assert vars(excinfo.value) == attributes


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_failure_names_failing_value_and_exit_code(capsys, jobs):
    pole_b = 2.0 * 0.01 * 1.0 / (1.0 - 0.01)  # a corner on the singular locus
    code, _, err = _run(
        capsys,
        "sweep", "--over", "b", "--values", f"0.1,{pole_b!r},0.3", "--plates", "one",
        "--z0", "1", "--speed", "0.01", "--natural-units", "--jobs", jobs,
    )
    assert code == 2
    assert f"sweep value b={pole_b!r}: integration corner" in err
    code, _, err = _run(
        capsys,
        "sweep", "--over", "v", "--values", "0.01,0.02", "--plates", "two", "--z0", "0.3",
        "--b", "0.1", "--a", "1", "--natural-units", "--n-max", "5", "--jobs", jobs,
    )
    assert code == 3
    assert "sweep value v=0.01: two-plate variance" in err


def test_sweep_requires_exactly_one_grid_spec(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "sweep", "--over", "b", "--values", "1,2", "--start", "1",
                "--stop", "2", "--count", "2", "--z0", "100", "--kinetic-eV", "1",
            ]
        )
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_sweep_without_z0_fails(capsys):
    code, _, err = _run(
        capsys,
        "sweep", "--over", "b", "--values", "5", "--plates", "one",
        "--kinetic-eV", "1",
    )
    assert code == 2
    assert "--z0" in err


def test_sweep_cavity_estimate(capsys):
    code, out, _ = _run(
        capsys,
        "sweep", "--over", "d_C", "--start", "33", "--stop", "1100",
        "--count", "4", "--spacing", "log",
    )
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 4
    assert float(rows[0]["cavity_nm"]) == 33.0
    assert float(rows[0]["rms_over_kinetic"]) == _sig9(0.057014491173874644)
    spreads = [float(row["rms_over_kinetic"]) for row in rows]
    assert all(x > y for x, y in zip(spreads, spreads[1:]))


def test_singular_flight_exits_two(capsys):
    pole_b = 2.0 * 0.01 * 1.0 / (1.0 - 0.01)
    code, _, err = _run(
        capsys,
        "variance", "--plates", "one", "--z0", "1", "--b", repr(pole_b),
        "--speed", "0.01", "--natural-units",
    )
    assert code == 2
    assert "perturb b" in err


def test_exhausted_image_budget_exits_three(capsys):
    code, _, err = _run(
        capsys,
        "variance", "--plates", "two", "--z0", "0.3", "--b", "0.01",
        "--a", "1", "--speed", "0.005", "--natural-units", "--n-max", "1",
    )
    assert code == 3
    assert "n_max=1" in err


@pytest.mark.parametrize("speed", ["1e-320", "1e-7"])
def test_two_plate_speed_below_the_range_exits_two(capsys, speed):
    # 1e-320 raised OverflowError out of main (a traceback, exit 1) and 1e-7
    # exhausted the image budget (exit 3) before the speed was checked
    code, out, err = _run(
        capsys,
        "variance", "--plates", "two", "--z0", "0.3", "--b", "0.1", "--a", "1",
        "--speed", speed, "--natural-units",
    )
    assert code == 2 and out == ""
    assert f"speed v={float(speed)!r} outside the supported range" in err


# Awkward values for every numeric flag, and command templates whose slots
# take them as --flag=value (so that "-inf" is not read as an option). A
# small --n-max keeps each two-plate sum short.
_FUZZ_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "1e-7", "0.999999",
                "1e-60", "1e60", "0.01", "0.1", "0.3", "1", "2.5")
_FUZZ_TEMPLATES = {
    "variance_one": (["variance", "--plates", "one", "--natural-units"],
                     ("--z0", "--b", "--speed")),
    "variance_two": (["variance", "--plates", "two", "--natural-units", "--n-max", "300"],
                     ("--z0", "--b", "--a", "--speed")),
    "variance_small_v": (["variance", "--plates", "two", "--mode", "small-v"],
                         ("--z0", "--a", "--kinetic-eV", "--charge-e")),
    "correlator_single": (["correlator", "--plates", "single"], ("--z", "--z-prime", "--t")),
    "correlator_dual": (["correlator", "--plates", "dual", "--natural-units"],
                        ("--z", "--z-prime", "--t", "--a")),
    "sweep": (["sweep", "--over", "v", "--plates", "two", "--natural-units", "--n-max", "300"],
              ("--values", "--z0", "--b", "--a")),
    "moddel": (["moddel"], ("--voltage",)),
    "sweep_d_C": (["sweep", "--over", "d_C"], ("--values", "--voltage")),
}


@st.composite
def _fuzz_argv(draw):
    fixed, flags = _FUZZ_TEMPLATES[draw(st.sampled_from(sorted(_FUZZ_TEMPLATES)))]
    return fixed + [f"{flag}={draw(st.sampled_from(_FUZZ_VALUES))}" for flag in flags]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
@example(argv=["variance", "--plates", "two", "--natural-units", "--n-max", "300",
               "--z0=0.3", "--b=0.1", "--a=1", "--speed=1e-320"])
def test_awkward_numbers_exit_with_a_documented_code(argv):
    # main returns 0, 2 (domain), 3 (convergence) or 4 (verify failed); only
    # argparse's usage errors leave it, as SystemExit
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
@example(argv=["moddel", "--voltage=1e-320"])
@example(argv=["sweep", "--over", "d_C", "--values=10", "--voltage=1e-320"])
def test_a_charged_command_that_succeeds_prints_a_positive_rms(argv):
    # an rms that underflows refuses (exit 2) rather than printing 0; only a
    # neutral particle's rms is 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0 or "--charge-e=0" in argv:
        return
    for row in _rows(out.getvalue()):
        for column, value in row.items():
            if column.startswith("rms"):
                assert float(value) > 0.0, (argv, column, value)


def test_verify_passes_and_reports(capsys):
    code, out, err = _run(capsys, "verify", "--sets", "8", "--grid-points", "5")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 7
    assert all(row["passed"] == "true" for row in rows)
    assert err.startswith("verification PASSED: 7/7 checks")
    assert re.search(r" checks in \d+ ms \(seed 12345\)$", err.strip())


def test_verify_detects_injected_wrong_sign(capsys):
    code, out, err = _run(
        capsys,
        "verify", "--sets", "8", "--grid-points", "5", "--inject-wrong-sign",
    )
    assert code == 4
    assert "verification FAILED" in err
    status = {row["check"]: row["passed"] for row in _rows(out)}
    assert status["quad_one_plate_vs_closed"] == "false"
    assert status["deriv_reflection_identity"] == "false"
    assert status["quad_translated_vs_closed"] == "true"


@pytest.mark.parametrize("counts", [
    ["--sets", "0", "--grid-points", "0"],
    ["--sets", "-3"],
    ["--grid-points", "0"],
    ["--sets", "0", "--grid-points", "0", "--inject-wrong-sign"],
])
def test_verify_refuses_empty_checks(capsys, counts):
    # with no cases verify printed "PASSED 7/7" and exited 0, even with
    # --inject-wrong-sign
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", *counts])
    assert excinfo.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def test_verify_json_payload(capsys):
    code, out, _ = _run(
        capsys, "verify", "--sets", "8", "--grid-points", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 12345
    assert len(payload["checks"]) == 7
    # like every other float the CLI prints, rounded to 9 significant digits
    floats = list(_floats(payload))
    assert len(floats) == 8
    assert [x for x in floats if x != _sig9(x)] == []


def test_moddel_default_table(capsys):
    code, out, _ = _run(capsys, "moddel")
    assert code == 0
    rows = _rows(out)
    assert [float(row["cavity_nm"]) for row in rows] == [33.0, 79.0, 230.0, 1100.0]
    first = rows[0]
    assert float(first["rms_over_kinetic"]) == _sig9(0.057014491173874644)
    assert first["regime_Al"] == "perfect_mirror"
    assert first["regime_Pd"] == "transparent"
    assert first["regime_Ni"] == "partial"
    assert float(first["skin_depth_nm_Al"]) == _sig9(197.3269804 / 15.0)


def test_moddel_voltage_override(capsys):
    code, out, _ = _run(capsys, "moddel", "--voltage", "0.2")
    assert code == 0
    first = _rows(out)[0]
    assert float(first["kinetic_eV"]) == 0.2
    assert float(first["rms_over_kinetic"]) == _sig9(0.0012748827795915399)


def test_moddel_scenario_file(capsys, tmp_path):
    scenario = {
        "applied_voltage_V": 1e-4,
        "cavities_nm": [50.0],
        "insulator_nm": 2.0,
        "electrode_nm": 8.0,
        "mirrors": [
            {"name": "Au", "plasma_frequency_eV": 9.0, "thickness_nm": 100.0}
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, _ = _run(capsys, "moddel", "--scenario", str(path))
    assert code == 0
    (row,) = _rows(out)
    assert float(row["cavity_nm"]) == 50.0
    assert "regime_Au" in row


def test_moddel_missing_scenario_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, "moddel", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2
    assert "could not read" in err


def test_moddel_malformed_scenario_exits_two(capsys, tmp_path):
    repeated = json.loads(json.dumps(DEFAULT_SCENARIO))
    repeated["mirrors"][2]["name"] = "Al"
    for text, message in (("{not json", "not valid JSON"),
                          # exited 0 with one pair of Al columns, the second mirror's
                          (json.dumps(repeated), "mirrors[2] repeats the mirror name 'Al'")):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, "moddel", "--scenario", str(path))
        assert code == 2 and out == ""
        assert message in err


def test_moddel_infinite_scenario_value_exits_two(capsys, tmp_path):
    path = tmp_path / "infinite.json"
    text = json.dumps(dict(DEFAULT_SCENARIO, cavities_nm=[50.0, math.inf]))
    assert "Infinity" in text
    path.write_text(text, encoding="utf-8")
    code, _, err = _run(capsys, "moddel", "--scenario", str(path))
    assert code == 2
    assert "cavity_nm must be positive and finite, got inf" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["moddel"]
    code, stdout_text, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "table.csv"
    code, silent, _ = _run(capsys, *argv, "--output", str(path))
    assert code == 0 and silent == ""
    assert path.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("argv", [
    ["variance", "--plates", "one", "--z0", "100", "--b", "10", "--kinetic-eV", "1"],
    # verify writes only after running every check
    ["verify", "--sets", "1", "--grid-points", "1"],
], ids=["variance", "verify"])
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "table.csv"
    code, out, err = _run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert "error: could not write --output" in err and str(path) in err
    assert not path.exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["variance", "--plates", "one"])
    assert excinfo.value.code == 2
    capsys.readouterr()
