"""Command-line interface for correlator, variance, and experiment estimates.

Subcommands:
  correlator  field correlator at a pair of spacetime points
  variance    energy/voltage fluctuation statistics for one flight
  sweep       repeat a variance or estimate over a grid of one parameter
  verify      run the independent numerical self-checks
  moddel      layered-capacitor experiment table from a scenario file

Laboratory units are the default everywhere: lengths in nm, times as light
travel distance c*t in nm, energies in eV, voltages in volts. Pass
--natural-units to give lengths and times in 1/eV instead. Outputs are CSV
(RFC 4180, one header row, unit-suffixed column names) or JSON carrying the
same values; all floating-point output is rounded to 9 significant digits.

Exit codes: 0 success, 2 invalid input or a singular configuration, 3 a sum
or quadrature failed to converge, 4 verification failure.
"""
from __future__ import annotations

import argparse
import sys

# the exit-code mapping and the parser's defaults read these three; each
# command imports the modules it runs, so a cold start compiles no others
from .errors import CasvoltError, ConvergenceError, DomainError, SingularityError
from .summation import SummationControl
from .units import CONSTANTS, length_to_natural

__all__ = ["main"]


def _sig9(value: float) -> float:
    """Round to 9 significant digits; shared by the CSV and JSON writers."""
    return float(f"{value:.8e}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.8e}"
    return str(value)


def _json_value(value):
    """value with every float in it, at any depth, rounded by _sig9."""
    if isinstance(value, float):
        return _sig9(value)
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    return value


def _emit(rows: list[dict], args, command: str) -> None:
    """Write rows as CSV or JSON to --output (default stdout)."""
    if args.format == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(_cell(value) for value in row.values())
        text = buffer.getvalue()
    else:
        import json

        text = json.dumps(_json_value({"command": command, "rows": rows}), indent=2) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    """Write text to --output (default stdout)."""
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"could not write --output: {exc}") from exc


def _length_suffix(args) -> str:
    return "inv_eV" if args.natural_units else "nm"


def _to_natural(value: float | None, args) -> float | None:
    if value is None:
        return None
    if args.natural_units:
        return value
    return length_to_natural(value)


def _time_to_natural(value: float, args) -> float:
    """A time given as c*t (nm unless --natural-units) in 1/eV; unlike a
    length it may be zero or negative."""
    if args.natural_units:
        return value
    return value / CONSTANTS.hbar_c_eV_nm


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--output", default="-", metavar="PATH", help="output file, - for stdout"
    )


def _add_units_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--natural-units",
        action="store_true",
        help="interpret lengths and times as 1/eV instead of nm",
    )


def _add_control_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol", type=float, default=SummationControl.tol,
        help="relative tail tolerance for image sums",
    )
    parser.add_argument(
        "--n-max", type=int, default=SummationControl.n_max, help="image-pair budget for sums"
    )


def _add_particle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--charge-e", type=float, default=1.0, help="charge in units of e"
    )
    parser.add_argument(
        "--mass-eV",
        type=float,
        default=CONSTANTS.electron_mass_eV,
        help="particle mass in eV (default: electron)",
    )
    parser.add_argument("--kinetic-eV", type=float, help="kinetic energy in eV")
    parser.add_argument("--speed", type=float, help="speed in units of c")


def _cmd_correlator(args) -> int:
    from .correlators import SpacetimePair, correlator_dual_plate, correlator_single_plate

    suffix = _length_suffix(args)
    pair = SpacetimePair(
        t=_time_to_natural(args.t, args),
        z=_to_natural(args.z, args),
        t_prime=_time_to_natural(args.t_prime, args),
        z_prime=_to_natural(args.z_prime, args),
    )
    row: dict = {
        "plates": args.plates,
        f"t_{suffix}": args.t,
        f"z_{suffix}": args.z,
        f"t_prime_{suffix}": args.t_prime,
        f"z_prime_{suffix}": args.z_prime,
    }
    if args.plates == "single":
        row["correlator_eV4"] = correlator_single_plate(pair)
    else:
        if args.a is None:
            raise DomainError("dual-plate correlators need the separation --a")
        result = correlator_dual_plate(pair, _to_natural(args.a, args))
        row[f"a_{suffix}"] = args.a
        row["correlator_eV4"] = result.value
        row["terms_used"] = result.terms_used
        row["tail_estimate_eV4"] = result.tail_estimate
    _emit([row], args, "correlator")
    return 0


def _variance_row(args) -> dict:
    """One variance/estimate row: lengths as given, computed in natural units."""
    from .closed_forms import PathSegment
    from .variance import (
        Particle,
        rms_one_plate_smallv,
        variance_one_plate,
        variance_two_plate_exact,
        variance_two_plate_smallv,
    )

    particle = Particle(charge_e=args.charge_e, mass_eV=args.mass_eV,
                        kinetic_energy_eV=args.kinetic_eV, speed=args.speed)
    if args.z0 is None:
        raise DomainError("variance sweeps need --z0")
    # a length the result does not depend on would be echoed beside it
    if args.plates == "one" and args.a is not None:
        raise DomainError("one-plate variance takes no plate separation; drop --a")
    if args.mode == "small-v" and args.b is not None:
        raise DomainError("small-v variance takes no flight distance; drop --b")
    z0, b, a = (_to_natural(length, args) for length in (args.z0, args.b, args.a))
    if args.mode == "exact":
        if b is None:
            raise DomainError("exact mode needs the flight distance --b")
        seg = PathSegment(z0=z0, b=b, v=particle.speed_value)
        if args.plates == "one":
            result = variance_one_plate(particle, seg)
        else:
            if a is None:
                raise DomainError("two-plate variance needs the separation --a")
            control = SummationControl(tol=args.tol, n_max=args.n_max)
            result = variance_two_plate_exact(particle, seg, a, control)
    else:
        if args.plates == "one":
            result = rms_one_plate_smallv(particle, z0)
        else:
            if a is None:
                raise DomainError("two-plate variance needs the separation --a")
            result = variance_two_plate_smallv(particle, z0, a)
    suffix = _length_suffix(args)
    return {
        f"z0_{suffix}": args.z0,
        f"b_{suffix}": args.b,
        f"a_{suffix}": args.a,
        "plates": args.plates,
        "mode": args.mode,
        "charge_e": particle.charge_e,
        "mass_eV": particle.mass_eV,
        "kinetic_eV": particle.kinetic_eV,
        "speed_c": particle.speed_value,
        "variance_eV2": result.variance_eV2,
        "rms_energy_eV": result.rms_energy_eV,
        "rms_voltage_V": result.rms_voltage_V,
        "regime": "+".join(result.regime),
        "terms_used": result.terms_used,
        "tail_estimate_eV2": result.tail_estimate_eV2,
    }


def _cmd_variance(args) -> int:
    _emit([_variance_row(args)], args, "variance")
    return 0


def _sweep_values(args, parser: argparse.ArgumentParser) -> list[float]:
    explicit = args.values is not None
    ranged = args.start is not None or args.stop is not None or args.count is not None
    if explicit == ranged:
        parser.error("give either --values or all of --start/--stop/--count")
    if explicit:
        try:
            values = [float(item) for item in args.values.split(",") if item.strip()]
        except ValueError:
            parser.error(f"could not parse --values {args.values!r}")
        if not values:
            parser.error("--values is empty")
        return sorted(values)
    if args.start is None or args.stop is None or args.count is None:
        parser.error("ranged sweeps need all of --start/--stop/--count")
    if not args.start < args.stop:
        parser.error(f"--start must be below --stop, got {args.start} and {args.stop}")
    if args.count < 2:
        parser.error(f"--count must be at least 2, got {args.count}")
    if args.spacing == "log":
        if args.start <= 0.0:
            parser.error("--spacing log needs a positive --start")
        ratio = (args.stop / args.start) ** (1.0 / (args.count - 1))
        return [args.start * ratio**k for k in range(args.count)]
    step = (args.stop - args.start) / (args.count - 1)
    return [args.start + step * k for k in range(args.count)]


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    values = _sweep_values(args, parser)

    if args.over == "d_C":
        from .experiment import rms_estimate_eV

        def build(value: float) -> dict:
            kinetic = args.voltage
            rms = rms_estimate_eV(kinetic, value)
            return {
                "cavity_nm": value,
                "kinetic_eV": kinetic,
                "rms_energy_eV": rms,
                "rms_over_kinetic": rms / kinetic,
            }
    else:
        field = {"z0": "z0", "b": "b", "a": "a", "v": "speed", "K": "kinetic_eV"}[args.over]

        def build(value: float) -> dict:
            if field in ("speed", "kinetic_eV") and (args.speed, args.kinetic_eV) != (None, None):
                raise DomainError(
                    "a speed or kinetic-energy sweep conflicts with --kinetic-eV/--speed"
                )
            return _variance_row(argparse.Namespace(**{**vars(args), field: value}))

    rows = []
    for value in values:
        try:
            rows.append(build(value))
        except CasvoltError as exc:
            # re-raised as itself, class and attributes intact, with the
            # sweep value it failed at prefixed to its message
            exc.args = (f"sweep value {args.over}={value!r}: {exc}", *exc.args[1:])
            raise
    _emit(rows, args, "sweep")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import run_verification

    reflection_override = None
    if args.inject_wrong_sign:
        from .closed_forms import _reflection_square

        def reflection_override(base, b, v):
            return -_reflection_square(base, b, v)

    report = run_verification(seed=args.seed, reflection_override=reflection_override)
    if args.format == "json":
        import json

        _write(json.dumps(_json_value(report.to_dict()), indent=2) + "\n", args)
    else:
        rows = [
            {
                "check": check.name,
                "passed": check.passed,
                "worst": check.worst,
                "detail": check.detail,
            }
            for check in report.checks
        ]
        _emit(rows, args, "verify")
    status = "PASSED" if report.passed else "FAILED"
    print(
        f"verification {status}: {sum(c.passed for c in report.checks)}/"
        f"{len(report.checks)} checks in {report.elapsed_s * 1e3:.0f} ms (seed {report.seed})",
        file=sys.stderr,
    )
    return 0 if report.passed else 4


def _cmd_moddel(args) -> int:
    from .experiment import DEFAULT_SCENARIO, load_scenario, moddel_report

    if args.scenario is None:
        data = dict(DEFAULT_SCENARIO)
    else:
        import json

        try:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise DomainError(f"could not read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"scenario file is not valid JSON: {exc}") from exc
    if args.voltage is not None:
        data = dict(data)
        data["applied_voltage_V"] = args.voltage
    configs = load_scenario(data)
    rows = []
    for entry in moddel_report(configs):
        row: dict = {
            "cavity_nm": entry.cavity_nm,
            "kinetic_eV": entry.kinetic_energy_eV,
            "rms_energy_eV": entry.rms_energy_eV,
            "rms_over_kinetic": entry.rms_over_kinetic,
        }
        for name, regime in entry.mirror_regimes:
            row[f"regime_{name}"] = regime
        for name, depth in entry.skin_depths_nm:
            row[f"skin_depth_nm_{name}"] = depth
        rows.append(row)
    _emit(rows, args, "moddel")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casvolt",
        description="Vacuum field correlators and flight-energy fluctuation statistics",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    correlator = subparsers.add_parser(
        "correlator", help="field correlator at a pair of spacetime points"
    )
    correlator.add_argument("--plates", choices=("single", "dual"), required=True)
    correlator.add_argument("--z", type=float, required=True, help="first point z")
    correlator.add_argument(
        "--z-prime", type=float, required=True, help="second point z'"
    )
    correlator.add_argument("--t", type=float, default=0.0, help="first time as c*t")
    correlator.add_argument(
        "--t-prime", type=float, default=0.0, help="second time as c*t'"
    )
    correlator.add_argument("--a", type=float, help="plate separation (dual only)")
    _add_units_flag(correlator)
    _add_output_flags(correlator)

    variance = subparsers.add_parser(
        "variance", help="fluctuation statistics for one flight"
    )
    variance.add_argument("--plates", choices=("one", "two"), required=True)
    variance.add_argument("--mode", choices=("exact", "small-v"), default="exact")
    variance.add_argument("--z0", type=float, required=True, help="starting distance")
    variance.add_argument("--b", type=float, help="flight distance (exact mode)")
    variance.add_argument("--a", type=float, help="plate separation (two plates)")
    _add_particle_flags(variance)
    _add_control_flags(variance)
    _add_units_flag(variance)
    _add_output_flags(variance)

    sweep = subparsers.add_parser(
        "sweep", help="repeat a calculation over a grid of one parameter"
    )
    sweep.add_argument(
        "--over",
        choices=("z0", "b", "v", "a", "K", "d_C"),
        required=True,
        help="which parameter to sweep",
    )
    sweep.add_argument("--values", help="comma-separated explicit values")
    sweep.add_argument("--start", type=float, help="range start")
    sweep.add_argument("--stop", type=float, help="range end")
    sweep.add_argument("--count", type=int, help="number of points")
    sweep.add_argument(
        "--spacing", choices=("linear", "log"), default="linear", help="range spacing"
    )
    sweep.add_argument("--plates", choices=("one", "two"), default="one")
    sweep.add_argument("--mode", choices=("exact", "small-v"), default="exact")
    sweep.add_argument("--z0", type=float, help="starting distance")
    sweep.add_argument("--b", type=float, help="flight distance (exact mode)")
    sweep.add_argument("--a", type=float, help="plate separation (two plates)")
    sweep.add_argument(
        "--voltage", type=float, default=1e-4, help="applied voltage for d_C sweeps"
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="kept for compatibility, must be at least 1; points are evaluated in order",
    )
    _add_particle_flags(sweep)
    _add_control_flags(sweep)
    _add_units_flag(sweep)
    _add_output_flags(sweep)

    verify = subparsers.add_parser(
        "verify", help="run the independent numerical self-checks"
    )
    verify.add_argument("--seed", type=int, default=12345, help="sampling seed")
    verify.add_argument(
        "--inject-wrong-sign",
        action="store_true",
        help="test hook: flip the sign of one closed form and expect failure",
    )
    _add_output_flags(verify)

    moddel = subparsers.add_parser(
        "moddel", help="layered-capacitor experiment table from a scenario file"
    )
    moddel.add_argument(
        "--scenario", metavar="PATH", help="scenario JSON (default: built-in)"
    )
    moddel.add_argument(
        "--voltage", type=float, help="override the scenario's applied voltage"
    )
    _add_output_flags(moddel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "correlator":
            return _cmd_correlator(args)
        if args.command == "variance":
            return _cmd_variance(args)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        # the subparsers are required, so the one command left is moddel
        return _cmd_moddel(args)
    except (DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
