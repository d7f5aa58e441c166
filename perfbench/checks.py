"""Reference values and output checks, computed outside the timed worker.

Each reference avoids the code path being timed:

- two-plate exact variance: a plain `math.fsum` over the public image
  integrals up to a fixed index whose certified n^-4 tail is below 1e-12 of
  the sum, without the summation engine or its tail logic; accepted when
  |value - ref| <= reported tail + 2 tol |ref|;
- dual-plate correlator: `oracle.brute_dual_correlator` with 1e4 image pairs;
  accepted when |value - ref| <= reported tail + 1e-9 |ref|;
- pole-free one-plate variance: `oracle.quad_one_plate`; accepted within the
  quadrature's error estimate + 1e-9 |ref|;
- small-v forms, `validity_window`, `correlator_single_plate`,
  `rms_estimate_eV` and `regime_classify`: their docstring formulas,
  re-evaluated here;
- cli: the CSV or JSON output is parsed and compared with the library value
  rounded to 9 significant digits; `verify` must pass every check.

A refusal passes only when the expected error (or exit code) is raised.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys

import workloads  # noqa: F401  (puts the sources on sys.path)

import casvolt
from casvolt import CONSTANTS, oracle

# the accuracy every timed operation runs at
TOL = casvolt.SummationControl().tol
_REF_TAIL = 1e-12
_DUAL_REF_TERMS = 10**4
_DUAL_SLACK = 1e-9
_QUAD_SLACK = 1e-9
_FORMULA_RTOL = 1e-12


def _prefactor(v: float) -> float:
    q = CONSTANTS.elementary_charge_natural
    return q * q * v**4 / math.pi**2


def _two_plate_reference(op: dict) -> dict:
    a, z0, b, v = op["a"], op["z0"], op["b"], op["v"]
    seg = casvolt.PathSegment(z0=z0, b=b, v=v)
    z1 = z0 + b

    def pair(n: int) -> float:
        return (casvolt.reflected_image_integral(seg, a, n)
                + casvolt.reflected_image_integral(seg, a, -n)
                + casvolt.translated_image_integral(seg, a, n)
                + casvolt.translated_image_integral(seg, a, -n))

    def tail(n: int) -> float:
        # every pair beyond n is at most 4 b^2 / [v^2 (2am - 2 z1)^2 - b^2]^2;
        # with u = v (2ax - 2 z1) / b the integral test gives
        # 2/(a v b) * int_U^inf du/(u^2-1)^2 <= 2/(a v b) / (3 U^3 (1 - U^-2)^2)
        u = v * (2.0 * a * n - 2.0 * z1) / b
        if u <= 1.0:
            return math.inf
        return 2.0 / (a * v * b) / (3.0 * u**3 * (1.0 - 1.0 / (u * u)) ** 2)

    terms = [casvolt.one_plate_integral(seg)]
    n = 0
    while tail(n) == math.inf:  # beyond here every pair term is positive
        n += 1
        terms.append(pair(n))
    floor = math.fsum(terms)
    if not floor > 0.0:
        raise ValueError(f"two-plate reference head sum {floor!r} is not positive")
    last = n
    step = 1
    while tail(last + step) > _REF_TAIL * floor:
        step *= 2
    lo, hi = last + step // 2, last + step
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= _REF_TAIL * floor:
            hi = mid
        else:
            lo = mid + 1
    terms.extend(pair(m) for m in range(n + 1, lo + 1))
    return {"variance": _prefactor(v) * math.fsum(terms), "pairs": lo}


def _quad_one_plate_reference(op: dict) -> dict:
    quad = oracle.quad_one_plate(casvolt.PathSegment(z0=op["z0"], b=op["b"], v=op["v"]))
    pref = _prefactor(op["v"])
    return {"variance": pref * quad.value, "error": pref * quad.error_estimate}


def _argv(argv: list[str], flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


def _electron(**kwargs) -> casvolt.Particle:
    return casvolt.Particle(charge_e=1.0, mass_eV=CONSTANTS.electron_mass_eV, **kwargs)


def _cli_reference(op: dict) -> dict | None:
    argv, kind = op["argv"], op["kind"]
    nat = casvolt.length_to_natural
    if kind == "variance_one":
        particle = _electron(kinetic_energy_eV=_argv(argv, "--kinetic-eV"))
        seg = casvolt.PathSegment(z0=nat(_argv(argv, "--z0")), b=nat(_argv(argv, "--b")),
                                  v=particle.speed_value)
        result = casvolt.variance_one_plate(particle, seg)
        return {"rows": [{"variance_eV2": result.variance_eV2,
                          "rms_energy_eV": result.rms_energy_eV,
                          "rms_voltage_V": result.rms_voltage_V}]}
    if kind == "variance_two_smallv":
        particle = _electron(kinetic_energy_eV=_argv(argv, "--kinetic-eV"))
        result = casvolt.variance_two_plate_smallv(
            particle, nat(_argv(argv, "--z0")), nat(_argv(argv, "--a")))
        return {"rows": [{"variance_eV2": result.variance_eV2,
                          "rms_energy_eV": result.rms_energy_eV}]}
    if kind == "correlator_dual":
        pair = casvolt.SpacetimePair(t=_argv(argv, "--t"), z=_argv(argv, "--z"),
                                     t_prime=0.0, z_prime=_argv(argv, "--z-prime"))
        result = casvolt.correlator_dual_plate(pair, _argv(argv, "--a"))
        return {"rows": [{"correlator_eV4": result.value, "terms_used": result.terms_used}]}
    if kind == "moddel":
        scenario = dict(casvolt.DEFAULT_SCENARIO, applied_voltage_V=_argv(argv, "--voltage"))
        return {"rows": [{"cavity_nm": row.cavity_nm, "rms_energy_eV": row.rms_energy_eV,
                          "rms_over_kinetic": row.rms_over_kinetic}
                         for row in casvolt.moddel_report(casvolt.load_scenario(scenario))]}
    if kind == "sweep_two_exact":
        z0, b, a = _argv(argv, "--z0"), _argv(argv, "--b"), _argv(argv, "--a")
        rows = []
        for v in sorted(float(s) for s in argv[argv.index("--values") + 1].split(",")):
            result = casvolt.variance_two_plate_exact(
                _electron(speed=v), casvolt.PathSegment(z0=z0, b=b, v=v), a)
            rows.append({"speed_c": v, "variance_eV2": result.variance_eV2,
                         "terms_used": result.terms_used})
        return {"rows": rows}
    return None


def reference(op: dict):
    """The reference for one operation (None where the check needs none)."""
    if "argv" in op:
        return _cli_reference(op) if op["expect_code"] == 0 else None
    if op.get("expect"):
        return None
    if op["kind"] == "variance_two_plate_exact":
        return _two_plate_reference(op)
    if op["kind"] == "variance_one_plate":
        return _quad_one_plate_reference(op)
    if op["kind"] == "correlator_dual_plate":
        return oracle.brute_dual_correlator(op["t"], op["z"], op["t_prime"], op["z_prime"],
                                            op["a"], n_terms=_DUAL_REF_TERMS)
    return None


def _close(value: float, ref: float, rtol: float = _FORMULA_RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _sig9(value: float) -> float:
    return float(f"{value:.8e}")


def _formula_ok(op: dict, out: list) -> bool:
    """Re-evaluate the docstring formula of a closed-form operation."""
    kind = op["kind"]
    e = CONSTANTS.elementary_charge_natural
    if kind == "rms_one_plate_smallv":
        rms = e * op["v"] / (2.0 * math.pi * op["z0"])
        return _close(out[2], rms) and _close(out[1], rms * rms)
    if kind == "variance_two_plate_smallv":
        z0, a, v = op["z0"], op["a"], op["v"]
        ref = e * e * v * v / (12.0 * a * a) * (1.0 + 3.0 / math.sin(math.pi * z0 / a) ** 2)
        return _close(out[1], ref)
    if kind == "validity_window":
        z0, b, v = op["z0"], op["b"], op["v"]
        lower, pole = 2.0 * v * z0 / math.sqrt(3.0), 2.0 * v * z0 / (1.0 - v)
        return (_close(out[1], lower) and out[2] == z0 and _close(out[3], pole)
                and out[4] == (lower <= b <= z0) and out[5] == (b < lower))
    if kind == "correlator_single_plate":
        dt, sz = op["t"] - op["t_prime"], op["z"] + op["z_prime"]
        return _close(out[1], 1.0 / (math.pi**2 * (dt * dt - sz * sz) ** 2))
    if kind == "rms_estimate_eV":
        v = math.sqrt(2.0 * op["kinetic_eV"] / CONSTANTS.electron_mass_eV)
        z0 = op["z0_nm"] / CONSTANTS.hbar_c_eV_nm
        return _close(out[1], e * v / (2.0 * math.pi * z0))
    if kind == "regime_classify":
        distance = op["plasma_frequency_eV"] * op["distance_nm"] / CONSTANTS.hbar_c_eV_nm
        thickness = op["plasma_frequency_eV"] * op["thickness_nm"] / CONSTANTS.hbar_c_eV_nm
        regime = ("transparent" if thickness <= 1.0 / 3.0
                  else "perfect_mirror" if distance >= 1.0 else "partial")
        return out[1] == regime and _close(out[2], distance) and _close(out[3], thickness)
    raise ValueError(kind)


def _cli_rows(op: dict, stdout: str) -> list[dict]:
    argv = op["argv"]
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(stdout)["rows"]
    return list(csv.DictReader(io.StringIO(stdout)))


def _cli_ok(op: dict, code, stdout: str, ref) -> bool:
    if code != op["expect_code"]:
        return False
    if op["kind"] in ("refuse_input", "refuse_n_max"):
        return stdout == ""
    rows = _cli_rows(op, stdout)
    if op["kind"] == "verify":
        return bool(rows) and all(row["passed"] == "true" for row in rows)
    if op["kind"] == "refuse_verify":
        return any(row["passed"] == "false" for row in rows)
    if len(rows) != len(ref["rows"]):
        return False
    for row, expected in zip(rows, ref["rows"]):
        for key, value in expected.items():
            if isinstance(value, int):
                if int(row[key]) != value:
                    return False
            elif float(row[key]) != _sig9(value):
                return False
    return True


def check(op: dict, out: list, ref) -> bool:
    """Whether one distinct outcome of `op` (a `workloads.summarize` digest) is right."""
    if out[0] == "raised":
        return op.get("expect") is not None and op["expect"] in out[1]
    if out[0] == "exit":
        return _cli_ok(op, out[1], out[2], ref)
    if op.get("expect") is not None:
        return False
    kind = op["kind"]
    if kind == "variance_two_plate_exact":
        value, tail = out[1], out[4]
        return (out[3] > 0 and tail >= 0.0
                and abs(value - ref["variance"]) <= tail + 2.0 * TOL * abs(ref["variance"]))
    if kind == "variance_one_plate":
        return abs(out[1] - ref["variance"]) <= ref["error"] + _QUAD_SLACK * abs(ref["variance"])
    if kind == "correlator_dual_plate":
        value, terms, tail = out[1], out[2], out[3]
        return terms > 0 and abs(value - ref) <= tail + _DUAL_SLACK * abs(ref)
    return _formula_ok(op, out)


def main() -> int:
    """Print the references for the JSON operation list read from stdin."""
    print(json.dumps([reference(op) for op in json.load(sys.stdin)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
