"""Seeded operation lists for the three benchmark workloads.

An operation is a plain dict (JSON-able) so that the timed worker, the
reference checker and the trace probe all rebuild the same list from the
seed. `bind` turns an operation into a zero-argument callable that calls the
library the way a user would: it builds the particle, segment or point and
then calls the public function, looked up on the `casvolt` package at call
time so that the tracer's wrappers are seen.

Cost-driving parameters are drawn from a full factorial grid with a small
seeded jitter inside each cell, so that two seeds give different inputs but
nearly the same amount of work; parameters that only set the overall length
scale (the plate separation a) are drawn freely, because the image counts
depend only on ratios to it.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("image_sums", "point_evals", "cli")

# share of a grid cell over which a grid point is jittered by the seed
_JITTER = 0.1
# image_sums: 5 x 4 x 3 grid over (log10 v, z0/a, b/(a-z0)) plus refusals
_IMAGE_GRID = (5, 4, 3)
_IMAGE_REFUSALS = 4
_IMAGE_REFUSAL_N_MAX = 8  # the smallest certified sum in the grid needs ~70 pairs
# point_evals: operation counts per kind; dual correlators are a 5 x 5 x 4 grid
_DUAL_GRID = (5, 5, 4)
# 266 calls of each cheap kind, and 140 more of the cheapest, rms_estimate_eV:
# that puts as many operations below the validity_window/regime_classify
# cluster (~5 us) as above it, so the median sits inside that dense cluster
# instead of on the edge between two clusters, where it jumps with the seed
_CHEAP_COUNTS = {
    "variance_one_plate": 266,
    "rms_one_plate_smallv": 266,
    "variance_two_plate_smallv": 266,
    "validity_window": 266,
    "correlator_single_plate": 266,
    "rms_estimate_eV": 406,
    "regime_classify": 266,
}
_POLE_CORNER_REFUSALS = 20
_DOMAIN_REFUSALS = 20
# cli: cycles of the nine commands per operation list
_CLI_CYCLES = 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _grid(rng: random.Random, shape: tuple[int, ...]) -> list[tuple[float, ...]]:
    """Points of the unit cube, one per cell of the grid, jittered in-cell."""
    points = []
    for cell in itertools.product(*(range(n) for n in shape)):
        points.append(
            tuple((i + 0.5 + _JITTER * (rng.random() - 0.5)) / n for i, n in zip(cell, shape))
        )
    return points


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def image_sums_ops(seed: int) -> list[dict]:
    rng = _rng("image_sums", seed)
    ops = []
    for uv, uz, ub in _grid(rng, _IMAGE_GRID):
        a = rng.uniform(0.5, 2.0)
        z0 = a * (0.05 + 0.75 * uz)
        ops.append({
            "kind": "variance_two_plate_exact",
            "a": a, "z0": z0, "b": (0.02 + 0.48 * ub) * (a - z0), "v": 10.0 ** (-3.0 + 2.0 * uv),
            "n_max": None, "expect": None,
        })
    for _ in range(_IMAGE_REFUSALS):
        a = rng.uniform(0.5, 2.0)
        z0 = a * rng.uniform(0.05, 0.8)
        ops.append({
            "kind": "variance_two_plate_exact",
            "a": a, "z0": z0, "b": rng.uniform(0.02, 0.5) * (a - z0),
            "v": _log_uniform(rng, 1e-3, 1e-1),
            "n_max": _IMAGE_REFUSAL_N_MAX, "expect": "ConvergenceError",
        })
    rng.shuffle(ops)
    return ops


def _cheap_op(rng: random.Random, kind: str) -> dict:
    v = _log_uniform(rng, 1e-3, 0.09)
    if kind == "variance_one_plate":
        z0 = rng.uniform(0.2, 2.0)
        # pole-free (b below 2 v z0 / (1 - v)) so that quadrature can check it
        b = rng.uniform(0.2, 0.8) * 2.0 * v * z0 / (1.0 - v)
        return {"kind": kind, "z0": z0, "b": b, "v": v}
    if kind == "rms_one_plate_smallv":
        return {"kind": kind, "z0": rng.uniform(0.2, 2.0), "v": v}
    if kind == "variance_two_plate_smallv":
        a = rng.uniform(0.5, 2.0)
        return {"kind": kind, "z0": a * rng.uniform(0.05, 0.95), "a": a, "v": v}
    if kind == "validity_window":
        z0 = rng.uniform(0.2, 2.0)
        return {"kind": kind, "z0": z0, "b": z0 * _log_uniform(rng, 1e-4, 2.0), "v": v}
    if kind == "correlator_single_plate":
        z, zp = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        return {"kind": kind, "t": rng.uniform(0.0, 0.8) * (z + zp), "z": z, "t_prime": 0.0,
                "z_prime": zp}
    if kind == "rms_estimate_eV":
        return {"kind": kind, "kinetic_eV": _log_uniform(rng, 1e-2, 10.0),
                "z0_nm": _log_uniform(rng, 10.0, 1000.0)}
    if kind == "regime_classify":
        return {"kind": kind, "plasma_frequency_eV": rng.uniform(5.0, 20.0),
                "thickness_nm": _log_uniform(rng, 1.0, 300.0),
                "distance_nm": _log_uniform(rng, 1.0, 300.0)}
    raise ValueError(kind)


def _dual_op(a: float, uz: float, uzp: float, ut: float) -> dict:
    z, zp = a * (0.05 + 0.9 * uz), a * (0.05 + 0.9 * uzp)
    # stay well inside every image light cone: |dt| below the smallest
    # image separation min(z+z', 2a-(z+z'), 2a-|z-z'|)
    gap = min(z + zp, 2.0 * a - (z + zp), 2.0 * a - abs(z - zp))
    return {"kind": "correlator_dual_plate", "t": 0.8 * ut * gap, "z": z, "t_prime": 0.0,
            "z_prime": zp, "a": a}


def _domain_refusal(rng: random.Random, variant: int) -> dict:
    if variant == 0:
        return {"kind": "variance_one_plate", "z0": 1.0, "b": 0.1, "v": rng.uniform(1.0, 1.5),
                "expect": "DomainError"}
    if variant == 1:
        a = rng.uniform(0.5, 2.0)
        return {"kind": "correlator_dual_plate", "t": 0.0, "z": a * rng.uniform(1.01, 1.5),
                "t_prime": 0.0, "z_prime": 0.5 * a, "a": a, "expect": "DomainError"}
    if variant == 2:
        a = rng.uniform(0.5, 2.0)
        return {"kind": "variance_two_plate_smallv", "z0": a * rng.uniform(1.0, 1.5), "a": a,
                "v": 0.01, "expect": "DomainError"}
    return {"kind": "rms_estimate_eV", "kinetic_eV": -rng.uniform(0.1, 10.0), "z0_nm": 100.0,
            "expect": "DomainError"}


def point_evals_ops(seed: int) -> list[dict]:
    rng = _rng("point_evals", seed)
    ops = []
    for kind, count in _CHEAP_COUNTS.items():
        for _ in range(count):
            op = _cheap_op(rng, kind)
            op["expect"] = None
            ops.append(op)
    for uz, uzp, ut in _grid(rng, _DUAL_GRID):
        op = _dual_op(rng.uniform(0.5, 2.0), uz, uzp, ut)
        op["expect"] = None
        ops.append(op)
    for _ in range(_POLE_CORNER_REFUSALS):
        z0, v = rng.uniform(0.2, 2.0), _log_uniform(rng, 1e-3, 0.09)
        ops.append({"kind": "variance_one_plate", "z0": z0, "b": 2.0 * v * z0 / (1.0 - v),
                    "v": v, "expect": "SingularityError"})
    for index in range(_DOMAIN_REFUSALS):
        ops.append(_domain_refusal(rng, index % 4))
    rng.shuffle(ops)
    return ops


def cli_ops(seed: int, cycles: int = _CLI_CYCLES) -> list[dict]:
    """Cycles of six commands and three refusals, each a `casvolt` argv."""
    rng = _rng("cli", seed)
    ops = []
    for cycle in range(cycles):
        fmt = ["--format", "json" if cycle % 2 else "csv"]
        z0_nm, kinetic = _log_uniform(rng, 50.0, 500.0), _log_uniform(rng, 0.1, 10.0)
        b_nm = z0_nm * rng.uniform(0.01, 0.5)
        a_nm = z0_nm / rng.uniform(0.05, 0.95)
        a = rng.uniform(0.5, 2.0)
        dual = _dual_op(a, rng.random(), rng.random(), rng.random())
        ((uz, ub),) = _grid(rng, (1, 1))
        sweep_z0 = a * (0.05 + 0.45 * uz)
        sweep_b = (0.02 + 0.28 * ub) * (a - sweep_z0)
        speeds = [10.0 ** (-2.0 + u) for (u,) in _grid(rng, (3,))]
        pole_z0, pole_v = rng.uniform(0.2, 2.0), _log_uniform(rng, 1e-3, 0.09)
        ops += [
            {"kind": "variance_one", "argv": [
                "variance", "--plates", "one", "--z0", repr(z0_nm), "--b", repr(b_nm),
                "--kinetic-eV", repr(kinetic), *fmt], "expect_code": 0},
            {"kind": "variance_two_smallv", "argv": [
                "variance", "--plates", "two", "--mode", "small-v", "--z0", repr(z0_nm),
                "--a", repr(a_nm), "--kinetic-eV", repr(kinetic), *fmt], "expect_code": 0},
            {"kind": "correlator_dual", "argv": [
                "correlator", "--plates", "dual", "--z", repr(dual["z"]),
                "--z-prime", repr(dual["z_prime"]), "--t", repr(dual["t"]),
                "--a", repr(a), "--natural-units", *fmt], "expect_code": 0},
            {"kind": "moddel", "argv": [
                "moddel", "--voltage", repr(_log_uniform(rng, 1e-4, 1e-1)), *fmt],
             "expect_code": 0},
            {"kind": "sweep_two_exact", "argv": [
                "sweep", "--over", "v", "--values", ",".join(repr(s) for s in speeds),
                "--plates", "two", "--z0", repr(sweep_z0), "--b", repr(sweep_b), "--a", repr(a),
                "--natural-units", "--jobs", "2", *fmt], "expect_code": 0},
            # verify runs at its default seed: at some other seeds (about 1 in 60)
            # its quad_error_estimates_conservative check fails, a defect of the
            # oracle described in perfbench/README.md. Its JSON carries its
            # elapsed time, so it is always read as CSV.
            {"kind": "verify", "argv": ["verify", "--seed", "12345"], "expect_code": 0},
            {"kind": "refuse_input", "argv": (
                ["variance", "--plates", "one", "--z0", repr(pole_z0),
                 "--b", repr(2.0 * pole_v * pole_z0 / (1.0 - pole_v)), "--speed", repr(pole_v),
                 "--natural-units"] if cycle % 2 else
                ["variance", "--plates", "one", f"--z0={-z0_nm!r}", "--b", repr(b_nm),
                 "--kinetic-eV", repr(kinetic)]), "expect_code": 2},
            {"kind": "refuse_n_max", "argv": [
                "variance", "--plates", "two", "--z0", repr(sweep_z0), "--b", repr(sweep_b),
                "--a", repr(a), "--speed", repr(speeds[0]), "--natural-units",
                "--n-max", "5"], "expect_code": 3},
            {"kind": "refuse_verify", "argv": [
                "verify", "--inject-wrong-sign", "--seed", str(rng.randrange(1, 10**6))],
             "expect_code": 4},
        ]
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    return {"image_sums": image_sums_ops, "point_evals": point_evals_ops,
            "cli": cli_ops}[workload](seed)


def bind(op: dict, cv) -> "callable":
    """A zero-argument callable performing `op` through the package `cv`."""
    kind = op["kind"]
    if kind == "variance_two_plate_exact":
        a, z0, b, v, n_max = op["a"], op["z0"], op["b"], op["v"], op["n_max"]
        if n_max is None:
            return lambda: cv.variance_two_plate_exact(
                cv.Particle.electron(speed=v), cv.PathSegment(z0=z0, b=b, v=v), a)
        control = cv.SummationControl(n_max=n_max)
        return lambda: cv.variance_two_plate_exact(
            cv.Particle.electron(speed=v), cv.PathSegment(z0=z0, b=b, v=v), a, control)
    if kind == "variance_one_plate":
        z0, b, v = op["z0"], op["b"], op["v"]
        return lambda: cv.variance_one_plate(
            cv.Particle.electron(speed=v), cv.PathSegment(z0=z0, b=b, v=v))
    if kind == "rms_one_plate_smallv":
        z0, v = op["z0"], op["v"]
        return lambda: cv.rms_one_plate_smallv(cv.Particle.electron(speed=v), z0)
    if kind == "variance_two_plate_smallv":
        z0, a, v = op["z0"], op["a"], op["v"]
        return lambda: cv.variance_two_plate_smallv(cv.Particle.electron(speed=v), z0, a)
    if kind == "validity_window":
        z0, b, v = op["z0"], op["b"], op["v"]
        return lambda: cv.validity_window(cv.PathSegment(z0=z0, b=b, v=v))
    if kind == "correlator_single_plate":
        t, z, tp, zp = op["t"], op["z"], op["t_prime"], op["z_prime"]
        return lambda: cv.correlator_single_plate(
            cv.SpacetimePair(t=t, z=z, t_prime=tp, z_prime=zp))
    if kind == "correlator_dual_plate":
        t, z, tp, zp, a = op["t"], op["z"], op["t_prime"], op["z_prime"], op["a"]
        return lambda: cv.correlator_dual_plate(
            cv.SpacetimePair(t=t, z=z, t_prime=tp, z_prime=zp), a)
    if kind == "rms_estimate_eV":
        kinetic, z0_nm = op["kinetic_eV"], op["z0_nm"]
        return lambda: cv.rms_estimate_eV(kinetic, z0_nm)
    if kind == "regime_classify":
        freq, thick, dist = op["plasma_frequency_eV"], op["thickness_nm"], op["distance_nm"]
        return lambda: cv.regime_classify(
            cv.MaterialMirror(name="layer", plasma_frequency_eV=freq, thickness_nm=thick), dist)
    raise ValueError(f"unknown operation kind {kind!r}")


def summarize(op: dict, outcome) -> list:
    """A JSON-able, deterministic digest of one operation's result or error."""
    if isinstance(outcome, BaseException):
        return ["raised", [cls.__name__ for cls in type(outcome).__mro__]]
    kind = op["kind"]
    if kind in ("variance_two_plate_exact", "variance_one_plate", "rms_one_plate_smallv",
                "variance_two_plate_smallv"):
        return ["ok", outcome.variance_eV2, outcome.rms_energy_eV, outcome.terms_used,
                outcome.tail_estimate_eV2]
    if kind == "validity_window":
        return ["ok", outcome.lower_bound, outcome.upper_bound, outcome.pole_entry,
                outcome.inside, outcome.below_window]
    if kind == "correlator_dual_plate":
        return ["ok", outcome.value, outcome.terms_used, outcome.tail_estimate]
    if kind == "regime_classify":
        return ["ok", outcome.regime, outcome.omega_p_distance, outcome.omega_p_thickness]
    if kind in ("correlator_single_plate", "rms_estimate_eV"):
        return ["ok", outcome]
    # cli: (exit code, stdout); stderr carries timings and messages only
    code, stdout = outcome
    return ["exit", code, stdout]
