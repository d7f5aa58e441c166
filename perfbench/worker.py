"""The timed process of one benchmark run; `run.py` spawns it.

It imports casvolt, builds the seeded operation list, warms up, and then runs
the whole list in passes until the time budget is spent (always at least one
pass, never a partial one). One caller, closed loop: each operation starts
when the previous one has returned. It prints one JSON line with the
operation time of each pass and each operation's median latency over the
passes, both unscaled and scaled by the calibration (see calibration.py), a
digest of every distinct result each operation produced, and peak memory.
With --setup-only it stops where the first timed operation would start and
prints only that moment.

With --trace 1 half the budget runs untraced and half under the tracer,
followed by one traced in-process cycle of the cli commands (the cli layer
probe, so every layer shows up in every traced run); the spans are written
to --spans when the run ends.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter_ns

import calibration
import workloads
from tracer import Tracer, layer_totals

import casvolt

_CLI_TIMEOUT_S = 120.0
_CAL_EVERY_NS = 20_000_000
_CHEAP_SUM = {"kind": "variance_two_plate_exact", "a": 1.0, "z0": 0.3, "b": 0.1, "v": 0.1,
              "n_max": None}
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(workloads.SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def _cli_subprocess(argv: list[str]):
    def run():
        done = subprocess.run(
            [sys.executable, "-m", "casvolt", *argv], cwd=workloads.ROOT, env=_CLI_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=_CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout
    return run


def _cli_in_process(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = casvolt.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    return run


def bind_all(workload: str, ops: list[dict], in_process: bool) -> list:
    if workload == "cli":
        make = _cli_in_process if in_process else _cli_subprocess
        return [make(op["argv"]) for op in ops]
    return [workloads.bind(op, casvolt) for op in ops]


def warmup(workload: str, ops: list[dict], calls: list) -> None:
    """Run each kind of operation once, untimed. The image sums warm up on a
    cheap fixed sum and a refusal (the list's own sums take up to 0.3 s), the
    cli on one `moddel` subprocess."""
    if workload == "image_sums":
        workloads.bind(_CHEAP_SUM, casvolt)()
    done = set()
    for op, call in zip(ops, calls):
        key = (op["kind"], op.get("expect"))
        skip = ((workload == "image_sums" and op["expect"] is None)
                or (workload == "cli" and op["kind"] != "moddel"))
        if not skip and key not in done:
            done.add(key)
            try:
                call()
            except Exception:
                pass  # refusals raise; the timed passes check every outcome


def run_passes(ops: list[dict], calls: list, seconds: float, seen: list[dict],
               wrap=None, calibrate=calibration.loop_ns,
               nominal: float = calibration.NOMINAL_NS) -> dict:
    """Whole passes over `calls` until `seconds` have elapsed.

    The calibration runs after any operation that ends 20 ms or more after
    the previous calibration, and at the end of each pass; each operation is
    scaled by the median of the five calibrations nearest to it (the first
    one after it, two before that and two after). Returns per pass
    the unscaled and scaled sums of operation times, each operation's median
    unscaled and scaled latency over the passes (ns), and the calibration
    samples."""
    if wrap is not None:
        calls = [wrap(op, call) for op, call in zip(ops, calls)]
    count = len(calls)
    raw, scaled, samples = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        lat = [0] * count
        slot = [0] * count  # index of the first calibration after each operation
        results = [None] * count
        pass_samples = []
        last_cal = perf_counter_ns()
        for i, call in enumerate(calls):
            start = perf_counter_ns()
            try:
                result = call()
            except Exception as exc:  # checked against the expected refusal below
                result = exc
            end = perf_counter_ns()
            lat[i] = end - start
            results[i] = result
            slot[i] = len(pass_samples)
            if end - last_cal >= _CAL_EVERY_NS or i == count - 1:
                pass_samples.append(calibrate())
                last_cal = perf_counter_ns()
        samples += pass_samples
        smooth = [statistics.median(pass_samples[max(0, k - 2):k + 3])
                  for k in range(len(pass_samples))]
        cal = [smooth[k] for k in slot]
        if not raw:
            # peak memory through the first pass, before later passes' bookkeeping
            rss_kb = {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        raw.append(lat)
        scaled.append([t * nominal / c for t, c in zip(lat, cal)])
        for i, result in enumerate(results):
            key = json.dumps(workloads.summarize(ops[i], result))
            seen[i][key] = seen[i].get(key, 0) + 1
        if time.monotonic() >= deadline:
            return {
                "pass_raw_ns": [sum(p) for p in raw],
                "pass_scaled_ns": [sum(p) for p in scaled],
                "op_raw_ns": [statistics.median(c) for c in zip(*raw)],
                "op_scaled_ns": [statistics.median(c) for c in zip(*scaled)],
                "calibration_ns": samples,
                "first_pass_peak_rss_kb": rss_kb,
            }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    ops = workloads.make_ops(args.workload, args.seed)
    # the cli workload runs subprocesses, except in the traced run, whose
    # spans can only be recorded in this process
    subprocesses = args.workload == "cli" and not args.trace
    if args.trace or args.workload == "cli":
        import casvolt.cli  # noqa: F401  (the in-process cli operations call it)
    calls = bind_all(args.workload, ops, in_process=not subprocesses)
    warmup(args.workload, ops, calls)
    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    seen: list[dict] = [{} for _ in ops]
    report = {"first_op": first_op, "ops": len(ops)}
    budget = args.seconds / 2.0 if args.trace else args.seconds
    if subprocesses:
        report["untraced"] = run_passes(ops, calls, budget, seen,
                                        calibrate=calibration.interpreter_start_ns,
                                        nominal=calibration.NOMINAL_START_NS)
    else:
        report["untraced"] = run_passes(ops, calls, budget, seen)
    report["peak_rss_kb"] = report["untraced"]["first_pass_peak_rss_kb"][
        "children" if subprocesses else "self"]

    if args.trace:
        op_tracer = Tracer()
        op_tracer.install()
        try:
            report["traced"] = run_passes(
                ops, calls, budget, seen,
                wrap=lambda op, call: (lambda: op_tracer.span(f"op.{op['kind']}", call, (), {},
                                                              root=True)))
        finally:
            op_tracer.uninstall()
        probe_ops = workloads.cli_ops(args.seed, cycles=1)
        probe_calls = [_cli_in_process(op["argv"]) for op in probe_ops]
        probe_tracer = Tracer()
        probe_tracer.install()
        try:
            for op, call in zip(probe_ops, probe_calls):
                probe_tracer.span(f"probe.{op['kind']}", call, (), {}, root=True)
        finally:
            probe_tracer.uninstall()
        passes = len(report["traced"]["pass_raw_ns"])
        report.update(
            layers_per_pass={
                group: {field: value / passes for field, value in entry.items()}
                for group, entry in layer_totals(op_tracer.records).items()
            },
            layers_probe=layer_totals(probe_tracer.records),
            probe_calibration_ns=calibration.loop_ns(5),
        )
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                op_tracer.dump(handle, "ops")
                probe_tracer.dump(handle, "cli_probe")

    report["outcomes"] = seen
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
