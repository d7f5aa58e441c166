"""casvolt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload image_sums --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
The timed work happens in `worker.py`, spawned as a fresh interpreter; this
process measures set-up time, computes reference values after the worker has
exited, checks every distinct output, and prints the metrics. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json and
with --trace 1 its per-layer metrics. A full record (machine, settings,
per-op counts) is written to .perfbench/ in the repository root, and the
traced run's spans next to it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 7
# interpreter and import probes of the traced run, median of this many
PROBE_REPEATS = 5
WORKER_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def _env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _spawn_worker(args, extra: list[str]) -> tuple[float, dict]:
    """Run worker.py to completion; returns its spawn time and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {done.returncode}:\n{done.stderr}")
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


def _wall_ms(cmd: list[str]) -> tuple[float, str]:
    """Wall time of a subprocess (ms, unscaled) and its standard error."""
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60, check=True)
    return (time.perf_counter() - start) * 1e3, done.stderr


def _import_ms(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `-X importtime` output; 0 when
    the import did not load it."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    return 0.0


def cli_probes() -> dict[str, float]:
    """Cold-start costs: bare interpreter, `import casvolt`, and numpy within it."""
    interpreter, imports, numpy_imports = [], [], []
    for _ in range(PROBE_REPEATS):
        interpreter.append(_wall_ms([sys.executable, "-c", "pass"])[0])
        stderr = _wall_ms([sys.executable, "-X", "importtime", "-c", "import casvolt"])[1]
        imports.append(_import_ms(stderr, "casvolt"))
        numpy_imports.append(_import_ms(stderr, "numpy"))
    return {"cli.interpreter_ms": statistics.median(interpreter),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpy_imports)}


def references(ops: list[dict]) -> list:
    """Reference values for every operation, computed by two `checks.py`
    processes that each take every other operation, costliest first."""
    order = sorted(range(len(ops)), key=lambda i: ops[i].get("v", 1.0))
    shares = [order[0::2], order[1::2]]
    procs = [subprocess.Popen([sys.executable, str(HERE / "checks.py")], cwd=ROOT, env=_env(),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for _ in shares]
    for proc, share in zip(procs, shares):
        proc.stdin.write(json.dumps([ops[i] for i in share]))
        proc.stdin.close()
    refs = [None] * len(ops)
    for proc, share in zip(procs, shares):
        computed = json.loads(proc.stdout.read())
        proc.stdout.close()
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise RuntimeError(f"reference process failed with exit code {proc.returncode}")
        for i, ref in zip(share, computed):
            refs[i] = ref
    return refs


def grade(ops: list[dict], outcomes: list[dict], refs: list) -> tuple[int, int, dict]:
    """Attempted and failed operation counts, and failures per operation kind."""
    import checks

    attempted = failed = 0
    failures: dict[str, int] = {}
    for op, seen, ref in zip(ops, outcomes, refs):
        for key, count in seen.items():
            attempted += count
            if not checks.check(op, json.loads(key), ref):
                failed += count
                failures[op["kind"]] = failures.get(op["kind"], 0) + count
    return attempted, failed, failures


def _timings(ops: int, passes: dict, kind: str) -> dict[str, float]:
    """ops_per_s (median over passes), p50 and tail latency (ms) over the
    operations' median latencies, from the scaled or the raw times."""
    per_op = sorted(passes[f"op_{kind}_ns"])
    return {"ops_per_s": statistics.median(ops / (t / 1e9) for t in passes[f"pass_{kind}_ns"]),
            "latency_ms_p50": statistics.median(per_op) / 1e6,
            "latency_ms_tail": per_op[ops - TAIL_BEYOND - 1] / 1e6}


def end_to_end(report: dict, setups: list[float]) -> tuple[dict[str, float], dict]:
    ops, passes = report["ops"], report["untraced"]
    metrics = _timings(ops, passes, "scaled")
    metrics.update(setup_s=statistics.median(setups),
                   peak_rss_mb=report["peak_rss_kb"] / 1024.0)
    return metrics, {"tail_percentile": 100.0 * (ops - TAIL_BEYOND) / ops,
                     "tail_samples_beyond": TAIL_BEYOND, "latency_samples": ops,
                     "passes": len(passes["pass_raw_ns"]),
                     "unscaled": _timings(ops, passes, "raw"),
                     "calibration_ns_median": statistics.median(passes["calibration_ns"])}


def per_layer(report: dict, probes: dict[str, float]) -> dict[str, float]:
    """Layer metrics per pass of the operation list plus the one cli probe cycle."""
    groups = {}
    for source in (report["layers_per_pass"], report["layers_probe"]):
        for group, entry in source.items():
            total = groups.setdefault(group, {"calls": 0, "busy": 0, "self": 0, "work": 0})
            for field, value in entry.items():
                total[field] += value

    scale = calibration.NOMINAL_NS / statistics.median(
        report["traced"]["calibration_ns"] + [report["probe_calibration_ns"]])

    def get(group: str, field: str) -> float:
        value = groups.get(group, {}).get(field, 0)
        return value * scale / 1e6 if field in ("busy", "self") else value

    untraced = statistics.median(1 / t for t in report["untraced"]["pass_scaled_ns"])
    traced = statistics.median(1 / t for t in report["traced"]["pass_scaled_ns"])
    return {
        "closed_forms.antiderivative.calls": get("closed_forms.antiderivative", "calls"),
        "closed_forms.antiderivative.self_ms": get("closed_forms.antiderivative", "self"),
        "closed_forms.image_integral.calls": get("closed_forms.image_integral", "calls"),
        "closed_forms.image_integral.self_ms": get("closed_forms.image_integral", "self"),
        "closed_forms.one_plate_integral.self_ms": get("closed_forms.one_plate_integral",
                                                       "self"),
        "summation.calls": get("summation.sum", "calls"),
        "summation.pairs": get("summation.sum", "work"),
        "summation.self_ms": get("summation.sum", "self"),
        "summation.pair_term.self_ms": get("summation.pair_term", "self"),
        "summation.tail_bound.ms": get("summation.tail_bound", "busy"),
        "variance.two_plate_exact.self_ms": get("variance.two_plate_exact", "self"),
        "variance.one_plate.self_ms": get("variance.one_plate", "self"),
        "variance.smallv.self_ms": get("variance.smallv", "self"),
        "correlators.dual.calls": get("correlators.dual", "calls"),
        "correlators.dual.pairs": get("correlators.dual", "work"),
        "correlators.dual.ms": get("correlators.dual", "busy"),
        "correlators.single.self_ms": get("correlators.single", "self"),
        "experiment.self_ms": get("experiment", "self"),
        "oracle.run_verification.ms": get("oracle.run_verification", "busy"),
        "oracle.quad.calls": get("oracle.quad", "calls"),
        "oracle.quad.subdivisions": get("oracle.quad", "work"),
        "oracle.quad.ms": get("oracle.quad", "busy"),
        "oracle.deriv_check.ms": get("oracle.deriv_check", "busy"),
        "cli.main_ms": get("cli.main", "busy") / get("cli.main", "calls"),
        **probes,
        "trace.overhead_frac": untraced / traced - 1.0,
    }


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def revision() -> dict:
    """The git commit when the tree is a checkout, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "casvolt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    import workloads  # does not import casvolt

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run (whole passes of the operation list)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "casvolt" / "__init__.py").is_file():
        print(f"error: no casvolt sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    import checks

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.make_ops(args.workload, args.seed)
    setups = []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        spawned, early = _spawn_worker(args, ["--setup-only"])
        # set-up is mostly process start and imports: scale it by bare
        # interpreter starts timed right after
        setups.append((early["first_op"] - spawned) * calibration.NOMINAL_START_NS
                      / calibration.interpreter_start_ns(3))
    spans = OUT / f"spans-{stem}.jsonl"
    _, report = _spawn_worker(args, ["--spans", str(spans)] if args.trace else [])

    attempted, failed, failures = grade(ops, report["outcomes"], references(ops))
    settings = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "ops_per_pass": len(ops),
                "ops_per_kind": {k: sum(op["kind"] == k for op in ops)
                                 for k in sorted({op["kind"] for op in ops})},
                "summation_tol": checks.TOL, "setup_samples": setups}
    if args.trace:
        values = per_layer(report, cli_probes())
        settings.update(passes=len(report["untraced"]["pass_raw_ns"]),
                        traced_passes=len(report["traced"]["pass_raw_ns"]),
                        spans_file=spans.name)
    else:
        values, stats = end_to_end(report, setups)
        values["ok_frac"] = (attempted - failed) / attempted
        settings.update(stats)
    metrics = {m["name"]: {"value": round(values[m["name"]]) if m["unit"] == "count"
                           else values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"result": result, "failures_by_kind": failures, "settings": settings,
              "machine": machine(), "revision": revision()}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"casvolt benchmark: {json.dumps(settings)}")
    print(f"machine: {json.dumps(record['machine'])} revision: {json.dumps(record['revision'])}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.7g} {metric['unit']}")
    if failures:
        print(f"failed operations by kind: {json.dumps(failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
