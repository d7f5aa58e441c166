"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine the speed of one core swings by tens of percent over
seconds as other tenants come and go, and CPU time slows down together with
wall time, so neither clock cancels it. The benchmark therefore times this
loop right after the work it measures and reports every time scaled to the
loop's nominal duration: time * NOMINAL_NS / loop time. The loop does what
casvolt's hot paths do (Python calls, float arithmetic, `math.log1p`) and
calls nothing from casvolt, so a change to the library cannot move it.
Unscaled times are kept in the run's record next to the scaled ones.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter_ns

_ITERATIONS = 4000
# the loop's duration on the reference machine (2-core Xeon, Python 3.11)
NOMINAL_NS = 1_000_000
# a bare interpreter start on the same machine
NOMINAL_START_NS = 60_000_000


def _step(x: float, v: float) -> float:
    return math.log1p(x * v) / (x * x + v)


def _once() -> int:
    start = perf_counter_ns()
    total = 0.0
    for i in range(1, _ITERATIONS + 1):
        total += _step(i * 1e-3, 0.5)
    elapsed = perf_counter_ns() - start
    if not total > 0.0:
        raise ArithmeticError("calibration loop produced no result")
    return elapsed


def loop_ns(repeats: int = 1) -> float:
    """Wall time of the calibration loop in ns, the median of `repeats` runs."""
    return statistics.median(_once() for _ in range(repeats))


def _start_once() -> int:
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter_ns() - start


def interpreter_start_ns(repeats: int = 1) -> float:
    """Wall time of starting and stopping a bare interpreter in ns, the
    median of `repeats` starts."""
    return statistics.median(_start_once() for _ in range(repeats))
