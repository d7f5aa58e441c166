"""Span recording around calls into casvolt's public functions.

The tracer replaces each traced function at every module attribute that
holds it (the names callers look up, such as
`casvolt.variance.sum_symmetric_images` or
`casvolt.closed_forms.reflection_antiderivative`), and wraps the `pair_term`
and `tail_bound` callables handed to `sum_symmetric_images`. The library is
not modified on disk.

Spans stay in memory. A root span (one benchmark operation) is one record;
below a root, calls with the same name under the same parent record are
merged into one record that keeps the first start, last end, number of
calls, summed duration and summed duration of its children, so an image sum
of ten thousand pairs costs a handful of records instead of two hundred
thousand. Self time is a record's duration minus its children's.
"""
from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter_ns

# (defining module, function) -> the layer group its span counts towards; the
# span itself is named "<module>.<function>"
TRACED = {
    ("closed_forms", "reflection_antiderivative"): "closed_forms.antiderivative",
    ("closed_forms", "translation_antiderivative"): "closed_forms.antiderivative",
    ("closed_forms", "reflected_image_integral"): "closed_forms.image_integral",
    ("closed_forms", "translated_image_integral"): "closed_forms.image_integral",
    ("closed_forms", "one_plate_integral"): "closed_forms.one_plate_integral",
    ("summation", "sum_symmetric_images"): "summation.sum",
    ("variance", "variance_two_plate_exact"): "variance.two_plate_exact",
    ("variance", "variance_one_plate"): "variance.one_plate",
    ("variance", "rms_one_plate_smallv"): "variance.smallv",
    ("variance", "variance_two_plate_smallv"): "variance.smallv",
    ("variance", "validity_window"): "variance.validity_window",
    ("correlators", "correlator_dual_plate"): "correlators.dual",
    ("correlators", "correlator_single_plate"): "correlators.single",
    ("experiment", "rms_estimate_eV"): "experiment",
    ("experiment", "minkowski_rms"): "experiment",
    ("experiment", "enhancement_ratio"): "experiment",
    ("experiment", "regime_classify"): "experiment",
    ("experiment", "load_scenario"): "experiment",
    ("experiment", "moddel_report"): "experiment",
    ("oracle", "run_verification"): "oracle.run_verification",
    ("oracle", "quad_one_plate"): "oracle.quad",
    ("oracle", "quad_image"): "oracle.quad",
    ("oracle", "deriv_check"): "oracle.deriv_check",
    ("cli", "main"): "cli.main",
}
PAIR_TERM = "summation.pair_term"
TAIL_BOUND = "summation.tail_bound"
GROUP = {f"{module}.{fn}": group for (module, fn), group in TRACED.items()}
GROUP.update({PAIR_TERM: PAIR_TERM, TAIL_BOUND: TAIL_BOUND})
MODULES = ("closed_forms", "summation", "variance", "correlators", "experiment", "oracle",
           "cli")

# record fields
NAME, PARENT, START, END, CALLS, BUSY, CHILD, WORK = range(8)


# work counted from a public result: image pairs or quadrature subdivisions
WORK_FIELD = {"summation.sum": "terms_used", "correlators.dual": "terms_used",
              "oracle.quad": "subdivisions"}


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch the package."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._children: dict[tuple[int, str], list] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, parent: list | None) -> list:
        record = [name, parent, 0, 0, 0, 0, 0, 0]
        self.records.append(record)
        return record

    def span(self, name: str, fn, args, kwargs, root: bool = False, work: str | None = None):
        """Call fn(*args, **kwargs) inside a span; `work` names the result
        field whose value is added to the record's work count."""
        stack = self._stack()
        parent = stack[-1] if stack and not root else None
        if parent is None:
            record = self._record(name, None)
        else:
            key = (id(parent), name)
            record = self._children.get(key)
            if record is None:
                record = self._children[key] = self._record(name, parent)
        stack.append(record)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            if not record[CALLS]:
                record[START] = start
            record[END] = end
            record[CALLS] += 1
            record[BUSY] += duration
            if stack:
                stack[-1][CHILD] += duration
        if work is not None:
            record[WORK] += getattr(result, work)
        return result

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK_FIELD.get(GROUP[name])
        if GROUP[name] == "summation.sum":
            @functools.wraps(fn)
            def traced(pair_term, tail_bound, *args, **kwargs):
                def traced_pair(n):
                    return tracer.span(PAIR_TERM, pair_term, (n,), {})

                def traced_tail(n):
                    return tracer.span(TAIL_BOUND, tail_bound, (n,), {})

                return tracer.span(name, fn, (traced_pair, traced_tail, *args), kwargs,
                                   work=work)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs, work=work)
        return traced

    def install(self) -> None:
        """Replace every traced function at each module attribute that holds it."""
        wrappers = {}
        for module_name, attr in TRACED:
            module = importlib.import_module(f"casvolt.{module_name}")
            original = getattr(module, attr, None)
            if original is not None:
                wrappers[id(original)] = (original, self._wrap(f"{module_name}.{attr}", original))
        package = importlib.import_module("casvolt")
        namespaces = [package] + [importlib.import_module(f"casvolt.{m}") for m in MODULES]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def dump(self, handle, group: str) -> None:
        """Write every record as one JSON line: group, index, parent index,
        name, first start and last end (ns), calls, busy and child ns, work."""
        index = {id(record): i for i, record in enumerate(self.records)}
        for i, record in enumerate(self.records):
            parent = record[PARENT]
            handle.write(json.dumps([
                group, i, None if parent is None else index[id(parent)], record[NAME],
                record[START], record[END], record[CALLS], record[BUSY], record[CHILD],
                record[WORK],
            ]) + "\n")


def layer_totals(records: list[list]) -> dict[str, dict[str, int]]:
    """Per layer group: calls, busy ns, self ns and work, summed over records.

    Root spans (benchmark operations, not library calls) are left out."""
    totals: dict[str, dict[str, int]] = {}
    for record in records:
        group = GROUP.get(record[NAME])
        if group is None:
            continue
        entry = totals.setdefault(group, {"calls": 0, "busy": 0, "self": 0, "work": 0})
        entry["calls"] += record[CALLS]
        entry["busy"] += record[BUSY]
        entry["self"] += record[BUSY] - record[CHILD]
        entry["work"] += record[WORK]
    return totals
