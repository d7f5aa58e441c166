"""Import boundary: `import casvolt` imports no submodule, each command
loads only the modules it runs, the oracle loads on first use, and numpy
only with a long two-plate pair block or brute_dual_correlator; verify runs
without it. Once loaded, a two-plate sum compiles no code.

Each check runs in a fresh interpreter, because this test session has long
since imported all of them; the n_max refusal is also checked in process,
with the image engine taken out of sys.modules."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casvolt

SRC = Path(__file__).resolve().parents[1] / "src"
ORACLE_NAMES = [
    "CscSeriesComparison",
    "DerivativeReport",
    "QuadratureResult",
    "VerificationReport",
    "brute_dual_correlator",
    "csc_identity",
    "deriv_check",
    "quad_image",
    "quad_one_plate",
    "run_verification",
    "variance_two_plate_series_smallv",
    "zeta_two_series",
]
# the small-speed series cross-checks live in the oracle only
SERIES_CHECKS = ["CscSeriesComparison", "csc_identity", "zeta_two_series",
                 "variance_two_plate_series_smallv", "_series_tail_bound"]
LOADED = "{m: m in sys.modules for m in ('numpy', 'casvolt.oracle')}"


def _fresh(code: str):
    """Run code in a new interpreter with src on the path; the JSON value of
    its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["casvolt", "casvolt.cli"])
def test_import_leaves_oracle_and_numpy_unloaded(module):
    loaded = _fresh(f"import json, sys\nimport {module}\nprint(json.dumps({LOADED}))")
    assert loaded == {"numpy": False, "casvolt.oracle": False}


@pytest.mark.parametrize("argv", [
    ["variance", "--plates", "one", "--z0", "100", "--b", "10", "--kinetic-eV", "1"],
    ["variance", "--plates", "two", "--mode", "small-v", "--z0", "30", "--a", "100",
     "--kinetic-eV", "1"],
    ["moddel"],
    ["correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4", "--t", "0.2",
     "--a", "1", "--natural-units"],
    # two-plate sums whose pair blocks hold at most _SCALAR_BLOCK indices: 22 here
    ["variance", "--plates", "two", "--mode", "exact", "--z0", "0.3", "--b", "0.1", "--a", "1",
     "--speed", "0.01", "--natural-units"],
    ["sweep", "--over", "v", "--values", "0.015,0.03,0.07", "--plates", "two", "--z0", "0.3",
     "--b", "0.1", "--a", "1", "--natural-units"],
])
def test_commands_without_the_oracle_run_without_numpy(argv):
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from casvolt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert code == 0
    assert loaded == {"numpy": False, "casvolt.oracle": False}


@pytest.mark.parametrize("argv, expected", [
    (["verify"], 0),
    (["verify", "--inject-wrong-sign"], 4),
])
def test_verify_runs_the_oracle_without_numpy(argv, expected):
    # the oracle's quadrature is pure Python, so verify, passing or failing,
    # has no use for numpy
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from casvolt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert code == expected
    assert loaded == {"numpy": False, "casvolt.oracle": True}


def test_brute_dual_correlator_loads_numpy():
    loaded = _fresh(
        "import json, sys\n"
        "from casvolt import brute_dual_correlator\n"
        "brute_dual_correlator(0.2, 0.3, 0.0, 0.4, 1.0, n_terms=10)\n"
        f"print(json.dumps({LOADED}))"
    )
    assert loaded == {"numpy": True, "casvolt.oracle": True}


def test_two_plate_n_max_refusal_runs_without_numpy():
    # an n_max below the reference index refuses before any pair term, so
    # the refusal has no use for numpy
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from casvolt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['variance', '--plates', 'two', '--z0', '0.3', '--b', '0.1', "
        "'--a', '1', '--speed', '0.01', '--natural-units', '--n-max', '5'])\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert code == 3
    assert loaded == {"numpy": False, "casvolt.oracle": False}


def test_two_plate_n_max_refusal_leaves_the_image_engine_unloaded(monkeypatch):
    # n_U and n_ref are variance's and the refusal summation's, so the refusal
    # loads no casvolt.images, even in a session whose variance has bound it before
    from casvolt import variance

    monkeypatch.delitem(sys.modules, "casvolt.images", raising=False)
    monkeypatch.delattr(casvolt, "images", raising=False)
    monkeypatch.setattr(variance, "_images", None)
    seg = casvolt.PathSegment(z0=0.3, b=0.1, v=0.01)
    with pytest.raises(casvolt.ConvergenceError,
                       match=r"within n_max=5 terms \(last tail bound inf\)$"):
        casvolt.variance_two_plate_exact(casvolt.Particle.electron(speed=0.01), seg, 1.0,
                                         casvolt.SummationControl(n_max=5))
    assert "casvolt.images" not in sys.modules


class _Unloaded:
    """Stands in for the image engine: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the refusal reached casvolt.images.{name}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), uz=st.floats(0.02, 0.9), ub=st.floats(0.02, 0.5),
       log_v=st.floats(-5.99, -0.01), n_max=st.integers(1, 8))
def test_an_n_max_below_the_reference_floor_refuses_before_the_engine(a, uz, ub, log_v, n_max):
    # every n_ref is at least _REFERENCE_FLOOR = 9, so any n_max up to 8
    # refuses at every geometry without touching the image engine
    from unittest import mock

    from casvolt import variance

    z0 = uz * a
    b, v = ub * (a - z0), 10.0**log_v
    assert n_max < variance._REFERENCE_FLOOR
    with mock.patch.object(variance, "_images", _Unloaded()):
        with pytest.raises(casvolt.ConvergenceError,
                           match=rf"within n_max={n_max} terms \(last tail bound inf\)$"):
            casvolt.variance_two_plate_exact(casvolt.Particle.electron(speed=v),
                                             casvolt.PathSegment(z0=z0, b=b, v=v), a,
                                             casvolt.SummationControl(n_max=n_max))


@pytest.mark.parametrize("v, a", [
    (1e-6, 1.0), (9e-7, 1.0), (0.99, 1.0), (0.995, 1.0),
    (0.01, float("nan")), (0.01, float("inf")), (0.01, 1.01e60), (0.01, 2e60),
    (0.01, 0.4), (0.01, 0.35),
], ids=["v-floor", "v-below", "v-ceiling", "v-above", "a-nan", "a-inf", "a-above-window",
        "a-far-above-window", "a-at-z0+b", "a-below-z0+b"])
def test_the_engines_precondition_is_checked_before_it(v, a):
    # the image engine checks neither v nor a: variance_two_plate_exact holds
    # v in (1e-6, 0.99) and z0 + b < a <= 1e60 (z0 + b = 0.4 here) before it
    from unittest import mock

    from casvolt import variance

    with mock.patch.object(variance, "_images", _Unloaded()):
        with pytest.raises(casvolt.DomainError):
            casvolt.variance_two_plate_exact(casvolt.Particle.electron(speed=v),
                                             casvolt.PathSegment(z0=0.3, b=0.1, v=v), a)


def test_two_plate_sum_with_a_long_block_loads_numpy():
    # at v = 1e-3 the first pair block holds 128 indices, past _SCALAR_BLOCK,
    # and takes the numpy kernel
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from casvolt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['variance', '--plates', 'two', '--z0', '0.3', '--b', '0.1', "
        "'--a', '1', '--speed', '0.001', '--natural-units'])\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert code == 0
    assert loaded == {"numpy": True, "casvolt.oracle": False}


# the record classes are built without dataclasses, which imports inspect;
# both cost several ms of every cold start
HEAVY = ("dataclasses", "inspect")
VARIANCE_ONE = ["variance", "--plates", "one", "--z0", "100", "--b", "10", "--kinetic-eV", "1"]


@pytest.mark.parametrize("run", [
    "import casvolt",
    "import contextlib, io, runpy\n"
    f"sys.argv = ['casvolt', *{VARIANCE_ONE!r}]\n"
    "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
    "    runpy.run_module('casvolt', run_name='__main__', alter_sys=True)",
], ids=["import casvolt", "python -m casvolt variance"])
def test_records_load_neither_dataclasses_nor_inspect(run):
    added = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{run}\n"
        f"print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "casvolt" in added
    assert [name for name in HEAVY if name in added] == []


def test_oracle_names_resolve_to_the_oracle_objects():
    same, star = _fresh(
        "import json\n"
        "import casvolt\n"
        f"names = {ORACLE_NAMES!r}\n"
        "resolved = {name: getattr(casvolt, name) for name in names}\n"
        "import casvolt.oracle as oracle\n"
        "same = [getattr(oracle, name) is resolved[name] for name in names]\n"
        "namespace = {}\n"
        "exec('from casvolt import *', namespace)\n"
        "star = sorted(set(casvolt.__all__) - set(namespace))\n"
        "print(json.dumps([same, star]))"
    )
    assert same == [True] * len(ORACLE_NAMES)
    assert star == []
    assert set(ORACLE_NAMES) <= set(casvolt.__all__)


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'casvolt' has no attribute 'no_such_name'"):
        casvolt.no_such_name


def test_series_cross_checks_live_outside_production():
    import casvolt.oracle as oracle
    import casvolt.variance as variance

    assert [name for name in SERIES_CHECKS if hasattr(variance, name)] == []
    # the oracle shares no summation engine with production
    assert [name for name, value in vars(oracle).items()
            if getattr(value, "__module__", None) == "casvolt.summation"] == []


# every module but the oracle
PRODUCTION_MODULES = ["closed_forms", "correlators", "errors", "experiment", "images",
                      "summation", "units", "variance"]
# casvolt.__all__, sorted; a name joins or leaves the package surface here
# and in its module's __all__ together
PUBLIC = [
    "CONSTANTS", "CasvoltError", "Constants", "ConvergenceError", "CscSeriesComparison",
    "DEFAULT_SCENARIO", "DerivativeReport", "DomainError", "EnhancementRatio",
    "ExperimentConfig", "FluctuationResult", "MaterialMirror", "ModdelRow", "Particle",
    "PathSegment", "PoleInsideDomainError", "QuadratureResult", "RegimeReport",
    "SingularityError", "SpacetimePair", "SummationControl", "SummationResult",
    "VerificationReport", "WindowReport", "__version__", "brute_dual_correlator",
    "charge_natural", "correlator_dual_plate", "correlator_single_plate", "csc_identity",
    "deriv_check", "enhancement_ratio", "kinetic_from_speed", "length_to_natural",
    "load_scenario", "minkowski_rms", "moddel_report", "one_plate_integral",
    "one_plate_integral_smallv", "one_plate_kernel", "quad_image", "quad_one_plate",
    "reflected_image_integral", "reflected_image_kernel", "regime_classify", "rms_estimate_eV",
    "rms_one_plate_smallv", "run_verification", "speed_from_kinetic",
    "translated_image_integral", "translated_image_kernel", "validity_window",
    "variance_one_plate", "variance_two_plate_exact", "variance_two_plate_series_smallv",
    "variance_two_plate_smallv", "zeta_two_series",
]


def _modules():
    from importlib import import_module

    return {name: import_module(f"casvolt.{name}") for name in PRODUCTION_MODULES}


def test_package_exports_the_modules_lists():
    declared = [name for module in _modules().values() for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert casvolt.__all__ == sorted({*declared, *ORACLE_NAMES, "__version__"})
    assert casvolt.__all__ == PUBLIC


def test_lazy_names_are_the_oracle_list():
    import casvolt.oracle as oracle

    assert sorted(casvolt._EXPORTS["oracle"]) == sorted(oracle.__all__) == ORACLE_NAMES
    declared = {name for module in _modules().values() for name in module.__all__}
    assert declared.isdisjoint(casvolt._EXPORTS["oracle"])


def test_every_export_is_its_modules_object():
    for name, module in _modules().items():
        for attr in module.__all__:
            assert getattr(casvolt, attr) is getattr(module, attr), (name, attr)


# the code that makes a public name earn its place: the package's modules,
# the benchmark, and the acceptance criteria
CALLER_FILES = [
    *sorted(path for path in (SRC / "casvolt").glob("*.py") if path.name != "__init__.py"),
    *sorted((SRC.parent / "perfbench").glob("*.py")),
    SRC.parent / "tests" / "test_acceptance.py",
]
# public names that stay without such a reference, each with its reason
UNREFERENCED = {
    # the defining kernel the oracle's inline quadrature kernel is checked
    # against (tests/test_oracle.py); reference code for the tests
    "reflected_image_kernel",
}


def _references(path: Path):
    """(name, the top-level def or class it sits in, or None) for every
    ast.Name load and every ast.Attribute in the file at path."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, scope
            elif isinstance(node, ast.Attribute):
                yield node.attr, scope


def test_every_public_name_is_referenced_outside_the_tests():
    # a name's own def or class does not count as its caller
    referenced = {name for path in CALLER_FILES for name, scope in _references(path)
                  if name != scope}
    unreached = sorted(set(casvolt._OWNER) - referenced - UNREFERENCED)
    assert not unreached, f"public names with no caller outside the tests: {unreached}"
    assert UNREFERENCED <= set(casvolt._OWNER) - referenced


# the modules the cli imports at module level: the exit-code mapping and the
# parser's defaults read them
CLI_BASE = ["cli", "errors", "summation", "units"]


# a two-plate exact sum, and only such a sum, loads the image-sum engine; an
# n_max refusal is checked before it
TWO_PLATE = ["--plates", "two", "--z0", "0.3", "--b", "0.1", "--a", "1", "--natural-units"]
VARIANCE_MODULES = [*CLI_BASE, "closed_forms", "variance"]


@pytest.mark.parametrize("argv, modules", [
    (None, []),
    (VARIANCE_ONE, VARIANCE_MODULES),
    (["variance", *TWO_PLATE, "--speed", "0.01"], [*VARIANCE_MODULES, "images"]),
    (["variance", *TWO_PLATE, "--speed", "0.01", "--n-max", "5"], VARIANCE_MODULES),
    (["variance", "--plates", "two", "--mode", "small-v", "--z0", "30", "--a", "100",
      "--kinetic-eV", "1"], VARIANCE_MODULES),
    (["variance", "--plates", "one", "--z0", "1e-300", "--b", "1e-300", "--speed", "0.01",
      "--natural-units"], VARIANCE_MODULES),
    (["sweep", "--over", "v", "--values", "0.015,0.03,0.07", *TWO_PLATE],
     [*VARIANCE_MODULES, "images"]),
    (["correlator", "--plates", "dual", "--z", "0.3", "--z-prime", "0.4", "--t", "0.2",
      "--a", "1", "--natural-units"], [*CLI_BASE, "correlators"]),
    (["moddel"], [*CLI_BASE, "experiment"]),
    # the oracle imports closed_forms; only its series variance loads variance
    (["verify"], [*CLI_BASE, "closed_forms", "oracle"]),
], ids=["import casvolt", "variance", "two-plate variance", "n_max refusal", "small-v",
        "one-plate refusal", "sweep", "correlator", "moddel", "verify"])
def test_each_run_loads_only_its_modules(argv, modules):
    run = "import casvolt" if argv is None else (
        "import contextlib, io, runpy\n"
        f"sys.argv = ['casvolt', *{argv!r}]\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    runpy.run_module('casvolt', run_name='__main__', alter_sys=True)"
    )
    loaded = _fresh(
        "import json, sys\n"
        f"{run}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('casvolt.'))))"
    )
    assert loaded == sorted(f"casvolt.{module}" for module in modules)


@pytest.mark.parametrize("module", ["casvolt.images", "casvolt.oracle"])
def test_engine_and_oracle_import_no_variance(module):
    # the module graph runs one way: variance loads images, and the oracle
    # loads variance only in the one check that builds its record
    loaded, after_series = _fresh(
        "import json, sys, types\n"
        f"import {module}\n"
        "loaded = 'casvolt.variance' in sys.modules\n"
        "from casvolt.oracle import variance_two_plate_series_smallv\n"
        "# a neutral particle that is not variance's Particle\n"
        "particle = types.SimpleNamespace(speed_value=0.01, charge_e=0.0)\n"
        "variance_two_plate_series_smallv(particle, 0.3, 1.0)\n"
        "print(json.dumps([loaded, 'casvolt.variance' in sys.modules]))"
    )
    assert loaded is False
    assert after_series is True


def test_every_name_resolves_after_a_bare_import():
    # names bind on first use, each module's whole row at once, so later
    # lookups are plain reads of the package namespace
    resolved = _fresh(
        "import json\n"
        "import casvolt\n"
        "before = sorted(set(casvolt.__all__) & set(vars(casvolt)))\n"
        "casvolt.PathSegment\n"
        "row = sorted(set(casvolt._EXPORTS['closed_forms']) - set(vars(casvolt)))\n"
        "from importlib import import_module\n"
        "modules = {module: import_module(f'casvolt.{module}') for module in casvolt._EXPORTS}\n"
        "wrong = [name for module, names in casvolt._EXPORTS.items() for name in names\n"
        "         if getattr(casvolt, name) is not getattr(modules[module], name)]\n"
        "rows = [module for module, names in casvolt._EXPORTS.items()\n"
        "        if modules[module].__all__ != list(names)]\n"
        "hidden = sorted(set(casvolt.__all__) - set(dir(casvolt)))\n"
        "print(json.dumps([before, row, wrong, rows, hidden]))"
    )
    assert resolved == [["__version__"], [], [], [], []]


@pytest.mark.parametrize("module", ["closed_forms", "oracle"])
def test_submodule_resolves_after_a_bare_import(module):
    same = _fresh(
        "import json, sys\n"
        "import casvolt\n"
        f"found = casvolt.{module}\n"
        f"print(json.dumps(found is sys.modules['casvolt.{module}']))"
    )
    assert same is True


@pytest.mark.parametrize("name", ["no_such_name", "_ORACLE_NAMES"])
def test_unknown_name_raises_and_loads_nothing(name):
    message, loaded = _fresh(
        "import json, sys\n"
        "import casvolt\n"
        "try:\n"
        f"    casvolt.{name}\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        "print(json.dumps([message, [m for m in sys.modules if m.startswith('casvolt.')]]))"
    )
    assert message == f"module 'casvolt' has no attribute {name!r}"
    assert loaded == []


def test_two_plate_sums_compile_no_code():
    # the tail coefficients are plain code: once the casvolt modules, the
    # image-sum engine among them, and numpy are loaded, a sum on the
    # pure-Python pass and one on the numpy kernel compile and exec nothing
    events, pairs, scalar_block = _fresh(
        "import json, sys\n"
        "import numpy\n"
        "from casvolt import closed_forms, errors, images, summation, units, variance\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, _: event in ('compile', 'exec') and seen.append(event))\n"
        "pairs = []\n"
        "for v in (0.01, 1e-3):\n"
        "    particle = variance.Particle.electron(speed=v)\n"
        "    seg = closed_forms.PathSegment(z0=0.3, b=0.1, v=v)\n"
        "    pairs.append(variance.variance_two_plate_exact(particle, seg, 1.0).terms_used)\n"
        "print(json.dumps([seen, pairs, images._SCALAR_BLOCK]))"
    )
    assert events == []
    short, long = pairs
    assert short <= scalar_block < long
