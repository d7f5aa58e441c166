"""Import boundary: the oracle, and with it numpy, loads on first use.

Each check runs in a fresh interpreter, because this test session has long
since imported both."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
