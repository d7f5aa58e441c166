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
    "DerivativeReport",
    "QuadratureResult",
    "QuadratureSpec",
    "VerificationReport",
    "brute_dual_correlator",
    "deriv_check",
    "quad_image",
    "quad_one_plate",
    "run_verification",
]
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
