"""Every script in demos/ runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyradii

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The directory holding the imported package, so the demos import the same one.
PACKAGE_PARENT = str(Path(polyradii.__file__).resolve().parents[1])


def test_demos_are_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    # The bar pyproject.toml sets for the tests: a RuntimeWarning is an error.
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
