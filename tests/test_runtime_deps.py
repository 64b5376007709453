"""The shipped package runs on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = """
import importlib
import pkgutil
import sys

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"importing repro loaded {loaded}"
"""


def test_importing_every_module_loads_no_scipy():
    """scipy is a test and benchmark dependency only: importing every
    ``repro`` module in a fresh interpreter must not load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
