"""The package binds its modules and `__version__`, nothing else.

Callers import modules (`from cuspwatch import radicals`), so the package
re-exports no function or class. `import cuspwatch` alone must still load
every module whose functions perfbench's tracer wraps: it looks each one
up in `sys.modules`, and `bruhat` and `sl4q` are imported by no other
module. The test session has already imported every module, so both
checks run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuspwatch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

PROBE = """
import json, sys, types
import cuspwatch
print(json.dumps({
    "loaded": sorted(m[len("cuspwatch."):] for m in sys.modules if m.startswith("cuspwatch.")),
    "bound": sorted(k for k, v in vars(cuspwatch).items()
                    if not isinstance(v, types.ModuleType)
                    and not (k.startswith("__") and k.endswith("__"))),
    "dunders": sorted(k for k in ("__version__", "__all__") if hasattr(cuspwatch, k)),
}))
"""


@pytest.fixture(scope="module")
def fresh():
    src = str(Path(cuspwatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def test_import_loads_every_traced_module(fresh):
    assert sorted(set(tracer.MODULES) - set(fresh["loaded"])) == []


def test_package_binds_only_its_version_and_modules(fresh):
    assert fresh["bound"] == []
    assert fresh["dunders"] == ["__version__"]
