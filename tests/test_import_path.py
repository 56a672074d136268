"""The import rule: importing any ``repro`` module loads no networkx.

networkx costs every process about 15 MB of resident memory, and only
the MPI checker's wait-for cycle report and ``TaskGraph.nx_graph()``
use it, each importing it on demand.  The check runs in a fresh
interpreter, since this test session has networkx loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "networkx" in sys.modules)
"""


def test_no_repro_module_imports_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    modules, loaded = int(out[0]), out[1] == "True"
    assert modules > 50  # the walk really found the package
    assert not loaded
