"""The package imports nothing outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lieq

# Imports every lieq module in a fresh interpreter and prints the names that
# appeared in sys.modules along the way.
_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import lieq
for info in pkgutil.walk_packages(lieq.__path__, "lieq."):
    importlib.import_module(info.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(lieq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "lieq.exactlin" in loaded
    outside = sorted({name.split(".")[0] for name in loaded}
                     - {"lieq"} - set(sys.stdlib_module_names))
    assert outside == []
