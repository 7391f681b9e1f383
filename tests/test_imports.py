import json
import os
import subprocess
import sys
from pathlib import Path

import toeplab

# Run in a fresh interpreter: what importing the package loads beyond numpy,
# and every module-level ndarray bound in a toeplab module.
SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
import toeplab, toeplab.serialize, toeplab.suite
mods = {n: m for n, m in sys.modules.items() if n == "toeplab" or n.startswith("toeplab.")}
print(json.dumps({
    "added": sorted(set(sys.modules) - before),
    "arrays": sorted(f"{n}.{a}" for n, m in mods.items()
                     for a, v in vars(m).items() if isinstance(v, numpy.ndarray)),
}))
"""


def test_import_loads_only_the_package_and_the_standard_library_beyond_numpy():
    src = str(Path(toeplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    found = json.loads(proc.stdout)
    assert "toeplab.suite" in found["added"]
    foreign = [m for m in found["added"]
               if m.split(".")[0] != "toeplab" and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    assert found["arrays"] == []
