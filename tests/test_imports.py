import os
import subprocess
import sys
from pathlib import Path

import pursuitlab

PROBE = """
import importlib, pkgutil, sys
import pursuitlab
for info in pkgutil.walk_packages(pursuitlab.__path__, "pursuitlab."):
    importlib.import_module(info.name)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_pursuitlab_imports_no_scipy():
    """numpy and pyyaml are the only dependencies; importing scipy.sparse
    alone would cost most of the lab's start-up time."""
    src = str(Path(pursuitlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
