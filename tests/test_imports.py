"""The package loads the scipy modules its pipelines call, and no others."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_pipelines_load_only_the_scipy_they_call():
    code = (
        "import sys\n"
        "import numpy\n"
        "import scratchsim.cli, scratchsim.experiment\n"
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    loaded = set(out.stdout.split())
    for unused in ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial"):
        assert unused not in loaded, unused
    # what a pipeline run calls is imported with the package, not on first call
    assert {"scipy.fft", "scipy.linalg"} <= loaded
