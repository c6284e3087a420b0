"""The pipelines run on numpy alone: numpy is the one declared runtime
dependency, loading the pipelines imports no scipy module, and the numpy
submodules they call are imported with them, not on first call."""

import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_pipelines_load_no_scipy():
    code = (
        "import sys\n"
        "import scratchsim.cli, scratchsim.experiment\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    loaded = set(out.stdout.split())
    assert not any(m.split(".")[0] == "scipy" for m in loaded)
    assert {"numpy.fft", "numpy.random"} <= loaded


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(SRC, os.pardir, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[<>=!~;\[ ]", d, maxsplit=1)[0] for d in deps] == ["numpy"]
