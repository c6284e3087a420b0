"""The pipelines run on numpy alone: numpy is the one declared runtime
dependency, loading the pipelines imports no scipy module, and the numpy
submodules they call are imported with them, not on first call.

Threads are the decay table's alone: importing the pipelines starts none, and
`scratch_insensitivity` joins every helper it starts before it returns or
raises."""

import os
import re
import subprocess
import sys
import threading

import pytest

import scratchsim.quantum as quantum
from scratchsim.geometry import SegmentCurve
from scratchsim.grid import SpatialGrid
from scratchsim.potentials import GaussianWellPotential
from scratchsim.scratch import ScratchedPotential

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


def test_loading_the_pipelines_starts_no_thread():
    code = (
        "import threading\n"
        "import scratchsim.cli, scratchsim.experiment\n"
        "print(threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.split() == ["1"]


def drift(*args, **kwargs):
    raise quantum.NumericalStabilityError("drift")


@pytest.mark.parametrize("fails", [False, True])
def test_the_decay_table_leaves_no_thread(fails, monkeypatch):
    g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (32, 32))
    base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
    system = quantum.QuantumSystem(1.0, g, base.sample(g))
    psi0 = quantum.gaussian_packet(g, [-1.0, 0.0], 1.2, momentum=[1.0, 0.0])
    schedule = quantum.CheckpointSchedule([0.0, 0.1])
    reference = quantum.propagate(system, psi0, schedule, dt_max=1e-2)
    curve = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
    scratched = [ScratchedPotential(base, [curve], lam) for lam in (1e2, 1e3, 1e4)]
    monkeypatch.setattr(quantum, "_decay_executors", lambda count: 2)
    threads = threading.enumerate()
    if fails:
        monkeypatch.setattr(quantum, "propagate", drift)
        with pytest.raises(quantum.NumericalStabilityError):
            quantum.scratch_insensitivity(system, scratched, psi0, schedule, reference, 1e-2)
    else:
        assert len(quantum.scratch_insensitivity(system, scratched, psi0, schedule, reference, 1e-2)) == 3
    assert threading.enumerate() == threads
