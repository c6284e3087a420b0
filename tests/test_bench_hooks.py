"""The names the benchmark hooks into, checked against the package.

bench/tracer.py patches functions and methods by (owner, attribute) and binds
some of their calls by parameter name; bench/worker.py calls the pipeline by
name; bench/workloads.py holds the configs whose reports must echo them. A
rename or a refused config breaks only traced or benchmark runs, so these
are checked here. The bench files are read, never imported as modules: nothing
is patched and no bytecode is written next to them.
"""

import ast
import inspect
import types
from pathlib import Path

import pytest

from scratchsim import experiment
from scratchsim.quantum import CheckpointSchedule

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the parameters each bound call's counter reads
_BOUND_PARAMETERS = {
    "propagate": {"schedule", "dt_max"},
    "integrate": {"schedule", "dt_max", "ensemble"},
}


def _read_module(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _read_module("tracer")


def test_every_patch_target_exists(tracer):
    for name, owner, attr, _, _ in tracer._PATCHES:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"


def test_bound_targets_keep_their_parameters(tracer):
    bound = [(owner, attr) for _, owner, attr, _, bind in tracer._PATCHES if bind]
    assert sorted(attr for _, attr in bound) == sorted(_BOUND_PARAMETERS)
    for owner, attr in bound:
        params = set(inspect.signature(owner.__dict__[attr]).parameters)
        assert _BOUND_PARAMETERS[attr] <= params, f"{attr} lacks {_BOUND_PARAMETERS[attr] - params}"


def test_step_counts_follow_the_schedule(tracer):
    schedule = CheckpointSchedule([0.0, 0.337, 1.001])
    got = tracer._propagate_counts({"schedule": schedule, "dt_max": 2e-2}, None)
    assert got == {"quantum.steps": sum(schedule.steps(2e-2))}


def test_worker_calls_exist():
    tree = ast.parse((BENCH / "worker.py").read_text())
    chains = []
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "experiment":
            chains.append(parts[::-1])
    names = {".".join(chain) for chain in chains}
    assert {"run_theorem1", "run_theorem2", "ExperimentConfig.from_dict"} <= names
    for chain in chains:
        target = experiment
        for part in chain:
            assert hasattr(target, part), f"experiment.{'.'.join(chain)} is gone"
            target = getattr(target, part)


def test_workload_configs_echo_in_reports():
    # bench/checks.py marks a run incorrect unless the report's config holds
    # every workload key with its value unchanged
    workloads = _read_module("workloads")
    for name in workloads.WORKLOADS:
        cfg = workloads.config(name, 1)
        echoed = experiment.ExperimentConfig.from_dict(cfg).to_dict()
        for key, value in cfg.items():
            assert key in echoed and echoed[key] == value, f"{name}: config {key!r} is not echoed"
