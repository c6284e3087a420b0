"""Spans and counts recorded around the calls into each scratchsim module.

The tracer patches public functions and methods where their callers look
them up (a module attribute or a class attribute), so nothing inside the
package changes. Each call becomes a span with a name, start, end, parent
span and an error flag; spans stay in memory until `layer_metrics` reads
them at the end of the run. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

from scratchsim import classical, diophantine, experiment, geometry, grid, quantum, scratch

ROOT = "experiment.run"


def _interval_steps(times, dt_max) -> int:
    """Steps a fixed-step integrator takes over a schedule: every interval is
    cut into max(1, ceil(|span| / dt_max)) equal steps."""
    spans = np.abs(np.diff(np.asarray(getattr(times, "times", times), dtype=float)))
    return int(sum(max(1, int(np.ceil(s / dt_max))) for s in spans))


def _propagate_counts(bound, result):
    return {"quantum.steps": _interval_steps(bound["schedule"], bound["dt_max"])}


def _integrate_counts(bound, result):
    # the pipeline always passes dt_max; a failed integration has run every
    # step before its drift check raised, so it is counted too
    steps = _interval_steps(bound["schedule"], bound["dt_max"])
    return {"classical.particle_steps": steps * bound["ensemble"].num_particles}


def _eval_counts(args, result):
    points = np.atleast_2d(args[1])
    return {"scratch.eval_pairs": points.shape[0] * args[0].num_scratches}


def _solve_counts(args, result):
    return {} if result is None else {"diophantine.q": result.q}


# (span name, owner, attribute, counter, bind). A counter gets either the
# bound arguments (when `bind` is set) or the raw positional arguments, and
# the return value, which is None when the call raised.
_PATCHES = [
    ("quantum.propagate", quantum, "propagate", _propagate_counts, True),
    ("quantum.occupation", quantum, "occupation_probabilities", None, False),
    ("quantum.insensitivity", quantum, "scratch_insensitivity", None, False),
    ("quantum.tube_l1", quantum, "tube_l1_difference", None, False),
    ("grid.label_grid", grid.RegionPartition, "label_grid", None, False),
    # quantum imported fourier_forward by name, so it is looked up there
    ("grid.fourier", quantum, "fourier_forward", None, False),
    ("diophantine.solve", diophantine, "solve", _solve_counts, False),
    ("diophantine.verify", diophantine, "verify", None, False),
    ("geometry.sample_waypoints", geometry, "sample_waypoints", None, False),
    ("geometry.build_paths", geometry, "build_paths", None, False),
    ("geometry.condition_momenta", geometry, "condition_momenta", None, False),
    ("geometry.project", geometry.SplineCurve, "project", None, False),
    ("geometry.project", geometry.SegmentCurve, "project", None, False),
    ("scratch.eval", scratch.ScratchedPotential, "eval", _eval_counts, False),
    ("scratch.sample", scratch.ScratchedPotential, "sample", None, False),
    ("scratch.tangential", scratch, "construct_tangential_potential", None, False),
    ("classical.integrate", classical, "integrate", _integrate_counts, True),
    ("classical.occupancy", classical, "occupancy", None, False),
    ("classical.min_pairwise", classical, "min_pairwise_distance", None, False),
    ("experiment.save", experiment.DiscriminationReport, "save", None, False),
    ("experiment.save", experiment, "write_trajectory_csv", None, False),
]


class Tracer:
    """In-memory span store; one instance per pipeline run and process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self.failed.append(True)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int, ok: bool) -> None:
        self.ends[i] = time.perf_counter()
        self.failed[i] = not ok
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one span named `name`."""
        i = self._open(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self._close(i, ok)

    def _wrap(self, name: str, fn, counter, bind: bool):
        signature = inspect.signature(fn) if bind else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                result = self.call(name, fn, *args, **kwargs)
                return result
            finally:
                if counter is not None:
                    if signature is not None:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        got = counter(bound.arguments, result)
                    else:
                        got = counter(args, result)
                    for key, value in got.items():
                        self.counts[key] += value

        return wrapper

    def install(self) -> None:
        """Patch every traced name for the rest of this process."""
        for name, owner, attr, counter, bind in _PATCHES:
            setattr(owner, attr, self._wrap(name, owner.__dict__[attr], counter, bind))

    def table(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive, self and failed seconds.

        A span's self time is its duration minus the durations of its direct
        children. No span nests inside a span of the same name, so the
        inclusive sums count no interval twice.
        """
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(
                name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "failed_s": 0.0}
            )
            row["calls"] += 1
            row["s"] += float(dur[i])
            row["self_s"] += float(self_time[i])
            if self.failed[i]:
                row["failed"] += 1
                row["failed_s"] += float(dur[i])
        return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    t = tracer.table()
    c = tracer.counts

    def span(name: str, key: str = "s") -> float:
        return t.get(name, {}).get(key, 0)

    integrations = span("classical.integrate", "calls")
    failed = span("classical.integrate", "failed")
    return {
        "quantum.propagate_s": span("quantum.propagate"),
        "quantum.propagations": span("quantum.propagate", "calls"),
        "quantum.steps": c["quantum.steps"],
        "quantum.step_ms": _ratio(span("quantum.propagate"), c["quantum.steps"], 1e3),
        "quantum.occupation_s": span("quantum.occupation"),
        "quantum.insensitivity_self_s": span("quantum.insensitivity", "self_s"),
        "quantum.tube_l1_s": span("quantum.tube_l1"),
        "grid.label_grid_calls": span("grid.label_grid", "calls"),
        "grid.label_grid_s": span("grid.label_grid"),
        "grid.fourier_s": span("grid.fourier"),
        "diophantine.solve_s": span("diophantine.solve"),
        "diophantine.verify_s": span("diophantine.verify"),
        "diophantine.q": c["diophantine.q"],
        "geometry.sample_waypoints_s": span("geometry.sample_waypoints"),
        "geometry.build_paths_s": span("geometry.build_paths"),
        "geometry.builds": span("geometry.sample_waypoints", "calls"),
        "geometry.condition_momenta_s": span("geometry.condition_momenta"),
        "geometry.project_calls": span("geometry.project", "calls"),
        "geometry.project_s": span("geometry.project"),
        "geometry.project_us": _ratio(
            span("geometry.project"), span("geometry.project", "calls"), 1e6
        ),
        "scratch.eval_calls": span("scratch.eval", "calls"),
        "scratch.eval_s": span("scratch.eval"),
        "scratch.eval_pairs": c["scratch.eval_pairs"],
        "scratch.eval_ns_per_pair": _ratio(
            span("scratch.eval"), c["scratch.eval_pairs"], 1e9
        ),
        "scratch.sample_s": span("scratch.sample"),
        "scratch.tangential_s": span("scratch.tangential"),
        "classical.integrate_s": span("classical.integrate"),
        "classical.integrations": integrations,
        "classical.integrations_failed": failed,
        "classical.accepted_ratio": _ratio(integrations - failed, integrations),
        "classical.discarded_s": span("classical.integrate", "failed_s"),
        "classical.particle_steps": c["classical.particle_steps"],
        "classical.step_us": _ratio(
            span("classical.integrate"), c["classical.particle_steps"], 1e6
        ),
        "classical.occupancy_s": span("classical.occupancy"),
        "classical.min_pairwise_s": span("classical.min_pairwise"),
        "experiment.save_s": span("experiment.save"),
        "experiment.self_s": span(ROOT, "self_s"),
        "experiment.report_s": span(ROOT),
    }
