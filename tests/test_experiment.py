"""Pipeline configuration, report emission, and record quantization."""

import csv
import dataclasses
import io
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from test_quantum import three_array_propagate

import scratchsim.experiment as experiment
from scratchsim import classical, cli, diophantine, geometry
from scratchsim.experiment import (
    DiscriminationReport,
    ExperimentConfig,
    ValidationError,
    default_theorem1_config,
    default_theorem2_config,
    deviation_decreasing,
    partition_from_spec,
    run_blackbox,
    run_pipeline,
    run_theorem1,
    run_theorem2,
    write_decay_csv,
    write_occupancy_csv,
)
from scratchsim.grid import GridError, SpatialGrid
from scratchsim.potentials import AnalyticPotential, PotentialError, potential_from_spec
from scratchsim.quantum import (
    CheckpointSchedule,
    QuantumSystem,
    gaussian_packet,
    occupation_probabilities,
)


def grid2d():
    return SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (64, 64))


def small_theorem1_config() -> dict:
    d = default_theorem1_config().to_dict()
    d["grid"] = {"bounds": [[-8.0, 8.0], [-8.0, 8.0]], "shape": [64, 64]}
    return d


def small_theorem2_config() -> dict:
    d = default_theorem2_config().to_dict()
    d.update(
        grid={"bounds": [[-8.0, 8.0]] * 3, "shape": [16, 16, 16]},
        schedule=[0.0, 1.0],
        energy_tol=1e-3,
        edge_eps=1e-2,
    )
    return d


# a key that `test_door_refuses` removes from the config
DROP = object()


def split_boxes(D: int, gap: float = 0.0) -> dict:
    """Two regions split along axis 0, `gap` apart."""
    inf = [math.inf] * (D - 1)
    return {
        "kind": "boxes",
        "regions": [
            [{"lo": [-math.inf, *(-x for x in inf)], "hi": [0.0, *inf]}],
            [{"lo": [gap, *(-x for x in inf)], "hi": [math.inf, *inf]}],
        ],
    }


class TestConfigValidation:
    def test_defaults_valid(self):
        default_theorem1_config().validate()
        default_theorem2_config().validate()

    def test_unknown_mode(self):
        d = default_theorem1_config().to_dict()
        d["mode"] = "theorem3"
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    def test_budget_floor_two_checkpoint(self):
        # n = 2 regions: Q must exceed n^(2n) = 16
        d = default_theorem1_config().to_dict()
        d["budget"] = 16
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)
        d["budget"] = 17
        ExperimentConfig.from_dict(d)

    def test_budget_floor_full(self):
        # n = 2, K = 2, both spaces: Q must exceed n^(2Kn) = 256
        d = default_theorem2_config().to_dict()
        d["budget"] = 256
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    def test_single_checkpoint_rejected(self):
        d = default_theorem1_config().to_dict()
        d["schedule"] = [0.0]
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    def test_nonincreasing_lambdas(self):
        d = default_theorem1_config().to_dict()
        d["lambdas"] = [1e3, 1e2]
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("lambdas", [[-1.0, 1e4], [0.0], []])
    def test_nonpositive_or_empty_lambdas(self, lambdas):
        d = default_theorem1_config().to_dict()
        d["lambdas"] = lambdas
        with pytest.raises(ValidationError, match="lambda"):
            ExperimentConfig.from_dict(d)

    def test_budget_floor_position_only(self):
        # n = 2, K = 2, positions only: Q must exceed n^(Kn) = 16
        d = default_theorem2_config().to_dict()
        d["position_only"] = True
        d["budget"] = 16
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)
        d["budget"] = 17
        ExperimentConfig.from_dict(d)

    def test_full_mode_needs_three_dims(self):
        d = default_theorem2_config().to_dict()
        d["grid"] = {"bounds": [[-8.0, 8.0]] * 2, "shape": [64, 64]}
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    def test_full_mode_needs_positive_potential(self):
        d = default_theorem2_config().to_dict()
        d["potential"] = {"name": "gauss_well", "depth": 1.0, "width": 4.0, "offset": 0.5}
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dt_quantum", -1.0),
            ("dt_quantum", 0.0),
            ("dt_quantum", math.inf),
            ("mass", 0.0),
            ("mass", -1.0),
            ("hbar", 0.0),
            ("energy_tol", 0.0),
            ("energy_tol", math.nan),
            # no longer a field: the key is refused, so no run takes a bad value
            ("stiffness_safety", -20.0),
            ("sigma", 0.0),
            ("sigma", None),
            ("instrument_resolution", 0.0),
            ("instrument_resolution", -1e-3),
        ],
    )
    def test_rejects_values_that_are_not_finite_and_positive(self, key, value):
        d = default_theorem1_config().to_dict()
        if key == "sigma":
            d["packet"] = {**d["packet"], "sigma": value}
        else:
            d[key] = value
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(d)

    def test_extra_keys_round_trip(self):
        # a config round-trips through its dict; a key outside the fields does not
        cfg = default_theorem1_config()
        d = cfg.to_dict()
        assert ExperimentConfig.from_dict(d) == cfg
        with pytest.raises(ValidationError, match="note"):
            ExperimentConfig.from_dict({**d, "note": "desk run"})

    def test_needs_a_geometry_attempt(self):
        # the attempt count is fixed in the geometry stage, not set per run
        assert experiment._GEOMETRY_ATTEMPTS >= 1
        d = {**default_theorem1_config().to_dict(), "max_retries": 0}
        with pytest.raises(ValidationError, match="max_retries"):
            ExperimentConfig.from_dict(d)

    def test_unknown_keys_refused(self):
        # the seven keys that left the config, and a misspelling that would
        # otherwise run at the default it meant to set
        removed = (
            "waypoint_margin", "eps_coll", "p_scale", "p_margin",
            "max_retries", "stiffness_safety", "extra", "energy_toll",
        )
        for key in removed:
            d = {**default_theorem1_config().to_dict(), key: 1e-9}
            with pytest.raises(ValidationError, match=rf"unknown config keys \['{key}'\]"):
                ExperimentConfig.from_dict(d)
        assert len(ExperimentConfig.__dataclass_fields__) == 18

    @pytest.mark.parametrize(
        "mode, change, error, match",
        [
            # objects the run builds
            ("theorem1", {"potential": {"name": "nope"}}, PotentialError, "nope"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": 0.4}}, PotentialError, "'width'"),
            ("theorem1", {"position_partition": split_boxes(2, gap=0.5)}, GridError, "not covered"),
            ("theorem2", {"momentum_partition": split_boxes(3, gap=0.5)}, GridError, "not covered"),
            ("theorem1", {"position_partition": split_boxes(3)}, GridError, "D = 2"),
            ("theorem1", {"position_partition": {"kind": "half_planes", "axis": 5}}, GridError, "axis"),
            ("theorem1", {"position_partition": {"kind": "half_planes", "axis": -1}}, GridError, "axis"),
            ("theorem2", {"momentum_partition": {"kind": "half_spaces", "axis": 3}}, GridError, "axis"),
            ("theorem2", {"momentum_partition": {"kind": "half_spaces", "axis": -1}}, GridError, "axis"),
            ("theorem2", {"momentum_partition": {"kind": "voronoi"}}, ValidationError, "voronoi"),
            ("theorem1", {"packet": {"center": [-1.0, 0.0, 0.0], "sigma": 1.2}}, ValidationError, "packet"),
            ("theorem1", {"packet": {"center": [-1.0, 0.0], "sigma": 1.2, "momentum": [1.0]}}, ValidationError, "packet"),
            # scalar fields
            ("theorem1", {"seed": -1}, ValidationError, "seed"),
            ("theorem1", {"seed": True}, ValidationError, "seed"),
            ("theorem1", {"budget": 17.5}, ValidationError, "budget"),
            ("theorem1", {"delta_path": 0.0}, ValidationError, "delta_path"),
            ("theorem1", {"delta_path": -1.0}, ValidationError, "delta_path"),
            ("theorem1", {"delta_path": math.inf}, ValidationError, "delta_path"),
            ("theorem1", {"edge_eps": 0.0}, ValidationError, "edge_eps"),
            ("theorem1", {"edge_eps": -1e-6}, ValidationError, "edge_eps"),
            ("theorem1", {"edge_eps": math.nan}, ValidationError, "edge_eps"),
            ("theorem1", {"position_only": "false"}, ValidationError, "position_only"),
            # a missing required key
            ("theorem1", {"seed": DROP}, ValidationError, "missing.*seed"),
            # unknown keys of the nested specs
            ("theorem1", {"grid": {"bounds": [[-8.0, 8.0]] * 2, "shape": [64, 64], "spacing": 0.25}}, ValidationError, "spacing"),
            ("theorem1", {"packet": {"center": [-1.0, 0.0], "sigma": 1.2, "phase": 0.5}}, ValidationError, "phase"),
            ("theorem1", {"position_partition": {"kind": "half_planes", "axes": 1}}, ValidationError, "axes"),
            ("theorem2", {"momentum_partition": {"kind": "half_spaces", "offset": 1.0}}, ValidationError, "offset"),
            ("theorem1", {"position_partition": {**split_boxes(2), "label": "x"}}, ValidationError, "label"),
            ("theorem1", {"position_partition": {"kind": "boxes", "regions": [[{"lo": [-1.0, -1.0], "hi": [0.0, 1.0], "open": True}]]}}, ValidationError, "open"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": 0.4, "width": 3.0, "widht": 3.0}}, PotentialError, "widht"),
            # numbers that are not numbers, or not whole
            ("theorem1", {"grid": {"bounds": [[-8.0, 8.0]] * 2, "shape": [64.5, 64]}}, GridError, "shape"),
            ("theorem1", {"grid": {"bounds": [[-8.0, "8"], [-8.0, 8.0]], "shape": [64, 64]}}, GridError, "bounds"),
            ("theorem1", {"position_partition": {"kind": "half_planes", "split": "zero"}}, GridError, "split"),
            ("theorem1", {"position_partition": {"kind": "half_planes", "axis": 1.0}}, GridError, "axis"),
            ("theorem1", {"lambdas": [100.0, "1e3"]}, ValidationError, "lambdas"),
            ("theorem1", {"mass": True}, ValidationError, "mass"),
            ("theorem1", {"packet": {"center": ["-1", 0.0], "sigma": 1.2}}, ValidationError, "center"),
            # potentials check their own parameters
            ("theorem1", {"potential": {"name": "gauss_well", "depth": "deep", "width": 3.0}}, PotentialError, "depth"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": math.nan, "width": 3.0}}, PotentialError, "depth"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": 0.4, "width": 0.0}}, PotentialError, "width"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": 0.4, "width": -3.0}}, PotentialError, "width"),
            ("theorem1", {"potential": {"name": "gauss_well", "depth": 0.4, "width": 3.0, "center": [0.0, 0.0, 0.0]}}, PotentialError, "center"),
            ("theorem1", {"potential": {"name": "double_well", "a": 1.0, "b": 0.0}}, PotentialError, "'b'"),
            # specs of the wrong type, each refused by the field's name
            ("theorem1", {"position_partition": "half_planes"}, ValidationError, "position_partition must be an object"),
            ("theorem2", {"momentum_partition": "half_spaces"}, ValidationError, "momentum_partition must be an object"),
            ("theorem2", {"momentum_partition": {}}, ValidationError, "unknown momentum_partition kind None"),
            ("theorem1", {"potential": "gauss_well"}, ValidationError, "potential must be an object"),
            ("theorem1", {"potential": {"name": ["x"]}}, ValidationError, "potential must be an object"),
            ("theorem1", {"position_partition": {"kind": "boxes", "regions": 5}}, ValidationError, "position_partition regions must be a list"),
            ("theorem1", {"position_partition": {"kind": "boxes", "regions": [5, 6]}}, ValidationError, "position_partition: a region must be a list of boxes"),
            ("theorem1", {"position_partition": {"kind": "boxes", "regions": [{"lo": [-1.0, -1.0], "hi": [0.0, 1.0]}]}}, ValidationError, "a region must be a list of boxes"),
            ("theorem1", {"position_partition": {"kind": "boxes", "regions": [[{"lo": 5, "hi": [0.0, 1.0]}]]}}, ValidationError, "position_partition box bounds must be lists"),
            ("theorem1", {"schedule": 1.0}, ValidationError, "checkpoint times"),
            ("theorem1", {"dt_quantum": "x"}, ValidationError, "dt_quantum"),
            ("theorem1", {"dt_quantum": None}, ValidationError, "dt_quantum"),
            # a key the mode does not read
            ("theorem1", {"momentum_partition": "x"}, ValidationError, "momentum_partition"),
            # a grid of one dimension, refused before any mode rule reads D
            ("theorem1", {"grid": {"bounds": [[-8.0, 8.0]], "shape": [64]}}, GridError, "dimension"),
        ],
    )
    def test_door_refuses(self, mode, change, error, match):
        d = small_theorem1_config() if mode == "theorem1" else small_theorem2_config()
        d.update(change)
        d = {k: v for k, v in d.items() if v is not DROP}
        with pytest.raises(error, match=match):
            ExperimentConfig.from_dict(d)

    def test_door_passes_covering_boxes(self):
        d = small_theorem2_config()
        d.update(position_partition=split_boxes(3), momentum_partition=split_boxes(3))
        ExperimentConfig.from_dict(d)


class TestPartitionFromSpec:
    def test_half_planes(self):
        part = partition_from_spec({"kind": "half_planes", "axis": 1, "split": 0.5}, grid2d(), "partition")
        assert part.n == 2
        assert np.array_equal(
            part.labels_for(np.array([[0.0, -1.0], [0.0, 2.0]])), [1, 2]
        )

    def test_half_spaces(self):
        # all of momentum space, in the grid's dimension
        part = partition_from_spec({"kind": "half_spaces", "axis": 0}, grid2d(), "partition")
        assert part.n == 2
        assert part.regions[0][0].lo == (-math.inf, -math.inf)

    def test_boxes(self):
        spec = {
            "kind": "boxes",
            "regions": [
                [{"lo": [-1.0, -1.0], "hi": [0.0, 1.0]}],
                [{"lo": [0.0, -1.0], "hi": [1.0, 1.0]}],
            ],
        }
        part = partition_from_spec(spec, grid2d(), "partition")
        assert np.array_equal(
            part.labels_for(np.array([[-0.5, 0.0], [0.5, 0.0]])), [1, 2]
        )
        from scratchsim.grid import GridError

        with pytest.raises(GridError):
            part.labels_for(np.array([[5.0, 0.0]]))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown partition kind 'voronoi'"):
            partition_from_spec({"kind": "voronoi"}, grid2d(), "partition")


def halves_problem(num_groups: int, budget: int) -> diophantine.ApproximationProblem:
    return diophantine.problem_from_probabilities([(0.5, 0.5)] * num_groups, budget)


class TestBound:
    def test_two_checkpoint_value(self):
        b = float(halves_problem(2, 17).bound(2))
        assert np.isclose(b, 1.0 / (2.0 * 17.0 ** 0.25), rtol=1e-14)

    def test_full_value(self):
        b = float(halves_problem(4, 257).bound(1))
        assert np.isclose(b, 257.0 ** -0.125, rtol=1e-14)

    def test_shrinks_with_particles(self):
        full = halves_problem(4, 257)
        assert full.bound(5) < full.bound(1)

    def test_certified_bound_counts_groups(self):
        # K = 2 checkpoints, n = 2 regions: 2K groups with momenta, K without
        alphas = [(0.5, 0.5)] * 4
        full = diophantine.problem_from_probabilities(alphas, 257)
        b = float(full.bound(5))
        assert np.isclose(b, 1.0 / (5.0 * 257.0**0.125), rtol=1e-14)
        positions = diophantine.problem_from_probabilities(alphas[:2], 257)
        b = float(positions.bound(5))
        assert np.isclose(b, 1.0 / (5.0 * 257.0**0.25), rtol=1e-14)
        assert round(b, 5) == 0.04995

    def test_position_only_report_states_certified_bound(self):
        # the certificate covers only the K position groups, so the report
        # states 1/(N * Q^(1/(Kn))), not the full-mode 1/(N * Q^(1/(2Kn)))
        d = small_theorem2_config()
        d.update(lambdas=[10.0], position_only=True)
        report = run_pipeline(ExperimentConfig.from_dict(d))
        N = report.num_particles
        assert np.isclose(report.bound, 1.0 / (N * 257.0**0.25), rtol=1e-14)
        assert report.bound == report.diagnostics["lemma_error_bound"]
        assert report.passed


class TestDeviationDecreasing:
    def test_round_off_pair_reads_decreasing(self):
        # deviations of a particle that rides a straight scratch exactly
        assert deviation_decreasing([7.2e-15, 1.25e-14], floor=8.4e-9)

    def test_rise_above_floor_reads_increasing(self):
        assert not deviation_decreasing([1e-4, 2e-4], floor=8.4e-9)
        assert not deviation_decreasing([1e-12, 1e-6], floor=8.4e-9)

    def test_fall_reads_decreasing(self):
        assert deviation_decreasing([1e-3, 3e-4, 1e-4], floor=8.4e-9)


class TestCsvWriters:
    def test_decay_csv(self, tmp_path):
        rows = [
            {"lambda": 1e2, "l1_potential": 0.5, "linf_fourier": 0.1, "l2_wavefunction": 0.01},
            {"lambda": 1e3, "l1_potential": 0.16, "linf_fourier": 0.03, "l2_wavefunction": 0.003},
        ]
        path = tmp_path / "decay.csv"
        write_decay_csv(str(path), rows)
        with open(path) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["lambda", "l1_potential", "linf_fourier", "l2_wavefunction"]
        assert float(table[1][1]) == 0.5 and float(table[2][0]) == 1e3

    def test_occupancy_csv(self, tmp_path):
        cps = [
            {
                "t": 0.0,
                "pi": [0.5, 0.5],
                "counts": [1, 1],
                "pi_momentum": [1.0, 0.0],
                "counts_momentum": [2, 0],
            }
        ]
        path = tmp_path / "occupancy.csv"
        write_occupancy_csv(str(path), cps)
        with open(path) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["t_j", "k", "pi_k", "pi_tilde_k", "count", "count_tilde"]
        assert table[1] == ["0.0", "1", "0.5", "1.0", "1", "2"]
        assert table[2] == ["0.0", "2", "0.5", "0.0", "1", "0"]


class TestTheorem1Pipeline:
    def test_default_run_and_report(self, tmp_path):
        report = run_pipeline(default_theorem1_config(), out_dir=str(tmp_path))
        assert report.passed
        assert report.num_particles >= 1
        for cp in report.checkpoints:
            assert abs(sum(cp["pi"]) - 1.0) < 1e-12
            assert cp["max_diff"] < report.bound
        # emitted artifacts
        with open(tmp_path / "report.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["passed"] is True
        assert on_disk["mode"] == "theorem1"
        with open(tmp_path / "trajectory.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "l", "q1", "q2", "p1", "p2", "E"]
        assert (tmp_path / "occupancy.csv").exists()
        assert (tmp_path / "decay.csv").exists()

    def test_propagates_once_per_lambda_and_once_plain(self, monkeypatch):
        # the decay table reuses the plain-potential run of the quantum stage
        d = default_theorem1_config().to_dict()
        d["grid"] = {"bounds": [[-8.0, 8.0], [-8.0, 8.0]], "shape": [64, 64]}
        calls = []
        propagate = experiment.quantum.propagate
        monkeypatch.setattr(
            experiment.quantum, "propagate", lambda *a, **k: calls.append(1) or propagate(*a, **k)
        )
        report = run_pipeline(ExperimentConfig.from_dict(d))
        assert len(calls) == 1 + len(d["lambdas"]) == 4
        assert len(report.decay) == 3

    def test_samples_the_plain_potential_once(self, monkeypatch):
        # the plain run and the decay table share one sample of U
        shapes = []
        sample = AnalyticPotential.sample

        def recording_sample(pot, grid):
            shapes.append(grid.shape)
            return sample(pot, grid)

        monkeypatch.setattr(AnalyticPotential, "sample", recording_sample)
        run_pipeline(ExperimentConfig.from_dict(small_theorem1_config()))
        assert shapes == [(64, 64)]

    def test_runs_the_largest_lambda_once(self):
        d = small_theorem1_config()
        report = run_pipeline(ExperimentConfig.from_dict(d))
        diag = report.diagnostics
        (row,) = diag["per_lambda"]
        assert diag["lambda_run"] == row["lambda"] == d["lambdas"][-1]
        for key in (
            "energy_drift", "max_curve_deviation", "timestep", "stiffness_safety", "attempts"
        ):
            assert diag[key] == row[key]
        assert isinstance(diag["deviation_decreasing"], bool)
        assert report.criteria["insensitivity_decay"] is True
        assert "planned_counts_momentum" not in diag

    def test_geometry_failure_is_resampled(self, monkeypatch):
        seeds = []
        sample = geometry.sample_waypoints

        def fail_first(part, assignment, grid, seed, **kw):
            seeds.append(seed)
            if len(seeds) == 1:
                raise geometry.CapacityError("no room")
            return sample(part, assignment, grid, seed, **kw)

        monkeypatch.setattr(experiment.geometry, "sample_waypoints", fail_first)
        cfg = ExperimentConfig.from_dict(small_theorem1_config())
        report = run_pipeline(cfg)
        assert seeds == [cfg.seed, cfg.seed + 1000]
        assert report.num_particles >= 1

    def test_quantum_drift_is_tagged(self, monkeypatch):
        def drift(*a, **k):
            raise experiment.quantum.NumericalStabilityError("norm drift nan")

        monkeypatch.setattr(experiment.quantum, "propagate", drift)
        with pytest.raises(experiment.StageError) as info:
            run_pipeline(ExperimentConfig.from_dict(small_theorem1_config()))
        err = info.value
        assert err.stage == "quantum"
        assert isinstance(err.cause, experiment.quantum.NumericalStabilityError)
        assert err.__cause__ is err.cause

    def test_decay_drift_is_tagged(self, monkeypatch):
        # the plain run passes; the decay table's scratched runs drift. No
        # executor starts a run once one has failed, so one executor makes
        # one scratched call, and two make one or two.
        propagate = experiment.quantum.propagate
        config = ExperimentConfig.from_dict(small_theorem1_config())
        assert len(config.lambdas) == 3
        for executors, most_calls in ((1, 2), (2, 3)):
            calls = []

            def drift_after_first(*a, **k):
                calls.append(1)
                if len(calls) > 1:
                    raise experiment.quantum.NumericalStabilityError("norm drift 1e-3")
                return propagate(*a, **k)

            monkeypatch.setattr(experiment.quantum, "propagate", drift_after_first)
            monkeypatch.setattr(experiment.quantum, "_decay_executors", lambda count, n=executors: n)
            with pytest.raises(experiment.StageError) as info:
                run_pipeline(config)
            err = info.value
            assert err.stage == "decay" and 2 <= len(calls) <= most_calls
            assert isinstance(err.cause, experiment.quantum.NumericalStabilityError)
            assert err.__cause__ is err.cause

    def test_diophantine_failure_is_tagged(self, monkeypatch):
        def fail(problem):
            raise diophantine.DiophantineError("no q up to the budget")

        monkeypatch.setattr(experiment.diophantine, "solve", fail)
        with pytest.raises(experiment.StageError) as info:
            run_pipeline(ExperimentConfig.from_dict(small_theorem1_config()))
        err = info.value
        assert err.stage == "diophantine"
        assert isinstance(err.cause, diophantine.DiophantineError)
        assert err.__cause__ is err.cause

    def test_every_stage_failure_is_tagged(self, monkeypatch):
        # a plain ValueError from a call inside each stage
        calls = {
            "quantum": (experiment.quantum, "occupation_probabilities"),
            "diophantine": (experiment.diophantine, "problem_from_probabilities"),
            "geometry": (experiment.scratch, "ScratchedPotential"),
            "classical": (experiment.classical, "occupancy"),
            "decay": (experiment.quantum, "scratch_insensitivity"),
        }
        cfg = ExperimentConfig.from_dict(small_theorem1_config())
        for stage, (owner, name) in calls.items():
            cause = ValueError(f"inside {name}")

            def fail(*a, **k):
                raise cause

            with monkeypatch.context() as m:
                m.setattr(owner, name, fail)
                with pytest.raises(experiment.StageError) as info:
                    run_pipeline(cfg)
            err = info.value
            assert (err.stage, err.cause, err.__cause__) == (stage, cause, cause)
        # the retry ladder's own StageError passes through with its attempts
        def drift(*a, **k):
            raise classical.StabilityError("drift", 2e-6)

        monkeypatch.setattr(experiment.classical, "integrate", drift)
        with pytest.raises(experiment.StageError) as info:
            run_pipeline(cfg)
        err = info.value
        assert err.stage == "classical" and isinstance(err.cause, classical.StabilityError)
        assert str(err).count(", 2.000e-06)") == 4 and "4 attempts made" in str(err)

    def test_one_driver(self):
        assert run_theorem1 is run_theorem2 is experiment.run_pipeline

    def test_deterministic_reports(self, tmp_path):
        cfg = default_theorem1_config()
        run_pipeline(cfg, out_dir=str(tmp_path / "a"))
        run_pipeline(cfg, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


class TestTheorem2Pipeline:
    def test_counts_occupancy_once(self, monkeypatch):
        # the checkpoints report the largest lambda's run only
        d = small_theorem2_config()
        d["lambdas"] = [10.0, 100.0]
        calls = []
        occupancy = experiment.classical.occupancy
        monkeypatch.setattr(
            experiment.classical,
            "occupancy",
            lambda *a, **k: calls.append(1) or occupancy(*a, **k),
        )
        report = run_pipeline(ExperimentConfig.from_dict(d))
        assert len(calls) == 1
        diag = report.diagnostics
        assert [row["lambda"] for row in diag["per_lambda"]] == d["lambdas"]
        assert diag["lambda_run"] == 100.0
        assert diag["energy_drift"] == diag["per_lambda"][-1]["energy_drift"]
        assert report.passed

    @pytest.mark.parametrize("position_only", [True, False])
    def test_tables_at_three_checkpoints(self, position_only, monkeypatch):
        # the quantum stage's tables, taken as the plain run passes each
        # checkpoint, are the occupation probabilities of the three-array
        # propagation's states, bit for bit, interior checkpoint included
        d = small_theorem2_config()
        # with momenta, Q must exceed 2^(2 * 2 * 3) = 4096
        d.update(schedule=[0.0, 0.5, 1.0], position_only=position_only, budget=5000)
        config = ExperimentConfig.from_dict(d)
        recorded = []

        class Stop(Exception):
            pass

        def record(probabilities, budget):
            recorded.extend(probabilities)
            raise Stop

        monkeypatch.setattr(experiment.diophantine, "problem_from_probabilities", record)
        with pytest.raises(Stop):
            run_pipeline(config)
        g = config.build_grid()
        base = potential_from_spec(config.potential, g.ndim)
        system = QuantumSystem(config.mass, g, base.sample(g), config.hbar)
        pk = config.packet
        psi0 = gaussian_packet(g, pk["center"], pk["sigma"], pk.get("momentum"), config.hbar)
        states = three_array_propagate(system, psi0, config.schedule, config.dt_quantum)
        pos_part, mom_part = config.build_partitions(g)
        want = [occupation_probabilities(system, psi, pos_part, "position") for psi in states]
        if not position_only:
            want += [occupation_probabilities(system, psi, mom_part, "momentum") for psi in states]
        assert len(states) == 3 and len(recorded) == len(want)
        for got, w in zip(recorded, want):
            assert np.array_equal(got, w)


def drift_law_integrate(monkeypatch, drift_of, calls, real=False):
    """Replace classical.integrate with one whose drift is drift_of(lam, dt):
    above energy_tol it raises StabilityError, else it returns that drift, on
    the real trajectory when `real` is set. Every (lam, dt_max) goes to
    `calls`."""
    integrate = classical.integrate

    def fake(ensemble, scratched, schedule, *, dt_max, energy_tol, **kw):
        calls.append((scratched.lam, dt_max))
        drift = drift_of(scratched.lam, dt_max)
        if drift > energy_tol:
            raise classical.StabilityError(f"drift {drift:.3e}", drift)
        if not real:
            return SimpleNamespace(energy_drift=drift)
        result = integrate(
            ensemble, scratched, schedule, dt_max=dt_max, energy_tol=math.inf, **kw
        )
        return dataclasses.replace(result, energy_drift=drift)

    monkeypatch.setattr(experiment.classical, "integrate", fake)


class TestTimestepSizing:
    LAM, U_MAX = 1.0e3, 2.0

    def retry(self, cfg, seed_dt=float("inf")):
        return experiment._integrate_with_retries(
            cfg, None, SimpleNamespace(lam=self.LAM),
            CheckpointSchedule([0.0, 1.0]), self.U_MAX, None, None, seed_dt,
        )

    def patched(self, monkeypatch, drift_of):
        cfg = ExperimentConfig.from_dict(small_theorem1_config())
        dt0 = classical.stable_timestep(self.LAM, self.U_MAX, cfg.mass, experiment._STIFFNESS_SAFETY)
        calls = []
        drift_law_integrate(monkeypatch, lambda lam, dt: drift_of(dt0, dt), calls)
        return cfg, dt0, calls

    def test_second_attempt_is_law_sized(self, monkeypatch):
        # drift = C dt^2, 100 times the tolerance at the first guess
        cfg, dt0, calls = self.patched(monkeypatch, lambda dt0, dt: 100e-6 * (dt / dt0) ** 2)
        result, dt, safety, attempts = self.retry(cfg)
        assert dt == pytest.approx(dt0 * 0.8 * 0.1, rel=1e-12)
        assert result.energy_drift < 0.8 * cfg.energy_tol
        assert attempts == [[dt0, pytest.approx(1e-4, rel=1e-12)], [dt, result.energy_drift]]
        assert [dt_max for _, dt_max in calls] == [dt0, dt]
        assert safety == pytest.approx(experiment._STIFFNESS_SAFETY / 0.08, rel=1e-12)

    def test_first_pass_keeps_the_config_safety(self, monkeypatch):
        cfg, dt0, calls = self.patched(monkeypatch, lambda dt0, dt: 0.9e-6)
        result, dt, safety, attempts = self.retry(cfg)
        assert dt == dt0 and safety == experiment._STIFFNESS_SAFETY
        assert attempts == [[dt0, 0.9e-6]]

    def test_seed_below_the_first_guess_is_taken(self, monkeypatch):
        cfg, dt0, calls = self.patched(monkeypatch, lambda dt0, dt: 0.5e-6)
        _, dt, _, _ = self.retry(cfg, seed_dt=0.3 * dt0)
        assert dt == 0.3 * dt0 and len(calls) == 1
        _, dt, _, _ = self.retry(cfg, seed_dt=3.0 * dt0)
        assert dt == dt0

    def test_budget_stop(self, monkeypatch):
        # the law asks for 1/12500 of dt0: more steps than 85 first attempts
        cfg, dt0, calls = self.patched(monkeypatch, lambda dt0, dt: 1e2 * (dt / dt0) ** 2)
        with pytest.raises(experiment.StageError) as info:
            self.retry(cfg)
        err = info.value
        assert err.stage == "classical" and len(calls) == 1
        assert isinstance(err.cause, classical.StabilityError)
        assert err.__cause__ is err.cause and err.cause.drift == 1e2
        assert f"({dt0:.3e}, 1.000e+02)" in str(err)
        assert "would pass the budget of" in str(err)

    def test_every_attempt_listed_when_the_law_fails(self, monkeypatch):
        # a drift that ignores dt: four attempts, each 0.8/sqrt(2) of the last
        cfg, dt0, calls = self.patched(monkeypatch, lambda dt0, dt: 2e-6)
        with pytest.raises(experiment.StageError) as info:
            self.retry(cfg)
        dts = [dt_max for _, dt_max in calls]
        assert len(dts) == 4 and dts[0] == dt0
        assert np.allclose(np.array(dts[1:]) / dts[:-1], 0.8 / np.sqrt(2.0), rtol=1e-12)
        message = str(info.value)
        listed = [f"({dt:.3e}, 2.000e-06)" for dt in dts]
        assert all(message.index(a) < message.index(b) for a, b in zip(listed, listed[1:]))
        assert "4 attempts made" in message

    def test_confinement_loss_stops_the_stage(self, monkeypatch):
        # the first attempt drifts too far, the second loses a particle
        cfg = ExperimentConfig.from_dict(small_theorem1_config())
        dt0 = classical.stable_timestep(self.LAM, self.U_MAX, cfg.mass, experiment._STIFFNESS_SAFETY)
        calls = []

        def fake(ensemble, scratched, schedule, *, dt_max, **kw):
            calls.append(dt_max)
            if len(calls) == 1:
                raise classical.StabilityError("drift", 1e-4)
            raise classical.ConfinementError("a particle left the domain box")

        monkeypatch.setattr(experiment.classical, "integrate", fake)
        with pytest.raises(experiment.StageError) as info:
            self.retry(cfg)
        err = info.value
        assert err.stage == "classical" and len(calls) == 2
        assert isinstance(err.cause, classical.ConfinementError)
        assert err.__cause__ is err.cause
        message = str(err)
        assert f"({dt0:.3e}, 1.000e-04)" in message
        assert f"the attempt at dt={calls[1]:.3e} lost confinement" in message

    def test_next_lambda_is_seeded_from_the_last(self, monkeypatch):
        d = small_theorem2_config()
        d["lambdas"] = [10.0, 100.0]
        cfg = ExperimentConfig.from_dict(d)
        first = {}

        def drift_of(lam, dt):
            # 50 times the tolerance at lambda = 10's first guess, then the
            # same drift constant at every lambda
            first.setdefault("dt", dt)
            return 50e-3 * (dt / first["dt"]) ** 2

        calls = []
        drift_law_integrate(monkeypatch, drift_of, calls, real=True)
        report = run_pipeline(cfg)
        rows = report.diagnostics["per_lambda"]
        (lam1, dt1), (_, dt2), (lam2, dt3) = calls
        assert [lam for lam, _ in calls] == [10.0, 10.0, 100.0]
        seed = classical.drift_law_timestep(dt2, rows[0]["energy_drift"], cfg.energy_tol)
        # stable_timestep scales as lambda^(-1/2): the seed is below its guess
        assert dt3 == seed < 0.99 * dt1 / np.sqrt(10.0)
        assert rows[0]["attempts"] == [[dt1, pytest.approx(50e-3)], [dt2, rows[0]["energy_drift"]]]
        assert rows[1]["attempts"] == [[dt3, rows[1]["energy_drift"]]]
        assert all(row["energy_drift"] < 0.8 * cfg.energy_tol for row in rows)


class TestStrictJson:
    @staticmethod
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    def test_single_particle_report_is_strict_json(self, tmp_path):
        d = small_theorem2_config()
        d["lambdas"] = [10.0, 100.0]
        report = run_pipeline(ExperimentConfig.from_dict(d), out_dir=str(tmp_path))
        assert report.num_particles == 1
        assert report.diagnostics["min_pairwise_distance"] == math.inf
        # no pair, so no collision: the criterion holds with no N = 1 case
        assert report.criteria["no_collisions"] is True
        on_disk = json.loads((tmp_path / "report.json").read_text(), parse_constant=self.refuse)
        # null: no pair, so no finite distance
        assert on_disk["diagnostics"]["min_pairwise_distance"] is None

    def test_nan_fails_at_save(self, tmp_path):
        report = _stub_theorem2_report()
        report.diagnostics = {"above": math.inf, "below": -math.inf}
        report.save(str(tmp_path))
        on_disk = json.loads((tmp_path / "report.json").read_text(), parse_constant=self.refuse)
        assert on_disk["diagnostics"] == {"above": None, "below": None}
        report.diagnostics = {"stray": np.float64(math.nan)}
        with pytest.raises(ValueError):
            report.save(str(tmp_path))


class TestCli:
    def test_theorem1_command(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_theorem1_config()))
        out = tmp_path / "out"
        assert cli.main(["theorem1", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert lines[:-1] == [f"PASS {name}" for name in sorted(report["criteria"])]
        assert lines[-1] == (
            f"particles N={report['num_particles']} bound={report['bound']:.6g}"
        )

    def test_diophantine_command(self, monkeypatch, capsys):
        # thirds and quarters: the smallest certifying denominator is exact
        problem = {
            "alphas": [[1 / 3, 2 / 3], [0.25, 0.75]],
            "constraints": [[1, 1], [1, 1]],
            "Q": 500,
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problem)))
        assert cli.main(["diophantine", "--problem", "-"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == 12
        assert out["numerators"] == [[4, 8], [3, 9]]
        assert out["certificate_ok"] is True


def _stub_theorem2_report():
    cp = {
        "t": 0.0,
        "P": [0.612, 0.388],
        "pi": [0.6, 0.4],
        "counts": [3, 2],
        "max_diff": 0.012,
        "sum_pi": 1.0,
        "ok": True,
        "P_momentum": [0.25, 0.75],
        "pi_momentum": [0.2, 0.8],
        "counts_momentum": [1, 4],
        "max_diff_momentum": 0.05,
        "sum_pi_momentum": 1.0,
    }
    return DiscriminationReport(
        mode="theorem2",
        config=default_theorem2_config().to_dict(),
        num_particles=5,
        bound=0.1,
        bound_extended="0.1",
        checkpoints=[cp],
        decay=[],
        diagnostics={},
        criteria={"probability_bounds": True},
    )


class TestBlackboxQuantization:
    def test_coarse_resolution_identical(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            experiment, "run_pipeline", lambda cfg, out_dir=None: _stub_theorem2_report()
        )
        d = default_theorem2_config().to_dict()
        d["instrument_resolution"] = 0.5
        report = run_blackbox(ExperimentConfig.from_dict(d), out_dir=str(tmp_path))
        assert not report.diagnostics["distinguishable"]
        assert all(r["identical"] for r in report.diagnostics["records"])
        assert report.criteria["indistinguishable_at_resolution"]
        assert (tmp_path / "report.json").exists()

    def test_fine_resolution_distinguishes(self, monkeypatch):
        monkeypatch.setattr(
            experiment, "run_pipeline", lambda cfg, out_dir=None: _stub_theorem2_report()
        )
        d = default_theorem2_config().to_dict()
        d["instrument_resolution"] = 1e-6
        report = run_blackbox(ExperimentConfig.from_dict(d))
        assert report.diagnostics["distinguishable"]
        assert not report.diagnostics["resolution_above_bound"]
