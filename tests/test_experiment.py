"""Pipeline configuration, report emission, and record quantization."""

import csv
import json

import numpy as np
import pytest

import scratchsim.experiment as experiment
from scratchsim import cli, diophantine, geometry
from scratchsim.experiment import (
    DiscriminationReport,
    ExperimentConfig,
    ValidationError,
    certified_bound,
    default_theorem1_config,
    default_theorem2_config,
    deviation_decreasing,
    partition_from_spec,
    run_blackbox,
    run_theorem1,
    run_theorem2,
    write_decay_csv,
    write_occupancy_csv,
)
from scratchsim.grid import SpatialGrid


def grid2d():
    return SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (64, 64))


def small_theorem1_config() -> dict:
    d = default_theorem1_config().to_dict()
    d["grid"] = {"bounds": [[-8.0, 8.0], [-8.0, 8.0]], "shape": [64, 64]}
    return d


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

    def test_needs_a_geometry_attempt(self):
        d = default_theorem1_config().to_dict()
        d["max_retries"] = 0
        with pytest.raises(ValidationError, match="max_retries"):
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

    def test_extra_keys_round_trip(self):
        d = default_theorem1_config().to_dict()
        d["note"] = "desk run"
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.extra["note"] == "desk run"
        assert cfg.to_dict()["note"] == "desk run"


class TestPartitionFromSpec:
    def test_half_planes(self):
        part = partition_from_spec(
            {"kind": "half_planes", "axis": 1, "split": 0.5}, grid=grid2d()
        )
        assert part.n == 2
        assert np.array_equal(
            part.labels_for(np.array([[0.0, -1.0], [0.0, 2.0]])), [1, 2]
        )

    def test_half_planes_needs_grid(self):
        with pytest.raises(ValidationError):
            partition_from_spec({"kind": "half_planes"})

    def test_half_spaces(self):
        part = partition_from_spec({"kind": "half_spaces", "axis": 0}, ndim=3)
        assert part.n == 2

    def test_boxes(self):
        spec = {
            "kind": "boxes",
            "regions": [
                [{"lo": [-1.0, -1.0], "hi": [0.0, 1.0]}],
                [{"lo": [0.0, -1.0], "hi": [1.0, 1.0]}],
            ],
        }
        part = partition_from_spec(spec)
        assert np.array_equal(
            part.labels_for(np.array([[-0.5, 0.0], [0.5, 0.0]])), [1, 2]
        )
        from scratchsim.grid import GridError

        with pytest.raises(GridError):
            part.labels_for(np.array([[5.0, 0.0]]))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            partition_from_spec({"kind": "voronoi"})


def halves_problem(num_groups: int, budget: int) -> diophantine.ApproximationProblem:
    return diophantine.problem_from_probabilities([(0.5, 0.5)] * num_groups, budget)


class TestBound:
    def test_two_checkpoint_value(self):
        b, _ = certified_bound(2, halves_problem(2, 17))
        assert np.isclose(b, 1.0 / (2.0 * 17.0 ** 0.25), rtol=1e-14)

    def test_full_value(self):
        b, _ = certified_bound(1, halves_problem(4, 257))
        assert np.isclose(b, 257.0 ** -0.125, rtol=1e-14)

    def test_shrinks_with_particles(self):
        full = halves_problem(4, 257)
        assert certified_bound(5, full)[0] < certified_bound(1, full)[0]

    def test_certified_bound_counts_groups(self):
        # K = 2 checkpoints, n = 2 regions: 2K groups with momenta, K without
        alphas = [(0.5, 0.5)] * 4
        full = diophantine.problem_from_probabilities(alphas, 257)
        b, _ = certified_bound(5, full)
        assert np.isclose(b, 1.0 / (5.0 * 257.0**0.125), rtol=1e-14)
        positions = diophantine.problem_from_probabilities(alphas[:2], 257)
        b, _ = certified_bound(5, positions)
        assert np.isclose(b, 1.0 / (5.0 * 257.0**0.25), rtol=1e-14)
        assert round(b, 5) == 0.04995

    def test_position_only_report_states_certified_bound(self):
        # the certificate covers only the K position groups, so the report
        # states 1/(N * Q^(1/(Kn))), not the full-mode 1/(N * Q^(1/(2Kn)))
        d = default_theorem2_config().to_dict()
        d.update(
            grid={"bounds": [[-8.0, 8.0]] * 3, "shape": [16, 16, 16]},
            schedule=[0.0, 1.0],
            lambdas=[10.0],
            stiffness_safety=320.0,
            energy_tol=1e-3,
            edge_eps=1e-2,
            position_only=True,
        )
        report = run_theorem2(ExperimentConfig.from_dict(d))
        N = report.num_particles
        assert np.isclose(report.bound, 1.0 / (N * 257.0**0.25), rtol=1e-14)
        assert np.isclose(report.bound, report.diagnostics["lemma_error_bound"], rtol=1e-14)
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
        report = run_theorem1(default_theorem1_config(), out_dir=str(tmp_path))
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
        report = run_theorem1(ExperimentConfig.from_dict(d))
        assert len(calls) == 1 + len(d["lambdas"]) == 4
        assert len(report.decay) == 3

    def test_runs_the_largest_lambda_once(self):
        d = small_theorem1_config()
        report = run_theorem1(ExperimentConfig.from_dict(d))
        diag = report.diagnostics
        (row,) = diag["per_lambda"]
        assert diag["lambda_run"] == row["lambda"] == d["lambdas"][-1]
        for key in ("energy_drift", "max_curve_deviation", "timestep", "stiffness_safety"):
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
        report = run_theorem1(cfg)
        assert seeds == [cfg.seed, cfg.seed + 1000]
        assert report.num_particles >= 1

    def test_one_driver(self):
        assert run_theorem1 is run_theorem2 is experiment.run_pipeline

    def test_deterministic_reports(self, tmp_path):
        cfg = default_theorem1_config()
        run_theorem1(cfg, out_dir=str(tmp_path / "a"))
        run_theorem1(cfg, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


class TestTheorem2Pipeline:
    def test_counts_occupancy_once(self, monkeypatch):
        # the checkpoints report the largest lambda's run only
        d = default_theorem2_config().to_dict()
        d.update(
            grid={"bounds": [[-8.0, 8.0]] * 3, "shape": [16, 16, 16]},
            schedule=[0.0, 1.0],
            lambdas=[10.0, 100.0],
            stiffness_safety=320.0,
            energy_tol=1e-3,
            edge_eps=1e-2,
        )
        calls = []
        occupancy = experiment.classical.occupancy
        monkeypatch.setattr(
            experiment.classical,
            "occupancy",
            lambda *a, **k: calls.append(1) or occupancy(*a, **k),
        )
        report = run_theorem2(ExperimentConfig.from_dict(d))
        assert len(calls) == 1
        diag = report.diagnostics
        assert [row["lambda"] for row in diag["per_lambda"]] == d["lambdas"]
        assert diag["lambda_run"] == 100.0
        assert diag["energy_drift"] == diag["per_lambda"][-1]["energy_drift"]
        assert report.passed


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
            experiment, "run_theorem2", lambda cfg, out_dir=None: _stub_theorem2_report()
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
            experiment, "run_theorem2", lambda cfg, out_dir=None: _stub_theorem2_report()
        )
        d = default_theorem2_config().to_dict()
        d["instrument_resolution"] = 1e-6
        report = run_blackbox(ExperimentConfig.from_dict(d))
        assert report.diagnostics["distinguishable"]
        assert not report.diagnostics["resolution_above_bound"]
