"""theorem1 at N = 211: the position bound at a scale where it is small.

The config is the many-particle theorem1 benchmark config (128^2, lambda up
to 1e4, packet centre -0.7) at budget 1e6, written out here so that a change
to the package's or the benchmark's defaults cannot move it.
"""

from scratchsim.experiment import ExperimentConfig, run_pipeline

_BOX2 = [[-8.0, 8.0], [-8.0, 8.0]]
_SHAPE = [128, 128]

CONFIG = {
    "seed": 101,
    "mode": "theorem1",
    "grid": {"bounds": _BOX2, "shape": _SHAPE},
    "potential": {"name": "gauss_well", "depth": 0.4, "width": 3.0, "offset": 0.6},
    "packet": {"center": [-0.7, 0.0], "sigma": 1.2, "momentum": [1.0, 0.3]},
    "schedule": [0.0, 1.0],
    "position_partition": {"kind": "half_planes", "axis": 0, "split": 0.0},
    "lambdas": [1.0e2, 1.0e3, 1.0e4],
    "budget": 10**6,
}


def test_theorem1_n211():
    report = run_pipeline(ExperimentConfig.from_dict(CONFIG))
    assert report.num_particles == 211
    # The bound 1/(N Q^(1/4)) the certificate proves. The grid's t = 0
    # region probability differs from the continuum's by 8.9e-5, 0.6x this
    # bound, so at this N the report speaks of grid sums (ROADMAP item 7).
    assert abs(report.bound - 1.50e-4) < 0.01e-4
    for cp in report.checkpoints:
        assert cp["max_diff"] < report.bound
    assert report.criteria and all(report.criteria.values()), report.criteria
    # no_collisions is not vacuous: there are pairs, and their smallest
    # distance at the checkpoints is held to half the waypoint clearance
    # delta_path = 4h. Distances between checkpoints are not measured
    # (ROADMAP item 1).
    delta_path = 4.0 * max(hi - lo for lo, hi in _BOX2) / min(_SHAPE)
    assert report.num_particles > 1
    assert report.diagnostics["min_pairwise_distance"] > delta_path / 2
