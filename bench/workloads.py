"""The benchmark's workloads: full pipeline configs, with the seed filled in.

Every value is spelled out here rather than taken from the package's
built-in defaults, so that a change to those defaults cannot change what the
benchmark measures. README.md says why each workload is sized as it is.
"""

from __future__ import annotations

import copy

_BOX2 = [[-8.0, 8.0], [-8.0, 8.0]]
_BOX3 = [[-8.0, 8.0], [-8.0, 8.0], [-8.0, 8.0]]
_HALF_PLANES_X = {"kind": "half_planes", "axis": 0, "split": 0.0}

_THEOREM1 = {
    "mode": "theorem1",
    "grid": {"bounds": _BOX2, "shape": [256, 256]},
    "potential": {"name": "gauss_well", "depth": 0.4, "width": 3.0, "offset": 0.6},
    "schedule": [0.0, 1.0],
    "position_partition": _HALF_PLANES_X,
    "lambdas": [1.0e2, 1.0e3, 1.0e4],
}

WORKLOADS: dict[str, dict] = {
    # The built-in theorem1 desk config: N = 2, quantum propagation dominates.
    "t1-desk": {
        **_THEOREM1,
        "packet": {"center": [-1.0, 0.0], "sigma": 1.2, "momentum": [1.0, 0.3]},
        "budget": 17,
    },
    # The desk potential on a 128^2 grid; packet and budget certify
    # q = N = 25, so the layers that grow with N outweigh propagation.
    "t1-many": {
        **_THEOREM1,
        "grid": {"bounds": _BOX2, "shape": [128, 128]},
        "packet": {"center": [-0.7, 0.0], "sigma": 1.2, "momentum": [1.0, 0.3]},
        "budget": 1784,
    },
    # The theorem2 desk config on a 24^3 grid, over a shorter interval, with
    # two lambdas a decade lower and a drift tolerance of 1e-5. Its geometry
    # seed stays 11, the desk config's: with other seeds the pipeline fails
    # in its classical stage on some seeds and its Verlet work varies
    # elevenfold (see README.md).
    "t2-spline": {
        "seed": 11,
        "mode": "theorem2",
        "grid": {"bounds": _BOX3, "shape": [24, 24, 24]},
        "potential": {"name": "gauss_well", "depth": 1.0, "width": 4.0, "offset": 3.5},
        "packet": {"center": [-1.5, 0.5, 0.0], "sigma": 2.0, "momentum": [0.3, 0.0, 0.1]},
        "schedule": [0.0, 2.5],
        "position_partition": _HALF_PLANES_X,
        "momentum_partition": {"kind": "half_spaces", "axis": 0, "split": 0.0},
        "budget": 257,
        "lambdas": [1.0e1, 1.0e2],
        "edge_eps": 2.0e-3,
        "energy_tol": 1.0e-5,
    },
}


def config(name: str, seed: int) -> dict:
    """The workload's config dict with `seed` as the pipeline seed, unless
    the workload fixes its own. numpy generators take seeds from 0 up, so
    the seed is reduced mod 2^32, which leaves every small seed as it is."""
    out = copy.deepcopy(WORKLOADS[name])
    out.setdefault("seed", int(seed) % 2**32)
    return out
