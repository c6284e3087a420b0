"""Analytic base potentials: the value-only evaluation is value_and_grad's
value, bit for bit."""

import numpy as np
import pytest

from scratchsim.potentials import potential_from_spec

SPECS = [
    {"name": "harmonic", "k": 0.7, "offset": 0.2},
    {"name": "gauss_well", "depth": 0.4, "width": 3.0, "offset": 0.6},
    {"name": "double_well", "a": 1.3, "b": 2.0, "k_perp": 0.5, "offset": 0.1},
    {"name": "zero"},
]


@pytest.mark.parametrize("D", [2, 3])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec["name"])
def test_value_is_value_and_grads_value(spec, D):
    pot = potential_from_spec(spec, D)
    rng = np.random.default_rng(D)
    points = rng.uniform(-6.0, 6.0, (1000, D))
    for pts in (points, points[0], points[:1], np.empty((0, D))):
        value = pot.value(pts)
        want, grad = pot.value_and_grad(pts)
        assert value.shape == want.shape == (np.atleast_2d(pts).shape[0],)
        assert grad.shape == np.atleast_2d(pts).shape
        assert np.array_equal(value, want)
        assert value.tobytes() == want.tobytes()  # the same bits, -0.0 included
