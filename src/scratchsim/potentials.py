"""Built-in analytic base potentials with closed-form gradients.

The classical integrator needs exact forces and the quantum propagator needs
grid samples, so every potential exposes value_and_grad on point arrays, and
value, which does the value's operations of value_and_grad in the same order
without the gradient, so the two values agree bit for bit.
Every potential checks its parameters when it is built: each is a finite
number, widths are positive and a center has one entry per dimension.
"""

from __future__ import annotations

import numpy as np

from scratchsim.grid import SpatialGrid, is_number


class PotentialError(ValueError):
    pass


def _number(name: str, value, positive: bool = False) -> float:
    """The parameter `name` as a float: a finite number, and > 0 if
    `positive`."""
    if not (is_number(value) and (value > 0 or not positive)):
        kind = "a finite positive" if positive else "a finite"
        raise PotentialError(f"potential parameter {name!r} must be {kind} number, got {value!r}")
    return float(value)


def _center(center, ndim: int) -> np.ndarray:
    """The parameter `center`: the origin if None, else ndim finite numbers."""
    if center is None:
        return np.zeros(ndim)
    try:
        ok = len(center) == ndim and all(map(is_number, center))
    except TypeError:
        ok = False
    if not ok:
        raise PotentialError(f"potential parameter 'center' needs {ndim} finite numbers, got {center!r}")
    return np.asarray(center, dtype=float)


class AnalyticPotential:
    def value(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, points: np.ndarray):
        raise NotImplementedError

    def sample(self, grid: SpatialGrid) -> np.ndarray:
        """The values at the grid points, shaped like the grid."""
        return self.value(grid.points()).reshape(grid.shape)

    def max_on(self, grid: SpatialGrid) -> float:
        """The largest value on every fourth grid point, row-major."""
        pts = grid.points()[::4]
        return float(np.max(self.value(pts)))


class HarmonicPotential(AnalyticPotential):
    """U = offset + (k/2) |q - center|^2."""

    def __init__(self, k: float, center=None, offset: float = 0.0, ndim: int = 2):
        self.k = _number("k", k)
        self.center = _center(center, ndim)
        self.offset = _number("offset", offset)

    def _value(self, d):
        """The values at the offsets d from the center, one per row."""
        return self.offset + 0.5 * self.k * np.einsum("ij,ij->i", d, d)

    def value(self, points):
        return self._value(np.atleast_2d(points) - self.center)

    def value_and_grad(self, points):
        d = np.atleast_2d(points) - self.center
        return self._value(d), self.k * d


class GaussianWellPotential(AnalyticPotential):
    """U = offset - depth * exp(-|q - center|^2 / (2 width^2)).

    With offset > depth > 0 this is a smooth strictly positive well.
    """

    def __init__(self, depth: float, width: float, center=None, offset: float = 0.0, ndim: int = 2):
        self.depth = _number("depth", depth)
        self.width = _number("width", width, positive=True)
        self.center = _center(center, ndim)
        self.offset = _number("offset", offset)

    def _bump(self, d):
        """exp(-|d|^2 / (2 width^2)) per row of d; -x / y is x / -y to the
        bit."""
        return np.exp(np.einsum("ij,ij->i", d, d) / (-2.0 * self.width**2))

    def value(self, points):
        return self.offset - self.depth * self._bump(np.atleast_2d(points) - self.center)

    def value_and_grad(self, points):
        d = np.atleast_2d(points) - self.center
        dg = self.depth * self._bump(d)
        return self.offset - dg, (dg / self.width**2)[:, None] * d


class DoubleWellPotential(AnalyticPotential):
    """U = offset + a * (x^2 - b^2)^2 / b^4 + (k/2) * |q_perp|^2 along axis 0."""

    def __init__(self, a: float, b: float, k_perp: float = 0.0, offset: float = 0.0):
        self.a = _number("a", a)
        self.b = _number("b", b, positive=True)
        self.k_perp = _number("k_perp", k_perp)
        self.offset = _number("offset", offset)

    def _value(self, points):
        """The values at the rows of points, and (x^2 - b^2) / b^2."""
        perp = points[:, 1:]
        core = (points[:, 0] ** 2 - self.b**2) / self.b**2
        vals = self.offset + self.a * core**2 + 0.5 * self.k_perp * np.einsum(
            "ij,ij->i", perp, perp
        )
        return vals, core

    def value(self, points):
        return self._value(np.atleast_2d(points))[0]

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        vals, core = self._value(points)
        grads = np.zeros_like(points)
        grads[:, 0] = 4.0 * self.a * core * points[:, 0] / self.b**2
        grads[:, 1:] = self.k_perp * points[:, 1:]
        return vals, grads


class ZeroPotential(AnalyticPotential):
    def __init__(self, ndim: int = 2):
        self.ndim = ndim

    def value(self, points):
        return np.zeros(np.atleast_2d(points).shape[0])

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        return np.zeros(points.shape[0]), np.zeros_like(points)


# per potential name: its class, its required and its optional parameters
_SPECS = {
    "harmonic": (HarmonicPotential, ("k",), ("center", "offset")),
    "gauss_well": (GaussianWellPotential, ("depth", "width"), ("center", "offset")),
    "double_well": (DoubleWellPotential, ("a", "b"), ("k_perp", "offset")),
    "zero": (ZeroPotential, (), ()),
}


def potential_from_spec(spec: dict, ndim: int) -> AnalyticPotential:
    """The potential that spec["name"] names, built from the spec's other
    keys; a key the potential does not take is refused by name."""
    name = spec.get("name")
    if name not in _SPECS:
        raise PotentialError(f"unknown potential spec {name!r}")
    cls, required, optional = _SPECS[name]
    params = {k: v for k, v in spec.items() if k != "name"}
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise PotentialError(f"potential {name!r} takes no parameters {unknown}")
    for key in required:
        if key not in params:
            raise PotentialError(f"potential {name!r} needs parameter {key!r}")
    if cls is DoubleWellPotential:
        return cls(**params)
    return cls(**params, ndim=ndim)
