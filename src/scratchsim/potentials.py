"""Built-in analytic base potentials with closed-form gradients.

The classical integrator needs exact forces and the quantum propagator needs
grid samples, so every potential exposes value_and_grad on point arrays.
"""

from __future__ import annotations

import numpy as np

from scratchsim.grid import ScalarField, SpatialGrid


class PotentialError(ValueError):
    pass


class AnalyticPotential:
    def value_and_grad(self, points: np.ndarray):
        raise NotImplementedError

    def value(self, points: np.ndarray) -> np.ndarray:
        return self.value_and_grad(points)[0]

    def sample(self, grid: SpatialGrid) -> ScalarField:
        return ScalarField(grid, self.value(grid.points()).reshape(grid.shape))

    def max_on(self, grid: SpatialGrid, stride: int = 4) -> float:
        pts = grid.points()[::stride]
        return float(np.max(self.value(pts)))


class HarmonicPotential(AnalyticPotential):
    """U = offset + (k/2) |q - center|^2."""

    def __init__(self, k: float, center=None, offset: float = 0.0, ndim: int = 2):
        self.k = float(k)
        self.center = np.zeros(ndim) if center is None else np.asarray(center, dtype=float)
        self.offset = float(offset)

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        d = points - self.center
        vals = self.offset + 0.5 * self.k * np.einsum("ij,ij->i", d, d)
        return vals, self.k * d


class GaussianWellPotential(AnalyticPotential):
    """U = offset - depth * exp(-|q - center|^2 / (2 width^2)).

    With offset > depth > 0 this is a smooth strictly positive well.
    """

    def __init__(self, depth: float, width: float, center=None, offset: float = 0.0, ndim: int = 2):
        self.depth = float(depth)
        self.width = float(width)
        self.center = np.zeros(ndim) if center is None else np.asarray(center, dtype=float)
        self.offset = float(offset)

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        d = points - self.center
        r2 = np.einsum("ij,ij->i", d, d)
        g = np.exp(-r2 / (2.0 * self.width**2))
        vals = self.offset - self.depth * g
        grads = (self.depth * g / self.width**2)[:, None] * d
        return vals, grads


class DoubleWellPotential(AnalyticPotential):
    """U = offset + a * (x^2 - b^2)^2 / b^4 + (k/2) * |q_perp|^2 along axis 0."""

    def __init__(self, a: float, b: float, k_perp: float = 0.0, offset: float = 0.0):
        self.a = float(a)
        self.b = float(b)
        self.k_perp = float(k_perp)
        self.offset = float(offset)

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        x = points[:, 0]
        perp = points[:, 1:]
        core = (x**2 - self.b**2) / self.b**2
        vals = self.offset + self.a * core**2 + 0.5 * self.k_perp * np.einsum(
            "ij,ij->i", perp, perp
        )
        grads = np.zeros_like(points)
        grads[:, 0] = 4.0 * self.a * core * x / self.b**2
        grads[:, 1:] = self.k_perp * perp
        return vals, grads


class ZeroPotential(AnalyticPotential):
    def __init__(self, ndim: int = 2):
        self.ndim = ndim

    def value_and_grad(self, points):
        points = np.atleast_2d(points)
        return np.zeros(points.shape[0]), np.zeros_like(points)


def potential_from_spec(spec: dict, ndim: int) -> AnalyticPotential:
    name = spec.get("name")
    if name == "harmonic":
        return HarmonicPotential(
            spec["k"], spec.get("center"), spec.get("offset", 0.0), ndim=ndim
        )
    if name == "gauss_well":
        return GaussianWellPotential(
            spec["depth"], spec["width"], spec.get("center"), spec.get("offset", 0.0), ndim=ndim
        )
    if name == "double_well":
        return DoubleWellPotential(
            spec["a"], spec["b"], spec.get("k_perp", 0.0), spec.get("offset", 0.0)
        )
    if name == "zero":
        return ZeroPotential(ndim)
    raise PotentialError(f"unknown potential spec {name!r}")
