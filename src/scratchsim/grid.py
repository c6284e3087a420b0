"""Grids, region partitions, region integrals and the Fourier dual.

Positions live on a D-dimensional (D in {2, 3}) cell-centered rectangular
grid; the momentum dual has spacing 2*pi*hbar / (axis length) per axis.
Region membership over a partition is deterministic: on shared boundaries
the lowest region label wins. Values on a grid are plain numpy arrays
shaped like the grid; the functions that read them take the grid beside
them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    pass


def is_number(x, finite: bool = True) -> bool:
    """Whether x is a real number, and finite unless `finite` is false: not
    a bool, a string or an array."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and (math.isfinite(x) or not finite)


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered rectangular grid over a box domain."""

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        try:
            shape = tuple(operator.index(n) for n in self.shape)
        except TypeError:
            raise GridError(f"shape needs one integer per axis, got {self.shape!r}") from None
        try:
            bounds = tuple((lo, hi) for lo, hi in self.bounds)
            ok = all(is_number(x) for pair in bounds for x in pair)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise GridError(f"bounds need a finite (lo, hi) pair per axis, got {self.bounds!r}")
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in bounds))
        object.__setattr__(self, "shape", shape)
        if self.ndim not in (2, 3):
            raise GridError(f"dimension must be 2 or 3, got {self.ndim}")
        if len(self.shape) != self.ndim:
            raise GridError("bounds/shape dimension mismatch")
        for (lo, hi), n in zip(self.bounds, self.shape):
            if n < 8:
                raise GridError(f"every axis needs >= 8 points, got {n}")
            if not hi > lo:
                raise GridError(f"axis bounds must satisfy hi > lo, got [{lo}, {hi}]")

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])

    @property
    def spacing(self) -> np.ndarray:
        return self.lengths / np.array(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    def axis(self, i: int) -> np.ndarray:
        """Cell-center coordinates along axis i."""
        lo, _ = self.bounds[i]
        h = self.spacing[i]
        return lo + (np.arange(self.shape[i]) + 0.5) * h

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[self.axis(i) for i in range(self.ndim)], indexing="ij"))

    def points(self) -> np.ndarray:
        """All grid points as an (size, D) array, row-major order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def momentum_spacing(self, hbar: float = 1.0) -> np.ndarray:
        return 2.0 * np.pi * hbar / self.lengths

    def momentum_grid(self, hbar: float = 1.0) -> "SpatialGrid":
        """Fourier-dual grid whose cell centers are the (shifted) FFT momenta."""
        dp = self.momentum_spacing(hbar)
        bounds = []
        for i, n in enumerate(self.shape):
            p = np.fft.fftshift(np.fft.fftfreq(n, d=self.spacing[i])) * 2.0 * np.pi * hbar
            bounds.append((p[0] - dp[i] / 2, p[-1] + dp[i] / 2))
        return SpatialGrid(tuple(bounds), self.shape)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box; bounds may be +-inf."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if not all(is_number(x, finite=False) for x in (*self.lo, *self.hi)):
            raise GridError(f"box bounds must be numbers, got lo={self.lo!r}, hi={self.hi!r}")
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))
        if len(self.lo) != len(self.hi):
            raise GridError("box lo/hi dimension mismatch")

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.all((points >= lo) & (points <= hi), axis=-1)

    def contains_interior(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        points = np.atleast_2d(points)
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.all((points > lo + margin) & (points < hi - margin), axis=-1)


class RegionPartition:
    """Closed cover of a box (or of momentum space) by unions of boxes.

    Labels are 1-based; a point on a shared boundary gets the lowest label
    whose region contains it.
    """

    def __init__(self, regions: list[list[Box]] | list[Box]):
        norm: list[list[Box]] = []
        for r in regions:
            norm.append(list(r) if isinstance(r, (list, tuple)) else [r])
        if len(norm) < 2:
            raise GridError("a partition needs n >= 2 regions")
        self.regions: list[list[Box]] = norm

    @property
    def n(self) -> int:
        return len(self.regions)

    def labels_for(self, points: np.ndarray) -> np.ndarray:
        """1-based label per point; lowest containing region wins."""
        points = np.atleast_2d(points)
        labels = np.zeros(points.shape[0], dtype=np.int64)
        for k, boxes in enumerate(self.regions, start=1):
            hit = np.zeros(points.shape[0], dtype=bool)
            for box in boxes:
                hit |= box.contains(points)
            labels = np.where((labels == 0) & hit, k, labels)
        if np.any(labels == 0):
            bad = points[labels == 0][0]
            raise GridError(f"point {bad} not covered by any region")
        return labels

    def counts(self, points: np.ndarray) -> np.ndarray:
        """Points per region, (n,) in label order."""
        return np.bincount(self.labels_for(points) - 1, minlength=self.n)

    def label_grid(self, grid: SpatialGrid) -> np.ndarray:
        return self.labels_for(grid.points()).reshape(grid.shape)

    def interior_membership(self, points: np.ndarray, k: int, margin: float = 0.0) -> np.ndarray:
        """True where a point is strictly inside region k (with margin) and
        outside every lower-labeled region."""
        points = np.atleast_2d(points)
        inside = np.zeros(points.shape[0], dtype=bool)
        for box in self.regions[k - 1]:
            inside |= box.contains_interior(points, margin)
        for other in self.regions[: k - 1]:
            for box in other:
                inside &= ~box.contains(points)
        return inside

    def validate_on(self, grid: SpatialGrid) -> None:
        """Check the cover and the nonempty-interior surrogate on a grid."""
        if any(len(box.lo) != grid.ndim for boxes in self.regions for box in boxes):
            raise GridError(f"every box needs D = {grid.ndim} bounds")
        labels = self.label_grid(grid)
        for k in range(1, self.n + 1):
            pts = grid.points()[labels.ravel() == k]
            if pts.size == 0:
                raise GridError(f"region {k} contains no grid point")
            if not np.any(self.interior_membership(pts, k)):
                raise GridError(f"region {k} has no interior grid point")


def _check_split(axis: int, split: float, ndim: int) -> None:
    if not (isinstance(axis, numbers.Integral) and not isinstance(axis, bool) and axis in range(ndim)):
        raise GridError(f"axis must be one of 0..{ndim - 1}, got {axis!r}")
    if not is_number(split):
        raise GridError(f"split must be a finite number, got {split!r}")


def half_planes(grid: SpatialGrid, axis: int = 0, split: float = 0.0) -> RegionPartition:
    """Two-region partition of the grid box by a coordinate hyperplane."""
    _check_split(axis, split, grid.ndim)
    lo = list(grid.lo)
    hi = list(grid.hi)
    lo1, hi1 = lo.copy(), hi.copy()
    hi1[axis] = split
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[axis] = split
    return RegionPartition([Box(tuple(lo1), tuple(hi1)), Box(tuple(lo2), tuple(hi2))])


def momentum_half_spaces(ndim: int, axis: int = 0, split: float = 0.0) -> RegionPartition:
    """Two half-spaces covering all of momentum space."""
    _check_split(axis, split, ndim)
    inf = float("inf")
    lo1 = tuple(-inf for _ in range(ndim))
    hi1 = tuple(split if i == axis else inf for i in range(ndim))
    lo2 = tuple(split if i == axis else -inf for i in range(ndim))
    hi2 = tuple(inf for _ in range(ndim))
    return RegionPartition([Box(lo1, hi1), Box(lo2, hi2)])


def integrate_regions(values: np.ndarray, grid: SpatialGrid, partition: RegionPartition) -> np.ndarray:
    """Midpoint-rule integral of `values`, shaped like the grid, over the
    grid points of each region, labels 1..n in order, labelling the grid
    once. The integrals sum to the whole-grid integral, since the label map
    partitions the grid points."""
    labels = partition.label_grid(grid)
    return np.array(
        [float(np.sum(values[labels == k]) * grid.cell_volume) for k in range(1, partition.n + 1)]
    )


def fourier_forward(values: np.ndarray, grid: SpatialGrid, hbar: float) -> np.ndarray:
    """Continuum-normalized transform of `values`, shaped like the grid, to
    the momentum representation.

    The output samples live on grid.momentum_grid(hbar) (monotone,
    cell-centered). Unitary in the L2 sense: sum |Phi|^2 dp^D == sum |Psi|^2
    dq^D exactly.
    """
    spec = np.fft.fftn(values)
    pref = grid.cell_volume / (2.0 * np.pi * hbar) ** (grid.ndim / 2.0)
    phase = _corner_phase(grid, hbar)
    return np.fft.fftshift(pref * phase * spec)


def _corner_phase(g: SpatialGrid, hbar: float) -> np.ndarray:
    """exp(-i p . q0 / hbar) on the unshifted FFT momentum mesh, where
    q0 is the first cell center."""
    axes = []
    for i, n in enumerate(g.shape):
        p = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=g.spacing[i])
        q0 = g.axis(i)[0]
        axes.append(np.exp(-1j * p * q0 / hbar))
    mesh = np.meshgrid(*axes, indexing="ij")
    out = mesh[0]
    for m in mesh[1:]:
        out = out * m
    return out
