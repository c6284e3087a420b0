"""Grids, region partitions, fields, Fourier duals, and field I/O.

Positions live on a D-dimensional (D in {2, 3}) cell-centered rectangular
grid; the momentum dual has spacing 2*pi*hbar / (axis length) per axis.
Region membership over a partition is deterministic: on shared boundaries
the lowest region label wins.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FIELD_MAGIC = b"SCRF"
FIELD_VERSION = 1


class GridError(ValueError):
    pass


class FieldFormatError(ValueError):
    """Malformed binary field file; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered rectangular grid over a box domain."""

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
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
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.lengths))

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
        labels = self.label_grid(grid)
        for k in range(1, self.n + 1):
            pts = grid.points()[labels.ravel() == k]
            if pts.size == 0:
                raise GridError(f"region {k} contains no grid point")
            if not np.any(self.interior_membership(pts, k)):
                raise GridError(f"region {k} has no interior grid point")


def half_planes(grid: SpatialGrid, axis: int = 0, split: float = 0.0) -> RegionPartition:
    """Two-region partition of the grid box by a coordinate hyperplane."""
    lo = list(grid.lo)
    hi = list(grid.hi)
    lo1, hi1 = lo.copy(), hi.copy()
    hi1[axis] = split
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[axis] = split
    return RegionPartition([Box(tuple(lo1), tuple(hi1)), Box(tuple(lo2), tuple(hi2))])


def momentum_half_spaces(ndim: int, axis: int = 0, split: float = 0.0) -> RegionPartition:
    """Two half-spaces covering all of momentum space."""
    inf = float("inf")
    lo1 = tuple(-inf for _ in range(ndim))
    hi1 = tuple(split if i == axis else inf for i in range(ndim))
    lo2 = tuple(split if i == axis else -inf for i in range(ndim))
    hi2 = tuple(inf for _ in range(ndim))
    return RegionPartition([Box(lo1, hi1), Box(lo2, hi2)])


@dataclass
class ScalarField:
    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )


@dataclass
class ComplexField:
    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)


def integrate(field: ScalarField) -> float:
    """Midpoint-rule integral over the whole grid."""
    return float(np.sum(field.values) * field.grid.cell_volume)


def integrate_region(field: ScalarField, partition: RegionPartition, k: int) -> float:
    """Midpoint-rule integral over the grid points assigned to region k.

    Summing over all k reproduces integrate(field) exactly, since the label
    map partitions the grid points.
    """
    if not 1 <= k <= partition.n:
        raise GridError(f"unknown region label {k} (valid: 1..{partition.n})")
    return float(integrate_regions(field, partition)[k - 1])


def integrate_regions(field: ScalarField, partition: RegionPartition) -> np.ndarray:
    """integrate_region for every label 1..n, labelling the grid once."""
    labels = partition.label_grid(field.grid)
    return np.array(
        [
            float(np.sum(field.values[labels == k]) * field.grid.cell_volume)
            for k in range(1, partition.n + 1)
        ]
    )


def fourier_forward(f: ComplexField, hbar: float = 1.0) -> ComplexField:
    """Continuum-normalized transform to the momentum representation.

    Output samples live on grid.momentum_grid(hbar) (monotone, cell-centered).
    Unitary in the L2 sense: sum |Phi|^2 dp^D == sum |Psi|^2 dq^D exactly.
    """
    g = f.grid
    spec = np.fft.fftn(f.values)
    pref = g.cell_volume / (2.0 * np.pi * hbar) ** (g.ndim / 2.0)
    phase = _corner_phase(g, hbar, sign=-1.0)
    out = np.fft.fftshift(pref * phase * spec)
    return ComplexField(g.momentum_grid(hbar), out)


def fourier_inverse(f: ComplexField, position_grid: SpatialGrid, hbar: float = 1.0) -> ComplexField:
    """Inverse of fourier_forward back onto the given position grid."""
    g = position_grid
    spec = np.fft.ifftshift(f.values)
    pref = g.cell_volume / (2.0 * np.pi * hbar) ** (g.ndim / 2.0)
    phase = _corner_phase(g, hbar, sign=-1.0)
    out = np.fft.ifftn(spec / (pref * phase))
    return ComplexField(g, out)


def _corner_phase(g: SpatialGrid, hbar: float, sign: float) -> np.ndarray:
    """exp(sign * i p . q0 / hbar) on the unshifted FFT momentum mesh, where
    q0 is the first cell center."""
    axes = []
    for i, n in enumerate(g.shape):
        p = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=g.spacing[i])
        q0 = g.axis(i)[0]
        axes.append(np.exp(sign * 1j * p * q0 / hbar))
    mesh = np.meshgrid(*axes, indexing="ij")
    out = mesh[0]
    for m in mesh[1:]:
        out = out * m
    return out


def write_field(path, f: ScalarField | ComplexField) -> None:
    """Binary field format: magic, u32 version, u8 kind, u8 D, u64 shape per
    axis, f64 lo/hi per axis, then row-major little-endian samples."""
    kind = 1 if isinstance(f, ComplexField) else 0
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<I", FIELD_VERSION))
        fh.write(struct.pack("<BB", kind, g.ndim))
        for n in g.shape:
            fh.write(struct.pack("<Q", n))
        for lo, hi in g.bounds:
            fh.write(struct.pack("<dd", lo, hi))
        if kind == 1:
            fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())
        else:
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> ScalarField | ComplexField:
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FieldFormatError(f"truncated file while reading {what}", off)
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != FIELD_MAGIC:
        raise FieldFormatError("bad magic", 0)
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != FIELD_VERSION:
        raise FieldFormatError(f"unsupported version {version}", 4)
    kind, ndim = struct.unpack("<BB", take(2, "kind/dimension"))
    if kind not in (0, 1):
        raise FieldFormatError(f"unknown kind byte {kind}", 8)
    if ndim not in (2, 3):
        raise FieldFormatError(f"unsupported dimension {ndim}", 9)
    shape = tuple(struct.unpack("<Q", take(8, "shape"))[0] for _ in range(ndim))
    bounds = tuple(struct.unpack("<dd", take(16, "bounds")) for _ in range(ndim))
    grid = SpatialGrid(bounds, shape)
    count = grid.size
    if kind == 1:
        raw = take(16 * count, "complex samples")
        values = np.frombuffer(raw, dtype="<c16").reshape(shape)
        return ComplexField(grid, values.copy())
    raw = take(8 * count, "real samples")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return ScalarField(grid, values.copy())
