"""Unitary evolution under H = p^2/2m + U and region-occupation statistics.

Strang-split spectral stepping (half potential kick, exact kinetic factor,
half kick): norm-preserving by construction, second order in the step.
The potential is static, as the paper's Hamiltonian is, so the two half
kicks that meet between steps are merged into one full kick: a checkpoint
interval of n steps applies one half kick, n kinetic factors with n - 1
full kicks between them, and a closing half kick, and every snapshot lands
on the Strang-split state. The wavefunction is transformed in place, by
numpy's FFT with `out=`, so that a step allocates no array.

A propagation works in two complex arrays of its own, each 64-byte aligned:
the wavefunction and the kick, which holds the half kick at each interval's
ends and the full kick in between. The kinetic factor depends on the grid,
the mass, hbar and the step alone, not on the potential: it is computed
once per step length, read-only, and the decay table computes it once for
all its propagations to share. Each array is built in place by the same
operations, in the same order, as the expression it stands for, so the
values are those of that expression bit for bit. The norm and the
edge-layer mass are summed without a full-size temporary.

The decay table (`scratch_insensitivity`) propagates once per scratch
strength λ. All its propagations run at once, up to two per CPU, on a
standard thread pool that it starts and joins itself, and the operating
system shares the cores among them.
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from scratchsim.grid import (
    ComplexField,
    RegionPartition,
    ScalarField,
    SpatialGrid,
    fourier_forward,
    integrate_regions,
    is_number,
)
from scratchsim.potentials import AnalyticPotential


class QuantumError(ValueError):
    pass


class NumericalStabilityError(QuantumError):
    pass


class ConfinementWarning(UserWarning):
    """Probability density at the box edge above the configured threshold."""


def _numbers(what: str, values) -> np.ndarray:
    """values as a float array: a list or 1-D array of finite numbers."""
    if not (isinstance(values, (list, tuple, np.ndarray)) and all(map(is_number, values))):
        raise QuantumError(f"{what} must be a list of finite numbers, got {values!r}")
    return np.asarray(values, dtype=float)


@dataclass
class CheckpointSchedule:
    times: np.ndarray

    def __post_init__(self):
        self.times = _numbers("checkpoint times", self.times)
        if self.times.size < 2:
            raise QuantumError("a schedule needs K >= 2 checkpoints")
        if np.any(np.diff(self.times) <= 0):
            raise QuantumError("checkpoint times must be strictly increasing")

    @property
    def t_initial(self) -> float:
        return float(self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def steps(self, dt_max: float) -> list[int]:
        """Equal steps per checkpoint interval for a step bound dt_max:
        ceil(span / dt_max), at least one. dt_max must be finite and > 0."""
        if not 0.0 < dt_max < np.inf:
            raise QuantumError(f"step bound dt_max must be finite and positive, got {dt_max!r}")
        return [max(1, int(np.ceil(span / dt_max))) for span in np.diff(self.times)]


def check_lambdas(lambdas) -> np.ndarray:
    """The scratch strengths as floats: nonempty, positive and strictly
    increasing."""
    lambdas = _numbers("lambdas", lambdas)
    if lambdas.size == 0:
        raise QuantumError("lambdas must be a nonempty list")
    if not np.all(lambdas > 0):
        raise QuantumError("lambdas must be positive")
    if not np.all(np.diff(lambdas) > 0):
        raise QuantumError("lambdas must be strictly increasing")
    return lambdas


@dataclass
class QuantumSystem:
    mass: float
    grid: SpatialGrid
    potential: AnalyticPotential | ScalarField
    hbar: float = 1.0

    def potential_values(self) -> np.ndarray:
        if isinstance(self.potential, ScalarField):
            return self.potential.values
        return self.potential.sample(self.grid).values


@dataclass
class Wavefunction:
    field: ComplexField
    t: float


def gaussian_packet(
    grid: SpatialGrid, center, sigma: float, momentum=None, hbar: float = 1.0
) -> Wavefunction:
    """Normalized Gaussian with amplitude width sigma and optional drift."""
    center = np.asarray(center, dtype=float)
    momentum = np.zeros(grid.ndim) if momentum is None else np.asarray(momentum, dtype=float)
    pts = grid.points()
    d = pts - center
    r2 = np.einsum("ij,ij->i", d, d)
    psi = np.exp(-r2 / (4.0 * sigma**2) + 1j * (pts @ momentum) / hbar)
    psi = psi.reshape(grid.shape)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return Wavefunction(ComplexField(grid, psi), t=0.0)


_ALIGN = 64  # bytes; a step's speed depends on where its work arrays start
_NORM_TOL = 1e-8  # the largest norm drift a propagation may end an interval with


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialized complex array whose data starts on an _ALIGN-byte
    boundary."""
    nbytes = int(np.prod(shape)) * np.dtype(np.complex128).itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes].view(np.complex128).reshape(shape)


def _kinetic_factor(
    grid: SpatialGrid, mass: float, hbar: float, dt: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-i dt p^2 / (2 m hbar)) on the FFT's momentum grid, into `out` when
    given."""
    p2 = 0.0
    # one momentum axis per dimension, broadcast against the others
    mesh = np.meshgrid(
        *[2.0 * np.pi * hbar * np.fft.fftfreq(n, d=grid.spacing[i]) for i, n in enumerate(grid.shape)],
        indexing="ij",
        sparse=True,
    )
    for p in mesh:
        p2 = p2 + p**2
    return _exp_phase(-1j * dt, p2, 2.0 * mass * hbar, out)


def _exp_phase(phase: complex, x: np.ndarray, scale: float, out: np.ndarray | None) -> np.ndarray:
    """exp(phase * x / scale), evaluated in that order, into `out` when given."""
    out = np.multiply(phase, x, out=out)
    np.divide(out, scale, out=out)
    return np.exp(out, out=out)


def _mass(values: np.ndarray) -> float:
    """The sum of |values|^2, by einsum over the real and imaginary parts,
    which makes no full-size temporary and calls no BLAS."""
    parts = np.ascontiguousarray(values).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", parts, parts))


def edge_density(field: ComplexField) -> float:
    """Probability mass in the outermost cell layer."""
    v = field.values
    total = 0.0
    for axis in range(v.ndim):
        # the faces normal to this axis, without the cells on earlier faces
        inner = (slice(1, -1),) * axis
        total += _mass(v[inner + (0,)]) + _mass(v[inner + (-1,)])
    return total * field.grid.cell_volume


def _step_lengths(schedule: CheckpointSchedule, dt_max: float) -> list[tuple[float, int]]:
    """(dt, steps) per checkpoint interval: its span in equal steps of at
    most dt_max."""
    return [(span / n, n) for span, n in zip(np.diff(schedule.times), schedule.steps(dt_max))]


def _kinetic_factors(
    system: QuantumSystem, schedule: CheckpointSchedule, dt_max: float
) -> dict[float, np.ndarray]:
    """The kinetic factor of each step length of the schedule, read-only, for
    any number of propagations of `system`'s grid, mass and hbar to share."""
    factors = {}
    for dt, _ in _step_lengths(schedule, dt_max):
        if dt not in factors:
            kin = _aligned_empty(system.grid.shape)
            _kinetic_factor(system.grid, system.mass, system.hbar, dt, out=kin)
            kin.flags.writeable = False
            factors[dt] = kin
    return factors


def propagate(
    system: QuantumSystem,
    psi0: Wavefunction,
    schedule: CheckpointSchedule,
    dt_max: float = 5e-3,
    edge_eps: float = 1e-6,
    *,
    _kinetic: dict[float, np.ndarray] | None = None,
) -> list[Wavefunction]:
    """Evolve psi0 through every checkpoint time; returns one snapshot per
    checkpoint (the first checkpoint is psi0 itself, retimed).

    Each interval takes `schedule.steps(dt_max)` equal steps, so snapshots
    land exactly on checkpoints. Raises unless the norm drift at every
    checkpoint is below _NORM_TOL; warns when edge density exceeds edge_eps.

    The propagation works in two arrays of its own, the wavefunction and the
    kick. `_kinetic` maps each step length to its kinetic factor, as
    `_kinetic_factors` gives it, for propagations that share them; when it is
    None the propagation computes its own.
    """
    times = schedule.times
    g = psi0.field.grid
    snapshots = [Wavefunction(psi0.field, float(times[0]))]
    v = system.potential_values()
    hbar = system.hbar
    kinetic = _kinetic_factors(system, schedule, dt_max) if _kinetic is None else _kinetic
    psi, kick = _aligned_empty(g.shape), _aligned_empty(g.shape)
    psi[...] = psi0.field.values
    last = len(times) - 2
    for i, (t2, (dt, nsteps)) in enumerate(zip(times[1:], _step_lengths(schedule, dt_max))):
        kin = kinetic[dt]
        psi *= _exp_phase(-0.5j * dt, v, hbar, kick)  # the opening half kick
        _exp_phase(-1j * dt, v, hbar, kick)  # the full kick
        for step in range(nsteps):
            np.fft.fftn(psi, out=psi)
            psi *= kin
            np.fft.ifftn(psi, out=psi)
            # the closing half kick merges with the next step's opening one,
            # except at the checkpoint
            if step < nsteps - 1:
                psi *= kick
        psi *= _exp_phase(-0.5j * dt, v, hbar, kick)  # the closing half kick
        # the last snapshot keeps the work array
        snap = Wavefunction(ComplexField(g, psi if i == last else psi.copy()), float(t2))
        drift = abs(_mass(psi) * g.cell_volume - 1.0)
        if not drift < _NORM_TOL:  # a nan drift fails too
            raise NumericalStabilityError(
                f"norm drift {drift:.3e} not below {_NORM_TOL:.1e} at t={t2}"
            )
        if edge_density(snap.field) > edge_eps:
            warnings.warn(
                f"edge density above {edge_eps:.1e} at t={t2}; motion may not be confined",
                ConfinementWarning,
            )
        snapshots.append(snap)
    return snapshots


def occupation_probabilities(
    psi: Wavefunction,
    partition: RegionPartition,
    space: str = "position",
    hbar: float = 1.0,
) -> np.ndarray:
    """P_k (position) or P-tilde_k (momentum) for every region label."""
    if space == "position":
        rho = ScalarField(psi.field.grid, np.abs(psi.field.values) ** 2)
    elif space == "momentum":
        phi = fourier_forward(psi.field, hbar)
        rho = ScalarField(phi.grid, np.abs(phi.values) ** 2)
    else:
        raise QuantumError(f"unknown space {space!r}")
    return integrate_regions(rho, partition)


# ---------------------------------------------------------------------------
# insensitivity of the quantum dynamics to scratching


_TUBE_SAMPLES = 400  # tube quadrature samples along the curve
_HERMITE_NODES = 12  # Gauss-Hermite nodes per transverse axis
_TUBE_BLOCK = 32  # samples per base.value call in 3D (4608 nodes)


def _transverse_frames(tangents: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the planes normal to each tangent, (S, D-1, D).

    Per tangent t: Gram-Schmidt on the residuals e_j - (e_j . t) t of the
    unit vectors in axis order, skipping a residual of norm 1e-8 or less."""
    S, D = tangents.shape
    t = tangents / np.linalg.norm(tangents, axis=1, keepdims=True)
    frames = np.zeros((S, D - 1, D))
    found = np.zeros(S, dtype=np.int64)
    for j in range(D):
        v = np.eye(D)[j] - t[:, j, None] * t
        # before unit vector j no row has more than j frames
        for b in range(min(j, D - 1)):
            fb = frames[:, b]
            v = np.where((found > b)[:, None], v - np.sum(v * fb, axis=1)[:, None] * fb, v)
        n = np.linalg.norm(v, axis=1)
        take = np.flatnonzero((n > 1e-8) & (found < D - 1))
        frames[take, found[take]] = v[take] / n[take, None]
        found[take] += 1
        if found.min() == D - 1:  # every row is complete
            break
    return frames


@functools.cache
def _gauss_hermite(num_h: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per order and
    read-only, since every caller shares them."""
    x, w = hermgauss(num_h)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class TubeSamples:
    """What the tube quadrature takes from a curve, none of it dependent on
    lambda: _TUBE_SAMPLES parameters s over [0, 1], the curve's points and
    speeds there, and the transverse frames of its tangents."""

    def __init__(self, curve):
        self.s, self.points = curve.sample(_TUBE_SAMPLES)
        dc = curve.deriv(self.s)
        self.speed = np.linalg.norm(dc, axis=1)
        self.frames = _transverse_frames(dc)


def tube_l1_difference(base, curve, lam: float) -> float:
    """L1 norm of U * exp(-lam * dist^2) over one scratch tube.

    Gauss-Hermite in the scaled transverse coordinates (exact in the thin-tube
    limit), trapezoid along the curve: scales as lam^-((D-1)/2). `curve` may
    also be the curve's `TubeSamples`, which a decay table takes once per
    curve for all its lambdas."""
    tube = curve if isinstance(curve, TubeSamples) else TubeSamples(curve)
    s, pts, speed, frames = tube.s, tube.points, tube.speed, tube.frames
    num_s, D = pts.shape
    num_h = _HERMITE_NODES
    x, w = _gauss_hermite(num_h)
    if D == 2:
        q = pts[:, None, :] + (x / np.sqrt(lam))[None, :, None] * frames[:, 0, None, :]
        u = np.abs(base.value(q.reshape(-1, D))).reshape(num_s, num_h)
        vals = np.sum(w * u, axis=1) / np.sqrt(lam)
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w).ravel()
        a = (xx.ravel() / np.sqrt(lam))[None, :, None]
        b = (yy.ravel() / np.sqrt(lam))[None, :, None]
        vals = np.empty(num_s)
        for i in range(0, num_s, _TUBE_BLOCK):
            blk = slice(i, i + _TUBE_BLOCK)
            q = pts[blk, None, :] + a * frames[blk, 0, None, :] + b * frames[blk, 1, None, :]
            u = np.abs(base.value(q.reshape(-1, D))).reshape(-1, ww.size)
            vals[blk] = np.sum(ww * u, axis=1) / lam
    return float(np.trapezoid(vals * speed, s))


def _decay_executors(count: int) -> int:
    """Executors for `count` independent propagations: one each, up to two
    per CPU this process may run on. On one CPU there is one, since taking
    turns on it gains nothing and holds more arrays at once."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 1 if cpus == 1 else max(1, min(count, 2 * cpus))


def scratch_insensitivity(
    system: QuantumSystem,
    scratched,
    psi0: Wavefunction,
    schedule: CheckpointSchedule,
    reference: Wavefunction,
    dt_max: float = 5e-3,
    edge_eps: float = 1e-6,
) -> list[dict]:
    """Decay table of scratch effects on the quantum side, one row per
    scratched potential in `scratched`, each over the plain potential of
    `system`.

    Per potential: the tube-quadrature L1 distance of the potentials, the
    sup over Fourier modes of the transform of the sampled difference, and
    the final-time L2 distance of the wavefunctions propagated in the
    scratched versus the plain potential. `reference` is that plain-potential
    final wavefunction, psi0 propagated through the schedule with the same
    dt_max.

    Every propagation shares the kinetic factors, computed once here and
    read-only, and works in two arrays of its own; its L2 column is computed
    in place in its final array. The calling thread samples the potentials
    in order and submits each λ's propagation the moment its sample exists,
    to a thread pool of `_decay_executors(#λ) - 1` helpers: with the caller,
    one executor per λ, up to two per CPU; on one CPU, no helper. The
    propagations are independent and numpy's FFT releases the GIL, so they
    run at once, the operating system sharing the cores among them, while
    the caller computes the L1 and Fourier columns. Then the caller
    propagates, in λ order, each λ that no helper has started. No
    propagation starts once one has failed; the helpers are joined before
    this returns or raises, and the lowest failing λ's error is raised.
    """
    g = system.grid
    hbar = system.hbar
    u_plain = system.potential_values()
    fourier_norm = g.cell_volume / (2.0 * np.pi * hbar) ** g.ndim
    kinetic = _kinetic_factors(system, schedule, dt_max)
    samples, rows, futures = [], [], []
    errors = {}  # propagation errors by λ index; one stops further starts
    tubes = {}  # one TubeSamples per curve, for every lambda

    def tube(curve) -> TubeSamples:
        if curve not in tubes:
            tubes[curve] = TubeSamples(curve)
        return tubes[curve]

    def l2_distance(i: int) -> float | None:
        """Row i's L2 column; None, without starting, once a propagation has
        failed, and None, with the error recorded, if this one fails."""
        if errors:
            return None
        try:
            lam_system = QuantumSystem(system.mass, g, ScalarField(g, samples[i]), hbar)
            d = propagate(
                lam_system, psi0, schedule, dt_max=dt_max, edge_eps=edge_eps, _kinetic=kinetic
            )[-1].field.values
            # in place: the final wavefunction is this propagation's own
            d -= reference.field.values
            a = np.abs(d)
            a *= a
            return float(np.sqrt(np.sum(a) * g.cell_volume))
        except Exception as e:  # raised by the caller below
            errors[i] = e
            return None

    def fourier_sup(u_lam: np.ndarray) -> float:
        """A row's Fourier column, transformed in place: one complex array,
        gone on return."""
        f = np.subtract(u_lam, u_plain, dtype=complex)
        np.fft.fftn(f, out=f)
        return float(np.max(np.abs(f)) * fourier_norm)

    helpers = _decay_executors(len(scratched)) - 1
    pool = ThreadPoolExecutor(helpers, thread_name_prefix="decay") if helpers else None
    try:
        for i, sp in enumerate(scratched):
            samples.append(sp.sample(g))
            futures.append(pool.submit(l2_distance, i) if pool else None)
        for sp, u_lam in zip(scratched, samples):
            l1 = sum(tube_l1_difference(sp.base, tube(p.curve), sp.lam) for p in sp.profiles)
            rows.append({"lambda": sp.lam, "l1_potential": l1, "linf_fourier": fourier_sup(u_lam)})
        # a future that cancels has not started on a helper
        l2 = [l2_distance(i) if f is None or f.cancel() else f for i, f in enumerate(futures)]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if errors:
        raise errors[min(errors)]
    for row, value in zip(rows, l2):
        row["l2_wavefunction"] = value if isinstance(value, float) else value.result()
    return rows
