"""Unitary evolution under H = p^2/2m + U and region-occupation statistics.

Strang-split spectral stepping (half potential kick, exact kinetic factor,
half kick): norm-preserving by construction, second order in the step.
The potential is static, as the paper's Hamiltonian is, so the two half
kicks that meet between steps are merged into one full kick: a checkpoint
interval of n steps applies one half kick, n kinetic factors with n - 1
full kicks between them, and a closing half kick, and every snapshot lands
on the Strang-split state. The wavefunction is transformed in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.hermite import hermgauss

from scratchsim.grid import (
    ComplexField,
    RegionPartition,
    ScalarField,
    SpatialGrid,
    fourier_forward,
    integrate_regions,
)
from scratchsim.potentials import AnalyticPotential


class QuantumError(ValueError):
    pass


class NumericalStabilityError(QuantumError):
    pass


class ConfinementWarning(UserWarning):
    """Probability density at the box edge above the configured threshold."""


@dataclass
class CheckpointSchedule:
    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
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
        ceil(span / dt_max), at least one."""
        return [max(1, int(np.ceil(span / dt_max))) for span in np.diff(self.times)]


def check_lambdas(lambdas) -> np.ndarray:
    """The scratch strengths as floats: nonempty, positive and strictly
    increasing."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise QuantumError("lambda list must be a nonempty list")
    if not np.all(lambdas > 0):
        raise QuantumError("lambda values must be positive")
    if not np.all(np.diff(lambdas) > 0):
        raise QuantumError("lambda list must be strictly increasing")
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

    def norm_sq(self) -> float:
        return self.field.norm_sq()


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


def _kinetic_factor(grid: SpatialGrid, mass: float, hbar: float, dt: float) -> np.ndarray:
    p2 = 0.0
    mesh = np.meshgrid(
        *[2.0 * np.pi * hbar * np.fft.fftfreq(n, d=grid.spacing[i]) for i, n in enumerate(grid.shape)],
        indexing="ij",
    )
    for p in mesh:
        p2 = p2 + p**2
    return np.exp(-1j * dt * p2 / (2.0 * mass * hbar))


def edge_density(field: ComplexField) -> float:
    """Probability mass in the outermost cell layer."""
    rho = np.abs(field.values) ** 2
    mask = np.zeros(rho.shape, dtype=bool)
    for axis in range(rho.ndim):
        sl = [slice(None)] * rho.ndim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return float(np.sum(rho[mask]) * field.grid.cell_volume)


def propagate(
    system: QuantumSystem,
    psi0: Wavefunction,
    schedule: CheckpointSchedule,
    dt_max: float = 5e-3,
    norm_tol: float = 1e-8,
    edge_eps: float = 1e-6,
) -> list[Wavefunction]:
    """Evolve psi0 through every checkpoint time; returns one snapshot per
    checkpoint (the first checkpoint is psi0 itself, retimed).

    Each interval takes `schedule.steps(dt_max)` equal steps, so snapshots
    land exactly on checkpoints. Raises on norm drift beyond norm_tol; warns
    when edge density exceeds edge_eps.
    """
    times = schedule.times
    g = psi0.field.grid
    psi = psi0.field.values.copy()
    snapshots = [Wavefunction(ComplexField(g, psi.copy()), float(times[0]))]
    v = system.potential_values()
    hbar = system.hbar
    for t2, span, nsteps in zip(times[1:], np.diff(times), schedule.steps(dt_max)):
        dt = span / nsteps
        kin = _kinetic_factor(g, system.mass, hbar, dt)
        half_kick = np.exp(-0.5j * dt * v / hbar)
        full_kick = np.exp(-1j * dt * v / hbar)
        psi *= half_kick
        for step in range(nsteps):
            psi = scipy.fft.fftn(psi, overwrite_x=True)
            psi *= kin
            psi = scipy.fft.ifftn(psi, overwrite_x=True)
            # the closing half kick merges with the next step's opening one,
            # except at the checkpoint
            psi *= full_kick if step < nsteps - 1 else half_kick
        snap = Wavefunction(ComplexField(g, psi.copy()), float(t2))
        drift = abs(snap.norm_sq() - 1.0)
        if drift > norm_tol:
            raise NumericalStabilityError(
                f"norm drift {drift:.3e} beyond {norm_tol:.1e} at t={t2}"
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


_TUBE_BLOCK = 32  # samples per base.value call in 3D (18432 nodes at num_h=24)


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
        for b in range(D - 1):
            fb = frames[:, b]
            v = np.where((found > b)[:, None], v - np.sum(v * fb, axis=1)[:, None] * fb, v)
        n = np.linalg.norm(v, axis=1)
        take = np.flatnonzero((n > 1e-8) & (found < D - 1))
        frames[take, found[take]] = v[take] / n[take, None]
        found[take] += 1
    return frames


def tube_l1_difference(base, curve, lam: float, num_s: int = 400, num_h: int = 24) -> float:
    """L1 norm of U * exp(-lam * dist^2) over one scratch tube.

    Gauss-Hermite in the scaled transverse coordinates (exact in the thin-tube
    limit), trapezoid along the curve: scales as lam^-((D-1)/2)."""
    s, pts = curve.sample(num_s)
    dc = curve.deriv(s)
    speed = np.linalg.norm(dc, axis=1)
    x, w = hermgauss(num_h)
    D = curve.ndim
    frames = _transverse_frames(dc)
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
    """
    g = system.grid
    hbar = system.hbar
    u_plain = system.potential_values()
    fourier_norm = g.cell_volume / (2.0 * np.pi * hbar) ** g.ndim
    rows = []
    for sp in scratched:
        u_lam = sp.sample(g)
        l1 = sum(tube_l1_difference(sp.base, p.curve, sp.lam) for p in sp.profiles)
        linf = float(np.max(np.abs(np.fft.fftn(u_lam - u_plain))) * fourier_norm)
        lam_system = QuantumSystem(system.mass, g, ScalarField(g, u_lam), hbar)
        fin = propagate(lam_system, psi0, schedule, dt_max=dt_max, edge_eps=edge_eps)[-1]
        l2 = float(
            np.sqrt(
                np.sum(np.abs(fin.field.values - reference.field.values) ** 2)
                * g.cell_volume
            )
        )
        rows.append(
            {
                "lambda": sp.lam,
                "l1_potential": l1,
                "linf_fourier": linf,
                "l2_wavefunction": l2,
            }
        )
    return rows


def density_std(psi: Wavefunction, axis: int = 0) -> float:
    """Standard deviation of the position density along an axis."""
    g = psi.field.grid
    rho = np.abs(psi.field.values) ** 2 * g.cell_volume
    q = g.meshgrid()[axis]
    mean = float(np.sum(rho * q))
    return float(np.sqrt(np.sum(rho * (q - mean) ** 2)))
