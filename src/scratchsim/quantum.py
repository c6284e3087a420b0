"""Unitary evolution under H = p^2/2m + U and region-occupation statistics.

Strang-split spectral stepping (half potential kick, exact kinetic factor,
half kick): norm-preserving by construction, second order in the step.
For a static potential the two half kicks that meet between steps are
merged into one full kick, so a checkpoint interval of n steps applies one
half kick, n kinetic factors with n - 1 full kicks between them, and a
closing half kick: every snapshot lands on the Strang-split state. The
wavefunction is transformed in place. Time-dependent potentials keep both
half kicks of each step, evaluated at its midpoint time.
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
    potential: AnalyticPotential | ScalarField | None
    hbar: float = 1.0

    def potential_values(self, t: float) -> np.ndarray:
        if self.potential is None:
            return np.zeros(self.grid.shape)
        if isinstance(self.potential, ScalarField):
            return self.potential.values
        if isinstance(self.potential, AnalyticPotential):
            return self.potential.sample(self.grid).values
        return np.asarray(self.potential(self.grid.points(), t)).reshape(self.grid.shape)

    @property
    def time_dependent(self) -> bool:
        return callable(self.potential) and not isinstance(
            self.potential, (AnalyticPotential, ScalarField)
        )


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
    schedule,
    dt_max: float = 5e-3,
    norm_tol: float = 1e-8,
    edge_eps: float = 1e-6,
) -> list[Wavefunction]:
    """Evolve psi0 through every checkpoint time; returns one snapshot per
    checkpoint (the first checkpoint is psi0 itself, retimed).

    Steps subdivide each interval so snapshots land exactly on checkpoints.
    Raises on norm drift beyond norm_tol; warns when edge density exceeds
    edge_eps.
    """
    times = schedule.times if isinstance(schedule, CheckpointSchedule) else np.asarray(schedule, dtype=float)
    g = psi0.field.grid
    psi = psi0.field.values.copy()
    snapshots = [Wavefunction(ComplexField(g, psi.copy()), float(times[0]))]
    static = not system.time_dependent
    v_static = system.potential_values(times[0]) if static else None
    hbar = system.hbar
    for t1, t2 in zip(times[:-1], times[1:]):
        span = t2 - t1
        nsteps = max(1, int(np.ceil(abs(span) / dt_max)))
        dt = span / nsteps
        kin = _kinetic_factor(g, system.mass, hbar, dt)
        if static:
            half_kick = np.exp(-0.5j * dt * v_static / hbar)
            full_kick = np.exp(-1j * dt * v_static / hbar)
            psi *= half_kick
        t = t1
        for step in range(nsteps):
            if not static:
                v = system.potential_values(t + dt / 2.0)
                half_kick = np.exp(-0.5j * dt * v / hbar)
                psi *= half_kick
            psi = scipy.fft.fftn(psi, overwrite_x=True)
            psi *= kin
            psi = scipy.fft.ifftn(psi, overwrite_x=True)
            # a static potential's closing half kick merges with the next
            # step's opening one, except at the checkpoint
            psi *= full_kick if static and step < nsteps - 1 else half_kick
            t += dt
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
    schedule,
    lambdas,
    dt_max: float = 5e-3,
    edge_eps: float = 1e-6,
    *,
    reference: Wavefunction | None = None,
) -> list[dict]:
    """Decay table of scratch effects on the quantum side.

    Per lambda: the tube-quadrature L1 distance of the potentials, the sup
    over Fourier modes of the transform of the sampled difference, and the
    final-time L2 distance of the wavefunctions propagated in the scratched
    versus the plain potential. `reference` is that plain-potential final
    wavefunction, psi0 propagated through the schedule in `scratched.base`
    with the same dt_max, when the caller already has it; without it the
    run is made here.
    """
    from scratchsim.scratch import ScratchedPotential

    lambdas = check_lambdas(lambdas)
    g = system.grid
    hbar = system.hbar
    base = scratched.base
    curves = [p.curve for p in scratched.profiles]
    u_plain = base.sample(g).values
    if reference is None:
        ref_system = QuantumSystem(system.mass, g, base, hbar)
        reference = propagate(ref_system, psi0, schedule, dt_max=dt_max, edge_eps=edge_eps)[-1]
    rows = []
    fourier_norm = g.cell_volume / (2.0 * np.pi * hbar) ** g.ndim
    for lam in lambdas:
        if curves:
            sp = ScratchedPotential(base, curves, lam, tangential=scratched.tangential)
            u_lam = sp.sample(g)
            l1 = sum(tube_l1_difference(base, c, lam) for c in curves)
        else:
            u_lam = u_plain
            l1 = 0.0
        du = u_lam - u_plain
        linf = float(np.max(np.abs(np.fft.fftn(du))) * fourier_norm)
        if curves:
            lam_system = QuantumSystem(system.mass, g, ScalarField(g, u_lam), hbar)
            fin = propagate(
                lam_system, psi0, schedule, dt_max=dt_max, edge_eps=edge_eps
            )[-1]
            l2 = float(
                np.sqrt(
                    np.sum(np.abs(fin.field.values - reference.field.values) ** 2)
                    * g.cell_volume
                )
            )
        else:
            l2 = 0.0
        rows.append(
            {
                "lambda": float(lam),
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
