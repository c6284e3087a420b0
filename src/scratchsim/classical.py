"""Hamiltonian dynamics of the particle ensemble in a scratched potential.

Velocity-Verlet (symplectic, second order) over all particles at once;
particles are non-interacting, so the integration is vectorized over the
ensemble. The step resolves the stiffest transverse tube frequency
sqrt(2 * lambda * U_max / m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scratchsim.grid import RegionPartition, SpatialGrid
from scratchsim.quantum import CheckpointSchedule


class ClassicalError(ValueError):
    pass


class StabilityError(ClassicalError):
    pass


class ConfinementError(ClassicalError):
    pass


@dataclass
class ClassicalEnsemble:
    positions: np.ndarray  # (N, D)
    momenta: np.ndarray  # (N, D)
    mass: float

    @property
    def num_particles(self) -> int:
        return self.positions.shape[0]


@dataclass
class OccupancyRecord:
    times: np.ndarray
    counts: np.ndarray  # (K, n) position-region counts
    counts_momentum: np.ndarray | None  # (K, n) or None

    @property
    def pi(self) -> np.ndarray:
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    @property
    def pi_momentum(self) -> np.ndarray | None:
        if self.counts_momentum is None:
            return None
        return self.counts_momentum / self.counts_momentum.sum(axis=1, keepdims=True)


@dataclass
class TrajectoryResult:
    snapshots: list[ClassicalEnsemble]  # one per checkpoint
    times: np.ndarray
    energy_log: np.ndarray  # (num_logged, N)
    energy_drift: float  # max relative per-particle drift
    max_curve_deviation: np.ndarray | None = None  # (N,) if curves given


def initialize_on_scratches(
    curves, mass: float, schedule, conditioning=None
) -> ClassicalEnsemble:
    """Place particle l at q^(l)(s_1) with tangential momentum.

    Spline mode: p = m * c_{l,1} * dq/ds(s_1). Line mode: the straight-line
    momentum m * (q(t_f) - q(t_i)) / (t_f - t_i), which is the same choice
    with c = 1/(t_f - t_i).
    """
    times = schedule.times if isinstance(schedule, CheckpointSchedule) else np.asarray(schedule, dtype=float)
    N = len(curves)
    D = curves[0].ndim
    q = np.zeros((N, D))
    p = np.zeros((N, D))
    for l, c in enumerate(curves):
        s0 = c.checkpoint_params[0]
        q[l] = c(np.array([s0]))[0]
        dq = c.deriv(np.array([s0]))[0]
        if conditioning is not None:
            speed = conditioning.speeds[l, 0]
        else:
            speed = 1.0 / (times[-1] - times[0])
        p[l] = mass * speed * dq
    return ClassicalEnsemble(q, p, mass)


def stable_timestep(lam: float, u_max: float, mass: float, safety: float = 20.0) -> float:
    """Resolve the transverse tube frequency: dt = 2*pi/(safety * omega)."""
    omega = np.sqrt(max(2.0 * lam * u_max / mass, 1e-30))
    return 2.0 * np.pi / (safety * omega)


def integrate(
    ensemble: ClassicalEnsemble,
    scratched,
    schedule,
    *,
    dt_max: float | None = None,
    domain: SpatialGrid | None = None,
    energy_tol: float = 1e-6,
    curves=None,
    energy_log_stride: int = 10,
    check_energy: bool = True,
) -> TrajectoryResult:
    """Velocity-Verlet evolution with snapshots at exact checkpoint times.

    With `curves`, the scratched potential's own curves in order (one per
    particle), tracks each particle's maximum distance to its own curve
    (constraint-realization diagnostic). The distance is the one each step's
    force evaluation computes: the nearest parameter is searched over
    [-ext, 1 + ext], with ext the scratch profile's `extension`, and a
    distance below the profile's snap threshold reads as zero.
    """
    times = schedule.times if isinstance(schedule, CheckpointSchedule) else np.asarray(schedule, dtype=float)
    mass = ensemble.mass
    own_f = None
    if curves is not None:
        own = [prof.curve for prof in scratched.profiles]
        if not (len(curves) == len(own) == ensemble.num_particles) or any(
            a is not b for a, b in zip(own, curves)
        ):
            raise ClassicalError(
                "deviation tracking needs the scratched potential's own curves, one per particle"
            )
        own_f = np.zeros(ensemble.num_particles)
        max_f = np.zeros(ensemble.num_particles)
    if dt_max is None:
        u_max = 1.0
        if domain is not None:
            u_max = max(scratched.base.max_on(domain), 1e-6)
        dt_max = stable_timestep(scratched.lam, u_max, mass)
    q = ensemble.positions.copy()
    p = ensemble.momenta.copy()
    vals, grad = scratched.eval(q)
    force = -grad

    def energy(pv, potential):
        # the potential comes from the force evaluation at the same positions
        return np.sum(pv**2, axis=1) / (2.0 * mass) + potential

    e0 = energy(p, vals)
    scale = np.maximum(np.abs(e0), 1e-12)
    energy_rows = [e0]
    snapshots = [ClassicalEnsemble(q.copy(), p.copy(), mass)]
    step_count = 0
    for t1, t2 in zip(times[:-1], times[1:]):
        span = t2 - t1
        nsteps = max(1, int(np.ceil(span / dt_max)))
        dt = span / nsteps
        for _ in range(nsteps):
            p = p + 0.5 * dt * force
            q = q + dt * p / mass
            vals, grad = scratched.eval(q, own_f=own_f)
            force = -grad
            p = p + 0.5 * dt * force
            step_count += 1
            if own_f is not None:
                np.maximum(max_f, own_f, out=max_f)
            if step_count % energy_log_stride == 0:
                energy_rows.append(energy(p, vals))
            if domain is not None and (
                np.any(q < domain.lo) or np.any(q > domain.hi)
            ):
                raise ConfinementError("a particle left the domain box")
        snapshots.append(ClassicalEnsemble(q.copy(), p.copy(), mass))
    energy_rows.append(energy(p, vals))
    energy_log = np.stack(energy_rows)
    drift = float(np.max(np.abs(energy_log - e0) / scale))
    if check_energy and drift > energy_tol:
        raise StabilityError(
            f"energy drift {drift:.3e} beyond {energy_tol:.1e} "
            f"(dt={dt_max:.3e}, lambda={scratched.lam:.3e})"
        )
    return TrajectoryResult(
        snapshots=snapshots,
        times=times,
        energy_log=energy_log,
        energy_drift=drift,
        max_curve_deviation=None if own_f is None else np.sqrt(max_f),
    )


def occupancy(
    result: TrajectoryResult,
    position_partition: RegionPartition,
    momentum_partition: RegionPartition | None = None,
) -> OccupancyRecord:
    """Per-checkpoint region counts for positions and (optionally) momenta."""
    K = len(result.snapshots)
    n = position_partition.n
    counts = np.zeros((K, n), dtype=np.int64)
    counts_p = (
        np.zeros((K, momentum_partition.n), dtype=np.int64)
        if momentum_partition is not None
        else None
    )
    for j, snap in enumerate(result.snapshots):
        labels = position_partition.labels_for(snap.positions)
        for lab in labels:
            counts[j, lab - 1] += 1
        if counts_p is not None:
            plabels = momentum_partition.labels_for(snap.momenta)
            for lab in plabels:
                counts_p[j, lab - 1] += 1
    return OccupancyRecord(times=result.times, counts=counts, counts_momentum=counts_p)


def min_pairwise_distance(snapshots: list[ClassicalEnsemble]) -> float:
    """Minimum inter-particle distance over checkpoint snapshots (collision
    surrogate for the non-interacting gas interpretation)."""
    best = np.inf
    for snap in snapshots:
        q = snap.positions
        if q.shape[0] < 2:
            return float("inf")
        d2 = (
            np.sum(q**2, axis=1)[:, None]
            - 2.0 * q @ q.T
            + np.sum(q**2, axis=1)[None, :]
        )
        np.fill_diagonal(d2, np.inf)
        best = min(best, float(np.sqrt(max(d2.min(), 0.0))))
    return best
