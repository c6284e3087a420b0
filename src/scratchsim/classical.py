"""Hamiltonian dynamics of the particle ensemble in a scratched potential.

Velocity-Verlet (symplectic, second order) over all particles at once;
particles are non-interacting, so the integration is vectorized over the
ensemble. The caller sets the step bound; `stable_timestep` resolves the
stiffest transverse tube frequency sqrt(2 * lambda * U_max / m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scratchsim.grid import RegionPartition, SpatialGrid
from scratchsim.quantum import CheckpointSchedule

# Verlet steps between two rows of the energy log
_ENERGY_LOG_STRIDE = 10


class ClassicalError(ValueError):
    pass


class StabilityError(ClassicalError):
    """Energy drift not below the tolerance; `drift` is the drift measured."""

    def __init__(self, message: str, drift: float):
        super().__init__(message)
        self.drift = drift


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
    curves, mass: float, schedule: CheckpointSchedule, conditioning=None
) -> ClassicalEnsemble:
    """Place particle l at q^(l)(s_1) with tangential momentum.

    Spline mode: p = m * c_{l,1} * dq/ds(s_1). Line mode: the straight-line
    momentum m * (q(t_f) - q(t_i)) / (t_f - t_i), which is the same choice
    with c = 1/(t_f - t_i).
    """
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
            speed = 1.0 / (schedule.t_final - schedule.t_initial)
        p[l] = mass * speed * dq
    return ClassicalEnsemble(q, p, mass)


def stable_timestep(lam: float, u_max: float, mass: float, safety: float = 20.0) -> float:
    """Resolve the transverse tube frequency: dt = 2*pi/(safety * omega).

    A first guess only: it ignores the tangential drive, the speed and the
    curvature. The pipeline sizes later attempts from the drift they measure
    (`drift_law_timestep`).
    """
    omega = np.sqrt(max(2.0 * lam * u_max / mass, 1e-30))
    return 2.0 * np.pi / (safety * omega)


def drift_law_timestep(dt: float, drift: float, energy_tol: float) -> float:
    """The step that Verlet's drift law predicts to pass `energy_tol`.

    Velocity Verlet's energy error is O(dt^2) and bounded (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, ch. IX), so a run at dt with
    drift d has d / dt^2 as its drift constant, and dt * 0.8 *
    sqrt(energy_tol / d) is expected to drift 0.64 * energy_tol. Zero drift
    gives inf, infinite drift 0 and nan drift nan.
    """
    with np.errstate(divide="ignore"):
        return dt * 0.8 * float(np.sqrt(energy_tol / np.float64(drift)))


def integrate(
    ensemble: ClassicalEnsemble,
    scratched,
    schedule: CheckpointSchedule,
    *,
    dt_max: float,
    domain: SpatialGrid | None = None,
    energy_tol: float = 1e-6,
    curves=None,
) -> TrajectoryResult:
    """Velocity-Verlet evolution with snapshots at exact checkpoint times:
    each interval takes `schedule.steps(dt_max)` equal steps. A run whose
    relative energy drift is not below `energy_tol` raises StabilityError
    (`math.inf` accepts any finite drift).

    With `curves`, the scratched potential's own curves in order (one per
    particle), tracks each particle's maximum distance to its own curve
    (constraint-realization diagnostic). The distance is the one each step's
    force evaluation computes: the nearest parameter is searched over
    [-ext, 1 + ext], with ext the scratch profile's `extension`, and a
    distance below the profile's snap threshold reads as zero.

    Each step's evaluation starts every (scratch, particle) projection from
    the linear prediction 2 s_k - s_(k-1) of the two evaluations before it
    (`ScratchedPotential.eval`'s `s_warm`); the first two start from s_0.
    """
    times = schedule.times
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
    q = ensemble.positions.copy()
    p = ensemble.momenta.copy()
    s_warm = np.full((scratched.num_scratches, ensemble.num_particles), np.nan)
    vals, grad = scratched.eval(q, s_warm=s_warm)
    s_prev = s_warm.copy()
    force = -grad

    def energy(pv, potential):
        # the potential comes from the force evaluation at the same positions
        return np.sum(pv**2, axis=1) / (2.0 * mass) + potential

    e0 = energy(p, vals)
    scale = np.maximum(np.abs(e0), 1e-12)
    energy_rows = [e0]
    snapshots = [ClassicalEnsemble(q.copy(), p.copy(), mass)]
    step_count = 0
    for span, nsteps in zip(np.diff(times), schedule.steps(dt_max)):
        dt = span / nsteps
        for _ in range(nsteps):
            p = p + 0.5 * dt * force
            q = q + dt * p / mass
            s_warm, s_prev = 2.0 * s_warm - s_prev, s_warm
            vals, grad = scratched.eval(q, own_f=own_f, s_warm=s_warm)
            force = -grad
            p = p + 0.5 * dt * force
            step_count += 1
            if own_f is not None:
                np.maximum(max_f, own_f, out=max_f)
            if step_count % _ENERGY_LOG_STRIDE == 0:
                energy_rows.append(energy(p, vals))
            if domain is not None and (
                np.any(q < domain.lo) or np.any(q > domain.hi)
            ):
                raise ConfinementError("a particle left the domain box")
        snapshots.append(ClassicalEnsemble(q.copy(), p.copy(), mass))
    energy_rows.append(energy(p, vals))
    energy_log = np.stack(energy_rows)
    drift = float(np.max(np.abs(energy_log - e0) / scale))
    if not drift < energy_tol:  # a nan drift fails too
        raise StabilityError(
            f"energy drift {drift:.3e} not below {energy_tol:.1e} "
            f"(dt={dt_max:.3e}, lambda={scratched.lam:.3e})",
            drift,
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
    snaps = result.snapshots
    counts = np.stack([position_partition.counts(s.positions) for s in snaps])
    counts_p = None
    if momentum_partition is not None:
        counts_p = np.stack([momentum_partition.counts(s.momenta) for s in snaps])
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
