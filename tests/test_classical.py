"""Symplectic ensemble dynamics and occupancy statistics."""

import math

import numpy as np
import pytest

from scratchsim.classical import (
    ClassicalEnsemble,
    ClassicalError,
    ConfinementError,
    StabilityError,
    initialize_on_scratches,
    integrate,
    min_pairwise_distance,
    occupancy,
    stable_timestep,
)
from scratchsim.experiment import deviation_floor
from scratchsim.geometry import SegmentCurve, SplineCurve, catmull_rom_tangents
from scratchsim.grid import SpatialGrid, half_planes, momentum_half_spaces
from scratchsim.potentials import GaussianWellPotential, HarmonicPotential, ZeroPotential
from scratchsim.quantum import CheckpointSchedule
from scratchsim.scratch import (
    ScratchedPotential,
    TimingConditions,
    construct_tangential_potential,
)


def grid2d(half=8.0, n=64):
    return SpatialGrid(((-half, half), (-half, half)), (n, n))


class FreePotential(ZeroPotential):
    pass


class TestInitialization:
    def test_line_mode_momentum_formula(self):
        # p = m (q_f - q_i) / (t_f - t_i)
        c = SegmentCurve([0.0, 0.0], [1.0, 1.0])
        ens = initialize_on_scratches([c], 1.0, CheckpointSchedule([0.0, 1.0]))
        assert np.allclose(ens.positions[0], [0.0, 0.0])
        assert np.allclose(ens.momenta[0], [1.0, 1.0])

    def test_line_mode_scales_with_interval(self):
        c = SegmentCurve([0.0, 0.0], [2.0, 0.0])
        ens = initialize_on_scratches([c], 2.0, CheckpointSchedule([1.0, 5.0]))
        assert np.allclose(ens.momenta[0], [1.0, 0.0])


class TestIntegrate:
    def test_free_particle_exact(self):
        sp = ScratchedPotential(ZeroPotential(2), [], lam=1.0)
        ens = ClassicalEnsemble(
            np.array([[0.0, 0.0]]), np.array([[1.0, 0.5]]), 1.0
        )
        res = integrate(ens, sp, CheckpointSchedule([0.0, 2.0]), dt_max=0.01)
        assert np.allclose(res.snapshots[-1].positions[0], [2.0, 1.0], atol=1e-12)
        assert res.energy_drift < 1e-14

    def test_harmonic_period(self):
        k, m = 2.0, 1.0
        period = 2.0 * np.pi * np.sqrt(m / k)
        sp = ScratchedPotential(HarmonicPotential(k), [], lam=1.0)
        ens = ClassicalEnsemble(np.array([[1.0, 0.0]]), np.zeros((1, 2)), m)
        res = integrate(ens, sp, CheckpointSchedule([0.0, period]), dt_max=period / 4000)
        assert np.allclose(res.snapshots[-1].positions[0], [1.0, 0.0], atol=1e-4)

    def test_checkpoint_times_exact(self):
        sp = ScratchedPotential(ZeroPotential(2), [], lam=1.0)
        ens = ClassicalEnsemble(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
        res = integrate(ens, sp, CheckpointSchedule([0.0, 0.337, 0.998]), dt_max=0.01)
        assert np.allclose(res.times, [0.0, 0.337, 0.998])
        assert len(res.snapshots) == 3

    def test_energy_drift_raises(self):
        sp = ScratchedPotential(
            GaussianWellPotential(0.5, 1.0, offset=1.0, ndim=2),
            [SegmentCurve([-1.0, 0.0], [1.0, 0.0])],
            lam=1.0e4,
        )
        ens = ClassicalEnsemble(
            np.array([[-1.0, 0.05]]), np.array([[0.5, 0.0]]), 1.0
        )
        with pytest.raises(StabilityError):
            # grossly under-resolved transverse frequency
            integrate(ens, sp, CheckpointSchedule([0.0, 1.0]), dt_max=0.05)

    def test_drift_must_lie_below_the_tolerance(self):
        # a free particle keeps its energy exactly: drift 0.0, which passes
        # any positive tolerance and fails a tolerance of 0.0, as the
        # report's energy criterion judges it
        sp = ScratchedPotential(ZeroPotential(2), [], lam=1.0)
        ens = ClassicalEnsemble(np.array([[0.0, 0.0]]), np.array([[1.0, 0.5]]), 1.0)
        schedule = CheckpointSchedule([0.0, 1.0])
        assert integrate(ens, sp, schedule, dt_max=0.01, energy_tol=1e-300).energy_drift == 0.0
        with pytest.raises(StabilityError) as err:
            integrate(ens, sp, schedule, dt_max=0.01, energy_tol=0.0)
        assert err.value.drift == 0.0

    def test_nan_drift_fails_any_tolerance(self):
        class NanPotential(ZeroPotential):
            def value_and_grad(self, points):
                vals, grads = super().value_and_grad(points)
                return np.full_like(vals, np.nan), grads

        sp = ScratchedPotential(NanPotential(2), [], lam=1.0)
        ens = ClassicalEnsemble(np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0)
        with pytest.raises(StabilityError):
            integrate(ens, sp, CheckpointSchedule([0.0, 1.0]), dt_max=0.1, energy_tol=math.inf)

    def test_domain_confinement(self):
        g = grid2d(half=1.0, n=8)
        sp = ScratchedPotential(ZeroPotential(2), [], lam=1.0)
        ens = ClassicalEnsemble(np.zeros((1, 2)), np.array([[5.0, 0.0]]), 1.0)
        with pytest.raises(ConfinementError):
            integrate(ens, sp, CheckpointSchedule([0.0, 1.0]), dt_max=0.01, domain=g)

    def test_particles_independent_under_permutation(self):
        sp = ScratchedPotential(
            GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=2), [], lam=1.0
        )
        q = np.array([[0.5, 0.0], [-0.5, 0.3], [0.2, -0.7]])
        p = np.array([[0.1, 0.2], [-0.3, 0.0], [0.0, 0.4]])
        schedule = CheckpointSchedule([0.0, 1.0])
        res1 = integrate(ClassicalEnsemble(q, p, 1.0), sp, schedule, dt_max=0.01)
        perm = [2, 0, 1]
        res2 = integrate(
            ClassicalEnsemble(q[perm], p[perm], 1.0), sp, schedule, dt_max=0.01
        )
        assert np.array_equal(res1.snapshots[-1].positions[perm], res2.snapshots[-1].positions)

    def test_stable_timestep_scaling(self):
        assert np.isclose(
            stable_timestep(400.0, 2.0, 2.0, safety=20.0),
            2.0 * np.pi / (20.0 * np.sqrt(400.0 * 2.0)),
        )


class TestConstraintRealization:
    def test_deviation_decreases_with_lambda(self):
        # exact on-line initialization never leaves the line (the scratched
        # force vanishes there identically), so probe the transverse
        # confinement with a small momentum kick: the oscillation amplitude
        # delta_p / sqrt(2 lambda U m) then scales as lambda^(-1/2)
        base = GaussianWellPotential(0.5, 2.0, center=[0.0, 1.0], offset=1.0, ndim=2)
        c = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
        g = grid2d()
        devs = []
        schedule = CheckpointSchedule([0.0, 1.0])
        for lam in (1e2, 1e3, 1e4):
            sp = ScratchedPotential(base, [c], lam=lam)
            ens = initialize_on_scratches([c], 1.0, schedule)
            ens.momenta[0, 1] += 0.01
            dt = stable_timestep(lam, 1.0, 1.0, safety=200.0)
            res = integrate(ens, sp, schedule, dt_max=dt, domain=g, curves=[c])
            assert res.energy_drift < 1e-6
            devs.append(float(res.max_curve_deviation[0]))
        assert devs[1] < devs[0] and devs[2] < devs[1]
        ratios = np.array(devs[:-1]) / np.array(devs[1:])
        assert np.all(ratios > 2.0)  # consistent with sqrt(10) per decade
        assert devs[2] < 1e-3

    def test_energy_non_secular_long_run(self):
        # 10x duration: drift bounded, no monotone growth
        base = GaussianWellPotential(0.5, 2.0, center=[0.0, 1.0], offset=1.0, ndim=2)
        c = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
        lam = 1e3
        sp = ScratchedPotential(base, [c], lam=lam)
        schedule = CheckpointSchedule([0.0, 10.0])
        ens = initialize_on_scratches([c], 1.0, schedule)
        dt = stable_timestep(lam, 1.0, 1.0, safety=200.0)
        res = integrate(ens, sp, schedule, dt_max=dt, energy_tol=1e-5)
        e = res.energy_log[:, 0]
        drift_first = np.max(np.abs(e[: len(e) // 2] - e[0]))
        drift_all = np.max(np.abs(e - e[0]))
        assert drift_all < 1.5 * drift_first + 1e-12


class StepRecorder:
    """A scratched potential that keeps the points of every step's force
    evaluation (the calls that ask for the own-curve distances)."""

    def __init__(self, inner):
        self.inner = inner
        self.steps = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def eval(self, points, *, own_f=None, s_warm=None):
        if own_f is not None:
            self.steps.append(points.copy())
        return self.inner.eval(points, own_f=own_f, s_warm=s_warm)


class TestDeviationTracking:
    def driven_run(self):
        # two curved splines, each driven through its knots by a tangential
        # potential, so the particles ride the curves at a real deviation
        base = GaussianWellPotential(0.5, 3.0, offset=1.5, ndim=3)
        times = np.array([0.0, 2.0, 4.0])
        curves, tangential, q, p = [], [], [], []
        for shift in (-1.5, 1.5):
            wp = np.array([[-1.0, shift, 0.0], [0.0, shift + 0.5, 0.3], [1.0, shift, 0.5]])
            chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
            knots = np.concatenate([[0.0], np.cumsum(chords) / chords.sum()])
            c = SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))
            secants = np.diff(knots) / np.diff(times)
            speeds = np.array([secants[0], secants.min(), secants[1]])
            cond = TimingConditions(times, knots, speeds)
            curves.append(c)
            tangential.append(construct_tangential_potential(c, cond, 1.0))
            q.append(c(np.array([0.0]))[0])
            p.append(speeds[0] * c.deriv(np.array([0.0]))[0])
        sp = StepRecorder(ScratchedPotential(base, curves, 1e3, tangential=tangential))
        ens = ClassicalEnsemble(np.array(q), np.array(p), 1.0)
        dt = stable_timestep(1e3, 2.0, 1.0, safety=40.0)
        res = integrate(
            ens, sp, CheckpointSchedule(times), dt_max=dt, curves=curves, energy_tol=math.inf
        )
        return curves, sp, res

    def test_matches_reprojection(self):
        curves, sp, res = self.driven_run()
        # the reference: re-project every particle onto its own curve after
        # every step, as the integrator once did every second step
        ref = np.zeros(len(curves))
        for q in sp.steps:
            for l, c in enumerate(curves):
                _, f = c.project(q[l][None, :], s_lo=-0.2, s_hi=1.2)
                ref[l] = max(ref[l], np.sqrt(max(f[0], 0.0)))
        floor = deviation_floor(sp.inner)
        assert np.all(ref > 100 * floor)  # a real deviation, not round-off
        assert np.all(np.abs(res.max_curve_deviation - ref) <= floor)

    def test_needs_the_potentials_own_curves(self):
        c = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
        other = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
        sp = ScratchedPotential(HarmonicPotential(1.0, ndim=2), [c], lam=10.0)
        schedule = CheckpointSchedule([0.0, 1.0])
        ens = initialize_on_scratches([c], 1.0, schedule)
        with pytest.raises(ClassicalError):
            integrate(ens, sp, schedule, dt_max=0.01, curves=[other])


class CountingPotential:
    """A scratched potential that counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def eval(self, points, *, own_f=None, s_warm=None):
        self.calls += 1
        return self.inner.eval(points, own_f=own_f, s_warm=s_warm)


def reference_energy_log(ensemble, scratched, times, dt_max, stride=10, warm=True):
    """The Verlet loop with its energy rows from separate potential
    evaluations: at the start, every `stride` steps and at the end. With
    `warm`, each force evaluation, and the energy evaluation after it, starts
    its projections where `integrate` starts them: from the linear
    prediction 2 s_k - s_(k-1) of the two evaluations before it."""
    m = ensemble.mass
    q, p = ensemble.positions.copy(), ensemble.momenta.copy()
    s = np.full((scratched.num_scratches, len(q)), np.nan)

    def force_at(qv):
        # with warm, s goes from the prediction to the parameters found
        return -(scratched.eval(qv, s_warm=s) if warm else scratched.eval(qv))[1]

    def energy(qv, pv, start):
        value = scratched.eval(qv, s_warm=start.copy())[0] if warm else scratched.eval(qv)[0]
        return np.sum(pv**2, axis=1) / (2.0 * m) + value

    start = s.copy()
    force = force_at(q)
    rows = [energy(q, p, start)]
    s_prev = s.copy()
    step = 0
    for t1, t2 in zip(times[:-1], times[1:]):
        nsteps = max(1, int(np.ceil((t2 - t1) / dt_max)))
        dt = (t2 - t1) / nsteps
        for _ in range(nsteps):
            p = p + 0.5 * dt * force
            q = q + dt * p / m
            s, s_prev = 2.0 * s - s_prev, s
            start = s.copy()
            force = force_at(q)
            p = p + 0.5 * dt * force
            step += 1
            if step % stride == 0:
                rows.append(energy(q, p, start))
    rows.append(energy(q, p, start))
    return np.stack(rows), step


class TestEvaluationCount:
    def test_one_evaluation_per_step_and_one_to_start(self):
        base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
        curves = [
            SegmentCurve([-3.0, -1.0], [2.0, 1.5]),
            SegmentCurve([-2.0, 2.0], [3.0, -2.0]),
            SegmentCurve([1.0, -3.0], [-1.0, 3.0]),
        ]
        times = np.array([0.0, 0.37, 1.0])
        schedule = CheckpointSchedule(times)
        sp = CountingPotential(ScratchedPotential(base, curves, lam=1e3))
        ens = initialize_on_scratches(curves, 1.0, schedule)
        dt = stable_timestep(1e3, 1.0, 1.0, safety=20.0)
        res = integrate(ens, sp, schedule, dt_max=dt, curves=curves)
        ref_log, steps = reference_energy_log(ens, sp.inner, times, dt)
        assert steps > 20 and steps % 10 != 0
        assert sp.calls == steps + 1
        assert np.array_equal(res.energy_log, ref_log)

    def test_driven_splines(self):
        curves, sp, res = TestDeviationTracking().driven_run()
        counting = CountingPotential(sp.inner)
        ens = ClassicalEnsemble(
            res.snapshots[0].positions, res.snapshots[0].momenta, res.snapshots[0].mass
        )
        dt = stable_timestep(1e3, 2.0, 1.0, safety=40.0)
        res2 = integrate(
            ens, counting, CheckpointSchedule(res.times), dt_max=dt, curves=curves,
            energy_tol=math.inf,
        )
        ref_log, steps = reference_energy_log(ens, sp.inner, res.times, dt)
        assert counting.calls == steps + 1
        assert np.array_equal(res2.energy_log, ref_log)
        assert np.array_equal(res2.energy_log, res.energy_log)


class TestWarmStarts:
    def test_cold_projections_change_the_log_by_round_off(self):
        # a warm start ends Newton a few ulps from where the scan's start
        # ends it; over the run the energy rows drift apart by round-off only
        curves, sp, res = TestDeviationTracking().driven_run()
        ens = ClassicalEnsemble(
            res.snapshots[0].positions, res.snapshots[0].momenta, res.snapshots[0].mass
        )
        dt = stable_timestep(1e3, 2.0, 1.0, safety=40.0)
        cold, steps = reference_energy_log(ens, sp.inner, res.times, dt, warm=False)
        assert steps > 1000
        assert np.max(np.abs(res.energy_log - cold) / np.abs(cold)) < 1e-10


class TestOccupancy:
    def test_counts_and_fractions(self):
        g = grid2d()
        part = half_planes(g, 0, 0.0)
        snaps = [
            ClassicalEnsemble(np.array([[-1.0, 0.0], [-2.0, 1.0]]), np.zeros((2, 2)), 1.0),
            ClassicalEnsemble(np.array([[-1.0, 0.0], [2.0, 1.0]]), np.zeros((2, 2)), 1.0),
        ]
        from scratchsim.classical import TrajectoryResult

        res = TrajectoryResult(snaps, np.array([0.0, 1.0]), np.zeros((1, 2)), 0.0)
        occ = occupancy(res, part)
        assert np.array_equal(occ.counts, [[2, 0], [1, 1]])
        assert np.allclose(occ.pi, [[1.0, 0.0], [0.5, 0.5]])

    def test_momentum_counts(self):
        g = grid2d()
        part = half_planes(g, 0, 0.0)
        mom = momentum_half_spaces(2, 0, 0.0)
        snap = ClassicalEnsemble(
            np.array([[-1.0, 0.0], [1.0, 0.0]]),
            np.array([[-1.0, 0.0], [2.0, 0.0]]),
            1.0,
        )
        from scratchsim.classical import TrajectoryResult

        res = TrajectoryResult([snap], np.array([0.0]), np.zeros((1, 2)), 0.0)
        occ = occupancy(res, part, mom)
        assert np.array_equal(occ.counts_momentum, [[1, 1]])
        assert np.allclose(occ.pi_momentum, [[0.5, 0.5]])

    def test_min_pairwise_distance(self):
        snap = ClassicalEnsemble(
            np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((2, 2)), 1.0
        )
        assert np.isclose(min_pairwise_distance([snap]), 5.0)
        single = ClassicalEnsemble(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
        assert min_pairwise_distance([single]) == float("inf")
