"""Spectral propagation, occupation statistics, and scratch insensitivity."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from test_grid import norm_sq

import scratchsim.quantum as quantum
from scratchsim.geometry import SegmentCurve, SplineCurve
from scratchsim.grid import (
    Box,
    ComplexField,
    RegionPartition,
    ScalarField,
    SpatialGrid,
    half_planes,
    momentum_half_spaces,
)
from scratchsim.potentials import GaussianWellPotential, HarmonicPotential, ZeroPotential
from scratchsim.quantum import (
    CheckpointSchedule,
    NumericalStabilityError,
    QuantumError,
    QuantumSystem,
    Wavefunction,
    _kinetic_factor,
    _transverse_frames,
    gaussian_packet,
    occupation_probabilities,
    propagate,
    scratch_insensitivity,
    tube_l1_difference,
)
from scratchsim.scratch import ScratchedPotential


def grid2d(n=128, half=10.0):
    return SpatialGrid(((-half, half), (-half, half)), (n, n))


def density_std(psi: Wavefunction, axis: int = 0) -> float:
    """Standard deviation of the position density along an axis."""
    g = psi.field.grid
    rho = np.abs(psi.field.values) ** 2 * g.cell_volume
    q = g.meshgrid()[axis]
    mean = float(np.sum(rho * q))
    return float(np.sqrt(np.sum(rho * (q - mean) ** 2)))


class TestSchedule:
    def test_needs_two_checkpoints(self):
        with pytest.raises(QuantumError):
            CheckpointSchedule([0.0])

    def test_strictly_increasing(self):
        with pytest.raises(QuantumError):
            CheckpointSchedule([0.0, 1.0, 1.0])

    def test_steps_per_interval(self):
        # ceil(span / dt_max) equal steps per interval, at least one
        schedule = CheckpointSchedule([0.0, 0.337, 1.001])
        assert schedule.steps(2e-2) == [17, 34]
        assert schedule.steps(0.664) == [1, 1]
        assert schedule.steps(10.0) == [1, 1]
        assert CheckpointSchedule([0.0, 1.0]).steps(0.25) == [4]

    @pytest.mark.parametrize("dt_max", [0.0, -1.0, np.nan, np.inf])
    def test_steps_need_a_finite_positive_bound(self, dt_max):
        with pytest.raises(QuantumError):
            CheckpointSchedule([0.0, 1.0]).steps(dt_max)


class TestPropagation:
    def test_norm_preserved(self):
        g = grid2d()
        system = QuantumSystem(1.0, g, HarmonicPotential(1.0))
        psi0 = gaussian_packet(g, [0.5, 0.0], 1.0)
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, 0.5, 1.0]))
        for s in snaps:
            assert abs(norm_sq(s.field) - 1.0) < 1e-12

    def test_nan_norm_is_a_drift(self):
        g = grid2d(32)
        system = QuantumSystem(1.0, g, HarmonicPotential(1.0))
        psi0 = Wavefunction(ComplexField(g, np.full(g.shape, np.nan, dtype=complex)), 0.0)
        with pytest.raises(NumericalStabilityError):
            propagate(system, psi0, CheckpointSchedule([0.0, 0.1]))

    def test_free_packet_spreading(self):
        # amplitude width sigma: density std grows as
        # sigma(t) = sigma * sqrt(1 + (hbar t / (2 m sigma^2))^2)
        g = grid2d(256, 14.0)
        sigma = 1.0
        system = QuantumSystem(1.0, g, ZeroPotential(2))
        psi0 = gaussian_packet(g, [0.0, 0.0], sigma)
        t = 2.0
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, t]), dt_max=1e-2)
        expect = sigma * np.sqrt(1.0 + (t / (2.0 * sigma**2)) ** 2)
        assert np.isclose(density_std(snaps[0]), sigma, rtol=1e-4)
        assert np.isclose(density_std(snaps[-1]), expect, rtol=1e-4)

    def test_harmonic_ground_state_stationary(self):
        # sigma0 = sqrt(hbar / (2 m omega)) for U = (k/2) r^2
        g = grid2d(128, 8.0)
        k, m = 1.0, 1.0
        sigma0 = np.sqrt(1.0 / (2.0 * m * np.sqrt(k / m)))
        system = QuantumSystem(m, g, HarmonicPotential(k))
        psi0 = gaussian_packet(g, [0.0, 0.0], sigma0)
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, 1.0]), dt_max=2e-3)
        rho0 = np.abs(snaps[0].field.values) ** 2
        rho1 = np.abs(snaps[-1].field.values) ** 2
        assert np.max(np.abs(rho1 - rho0)) < 1e-6

    def test_time_reversal_exact(self):
        g = grid2d(64, 8.0)
        system = QuantumSystem(1.0, g, GaussianWellPotential(0.5, 2.0, offset=1.0))
        psi0 = gaussian_packet(g, [1.0, -0.5], 1.0, momentum=[0.5, 0.2])
        fwd = propagate(system, psi0, CheckpointSchedule([0.0, 1.0]), dt_max=1e-2)[-1]
        rev0 = Wavefunction(ComplexField(g, np.conj(fwd.field.values)), 0.0)
        back = propagate(system, rev0, CheckpointSchedule([0.0, 1.0]), dt_max=1e-2)[-1]
        diff = np.conj(back.field.values) - psi0.field.values
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * g.cell_volume) < 1e-12

    def test_second_order_in_dt(self):
        g = grid2d(64, 8.0)
        system = QuantumSystem(1.0, g, HarmonicPotential(1.0))
        psi0 = gaussian_packet(g, [1.0, 0.0], 1.0)
        sched = CheckpointSchedule([0.0, 1.0])
        fine = propagate(system, psi0, sched, dt_max=1e-3 / 4)[-1].field.values

        def err(dt):
            v = propagate(system, psi0, sched, dt_max=dt)[-1].field.values
            return np.sqrt(np.sum(np.abs(v - fine) ** 2) * g.cell_volume)

        e1, e2 = err(2e-2), err(1e-2)
        assert 3.0 < e1 / e2 < 5.0

    def test_checkpoints_exact_times(self):
        g = grid2d(64, 8.0)
        system = QuantumSystem(1.0, g, ZeroPotential(2))
        psi0 = gaussian_packet(g, [0.0, 0.0], 1.0)
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, 0.337, 1.001]))
        assert [s.t for s in snaps] == [0.0, 0.337, 1.001]


def reference_propagate(system, psi0, times, dt_max):
    """Strang splitting with both half kicks in every step, by np.fft."""
    g = psi0.field.grid
    v = system.potential_values()
    psi = psi0.field.values.copy()
    out = [psi.copy()]
    for t1, t2 in zip(times[:-1], times[1:]):
        nsteps = max(1, int(np.ceil((t2 - t1) / dt_max)))
        dt = (t2 - t1) / nsteps
        kin = _kinetic_factor(g, system.mass, system.hbar, dt)
        expv = np.exp(-0.5j * dt * v / system.hbar)
        for _ in range(nsteps):
            psi = expv * psi
            psi = np.fft.ifftn(kin * np.fft.fftn(psi))
            psi = expv * psi
        out.append(psi.copy())
    return out


def three_array_propagate(system, psi0, times, dt_max):
    """`propagate` as it was in three arrays of its own: the wavefunction,
    the full kick, and the kinetic factor, which also held the half kicks at
    each interval's ends. Its snapshots, without the norm and edge checks;
    the two-array propagation must give every bit of them."""
    g = psi0.field.grid
    v = system.potential_values()
    hbar = system.hbar
    schedule = CheckpointSchedule(times)
    psi, full_kick, kin = (quantum._aligned_empty(g.shape) for _ in range(3))
    psi[...] = psi0.field.values
    out = [psi.copy()]
    for span, nsteps in zip(np.diff(schedule.times), schedule.steps(dt_max)):
        dt = span / nsteps
        psi *= quantum._exp_phase(-0.5j * dt, v, hbar, kin)
        _kinetic_factor(g, system.mass, hbar, dt, out=kin)
        quantum._exp_phase(-1j * dt, v, hbar, full_kick)
        for step in range(nsteps):
            np.fft.fftn(psi, out=psi)
            psi *= kin
            np.fft.ifftn(psi, out=psi)
            if step < nsteps - 1:
                psi *= full_kick
        psi *= quantum._exp_phase(-0.5j * dt, v, hbar, kin)
        out.append(psi.copy())
    return out


_KICK_SETUPS = [
    (SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (64, 64)), [1.0, -0.5], [0.5, 0.2]),
    (SpatialGrid(((-8.0, 8.0),) * 3, (16, 16, 16)), [1.0, -0.5, 0.3], [0.5, 0.2, -0.1]),
]
# unequal intervals: 17 and 34 steps of different lengths
_KICK_TIMES = [0.0, 0.337, 1.001]


def kick_system(grid, depth=0.5):
    return QuantumSystem(1.0, grid, GaussianWellPotential(depth, 2.0, offset=1.0, ndim=grid.ndim))


class TestMergedKicks:
    @pytest.mark.parametrize("grid, center, momentum", _KICK_SETUPS)
    def test_matches_two_half_kicks_per_step(self, grid, center, momentum):
        system = kick_system(grid)
        psi0 = gaussian_packet(grid, center, 1.0, momentum=momentum)
        got = propagate(system, psi0, CheckpointSchedule(_KICK_TIMES), dt_max=2e-2)
        ref = reference_propagate(system, psi0, _KICK_TIMES, dt_max=2e-2)
        for snap, want in zip(got, ref):
            assert np.max(np.abs(snap.field.values - want)) < 1e-12
        assert np.array_equal(psi0.field.values, got[0].field.values)
        # and every bit of the three-array propagation: the kick array holds
        # a half kick, the full kick and the closing half kick in turn, in
        # each of two intervals of different steps
        want = three_array_propagate(system, psi0, _KICK_TIMES, dt_max=2e-2)
        assert len(got) == len(want) == 3
        for snap, w in zip(got, want):
            assert np.array_equal(snap.field.values, w)

    @pytest.mark.parametrize("grid, center, momentum", _KICK_SETUPS)
    def test_threads_sharing_one_kinetic_factor(self, grid, center, momentum):
        # two potentials propagated on two threads at once, with one
        # read-only kinetic factor per step length between them
        systems = [kick_system(grid, depth) for depth in (0.5, 0.8)]
        psi0 = gaussian_packet(grid, center, 1.0, momentum=momentum)
        schedule = CheckpointSchedule(_KICK_TIMES)
        shared = quantum._kinetic_factors(systems[0], schedule, 2e-2)
        assert len(shared) == 2
        assert not any(kin.flags.writeable for kin in shared.values())
        before = {dt: kin.copy() for dt, kin in shared.items()}
        together = threading.Barrier(2, timeout=10.0)
        got = [None, None]

        def run(i):
            together.wait()
            got[i] = propagate(systems[i], psi0, schedule, dt_max=2e-2, _kinetic=shared)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        for system, snaps in zip(systems, got):
            want = three_array_propagate(system, psi0, _KICK_TIMES, dt_max=2e-2)
            for snap, w in zip(snaps, want):
                assert np.array_equal(snap.field.values, w)
        for dt, kin in shared.items():
            assert np.array_equal(kin, before[dt])


class TestWorkArrays:
    def test_snapshots_do_not_alias_the_work_array(self):
        g = grid2d(64, 8.0)
        system = QuantumSystem(1.0, g, GaussianWellPotential(0.5, 2.0, offset=1.0))
        psi0 = gaussian_packet(g, [1.0, -0.5], 1.0, momentum=[0.5, 0.2])
        before = psi0.field.values.copy()
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, 0.1, 0.2, 0.3]), dt_max=1e-2)
        assert snaps[0].field is psi0.field
        assert np.array_equal(psi0.field.values, before)
        # the last snapshot is the wavefunction's work array, 64-byte aligned
        work = snaps[-1].field.values
        assert work.ctypes.data % 64 == 0
        arrays = [s.field.values for s in snaps]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)


class TestOccupation:
    def test_labels_grid_once_and_sums_per_label(self, monkeypatch):
        g = grid2d(64, 8.0)
        psi = gaussian_packet(g, [1.0, 0.5], 1.0)
        part = RegionPartition(
            [
                Box((-8.0, -8.0), (0.0, 8.0)),
                Box((0.0, -8.0), (8.0, 0.0)),
                Box((0.0, 0.0), (8.0, 8.0)),
            ]
        )
        rho = np.abs(psi.field.values) ** 2
        labels = part.labels_for(g.points()).reshape(g.shape)
        ref = [float(np.sum(rho[labels == k]) * g.cell_volume) for k in (1, 2, 3)]
        calls = []
        label_grid = RegionPartition.label_grid
        monkeypatch.setattr(
            RegionPartition, "label_grid", lambda self, grid: calls.append(1) or label_grid(self, grid)
        )
        p = occupation_probabilities(psi, part)
        assert len(calls) == 1
        assert p.tolist() == ref

    def test_position_probabilities_sum_to_norm(self):
        g = grid2d(64, 8.0)
        psi = gaussian_packet(g, [1.0, 0.0], 1.0)
        part = half_planes(g, 0, 0.0)
        p = occupation_probabilities(psi, part)
        assert np.isclose(p.sum(), 1.0, atol=1e-12)
        assert p[1] > p[0]

    def test_momentum_probabilities_of_drifting_packet(self):
        g = grid2d(128, 10.0)
        sigma, p0 = 1.0, 2.0
        psi = gaussian_packet(g, [0.0, 0.0], sigma, momentum=[p0, 0.0])
        part = momentum_half_spaces(2, 0, 0.0)
        p = occupation_probabilities(psi, part, space="momentum")
        assert np.isclose(p.sum(), 1.0, atol=1e-10)
        assert p[0] < 1e-3 and p[1] > 0.999
        # oracle: the analytic momentum density on the same cells and bins
        mg = g.momentum_grid()
        pp = mg.points()
        rho = (
            (2.0 * sigma**2 / np.pi)
            * np.exp(-2.0 * sigma**2 * ((pp[:, 0] - p0) ** 2 + pp[:, 1] ** 2))
        )
        labels = part.labels_for(pp)
        oracle = np.array(
            [rho[labels == k].sum() * mg.cell_volume for k in (1, 2)]
        )
        assert np.allclose(p, oracle / oracle.sum(), atol=1e-7)

    def test_unknown_space(self):
        g = grid2d(64, 8.0)
        psi = gaussian_packet(g, [0.0, 0.0], 1.0)
        with pytest.raises(QuantumError):
            occupation_probabilities(psi, half_planes(g), space="energy")


class TestInsensitivity:
    def test_tube_l1_scaling_2d(self):
        base = GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=2)
        c = SegmentCurve([-2.0, 0.3], [2.0, -0.4])
        l1 = [tube_l1_difference(base, c, lam) for lam in (1e2, 1e3, 1e4)]
        slopes = np.diff(np.log(l1)) / np.diff(np.log([1e2, 1e3, 1e4]))
        assert np.allclose(slopes, -0.5, atol=0.02)

    def test_tube_l1_scaling_3d(self):
        base = GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=3)
        c = SegmentCurve([-2.0, 0.3, 0.0], [2.0, -0.4, 0.5])
        l1 = [tube_l1_difference(base, c, lam) for lam in (1e2, 1e3, 1e4)]
        slopes = np.diff(np.log(l1)) / np.diff(np.log([1e2, 1e3, 1e4]))
        assert np.allclose(slopes, -1.0, atol=0.02)

    def test_tube_l1_against_grid_quadrature(self):
        # brute-force midpoint quadrature of |U^lam - U| over an interior
        # stretch of the tube (the tube continues past the segment ends, so
        # the comparison window stays well inside)
        base = GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=2)
        c = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
        lam = 50.0
        sp = ScratchedPotential(base, [c], lam=lam)
        g = SpatialGrid(((-1.5, 1.5), (-1.0, 1.0)), (600, 400))
        du = np.abs(sp.sample(g) - base.sample(g).values)
        brute = float(du.sum() * g.cell_volume)
        inner = SegmentCurve([-1.5, 0.0], [1.5, 0.0])
        assert np.isclose(tube_l1_difference(base, inner, lam), brute, rtol=1e-2)

    def test_decay_table_and_monotonicity(self):
        g = grid2d(128, 8.0)
        base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
        system = QuantumSystem(1.0, g, base)
        psi0 = gaussian_packet(g, [-1.0, 0.0], 1.2, momentum=[1.0, 0.0])
        c = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
        schedule = CheckpointSchedule([0.0, 0.5])
        reference = propagate(system, psi0, schedule)[-1]
        scratched = [ScratchedPotential(base, [c], lam) for lam in (1e2, 1e3)]
        rows = scratch_insensitivity(system, scratched, psi0, schedule, reference)
        assert [row["lambda"] for row in rows] == [1e2, 1e3]
        assert rows[1]["l1_potential"] < rows[0]["l1_potential"]
        assert rows[1]["linf_fourier"] < rows[0]["linf_fourier"]
        assert rows[1]["l2_wavefunction"] < rows[0]["l2_wavefunction"]

    def test_one_propagation_per_scratched_potential(self, monkeypatch):
        # the plain run is the caller's; each scratched potential is sampled
        # and propagated once, as it is given
        g = grid2d(64, 8.0)
        base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
        system = QuantumSystem(1.0, g, base)
        psi0 = gaussian_packet(g, [-1.0, 0.0], 1.2, momentum=[1.0, 0.0])
        curve = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
        scratched = [ScratchedPotential(base, [curve], lam) for lam in (1e2, 1e3)]
        schedule = CheckpointSchedule([0.0, 0.3])
        reference = propagate(system, psi0, schedule, dt_max=1e-2)[-1]
        propagated, sampled = [], []

        def recording_propagate(lam_system, *args, **kwargs):
            propagated.append(lam_system.potential.values)
            return propagate(lam_system, *args, **kwargs)

        def recording_sample(sp, grid):
            sampled.append(sp)
            return sample(sp, grid)

        sample = ScratchedPotential.sample
        monkeypatch.setattr(quantum, "propagate", recording_propagate)
        monkeypatch.setattr(ScratchedPotential, "sample", recording_sample)
        rows = scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)
        assert sampled == scratched
        # the propagations run side by side, so they may start in any order
        assert len(propagated) == 2
        for sp in scratched:
            assert sum(np.array_equal(values, sample(sp, g)) for values in propagated) == 1
        lam_system = QuantumSystem(1.0, g, ScalarField(g, sample(scratched[0], g)))
        fin = propagate(lam_system, psi0, schedule, dt_max=1e-2)[-1]
        l2 = np.sqrt(np.sum(np.abs(fin.field.values - reference.field.values) ** 2) * g.cell_volume)
        assert rows[0]["l2_wavefunction"] == l2


def decay_setup(lambdas=(1e2, 1e3, 1e4)):
    g = grid2d(64, 8.0)
    base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
    system = QuantumSystem(1.0, g, base)
    psi0 = gaussian_packet(g, [-1.0, 0.0], 1.2, momentum=[1.0, 0.0])
    curve = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
    scratched = [ScratchedPotential(base, [curve], lam) for lam in lambdas]
    schedule = CheckpointSchedule([0.0, 0.3])
    reference = propagate(system, psi0, schedule, dt_max=1e-2)[-1]
    return system, scratched, psi0, schedule, reference


def reference_decay_rows(system, scratched, psi0, schedule, reference, dt_max):
    """The decay table with one propagation after another on this thread."""
    g = system.grid
    u_plain = system.potential_values()
    fourier_norm = g.cell_volume / (2.0 * np.pi * system.hbar) ** g.ndim
    rows = []
    for sp in scratched:
        u_lam = sp.sample(g)
        lam_system = QuantumSystem(system.mass, g, ScalarField(g, u_lam), system.hbar)
        fin = propagate(lam_system, psi0, schedule, dt_max=dt_max)[-1]
        diff = fin.field.values - reference.field.values
        rows.append(
            {
                "lambda": sp.lam,
                "l1_potential": sum(
                    tube_l1_difference(sp.base, p.curve, sp.lam) for p in sp.profiles
                ),
                "linf_fourier": float(
                    np.max(np.abs(np.fft.fftn(u_lam - u_plain))) * fourier_norm
                ),
                "l2_wavefunction": float(np.sqrt(np.sum(np.abs(diff) ** 2) * g.cell_volume)),
            }
        )
    return rows


class TestDecayExecutors:
    @pytest.mark.parametrize("executors", [1, 2, 3])
    def test_rows_match_one_propagation_at_a_time(self, executors, monkeypatch):
        system, scratched, psi0, schedule, reference = decay_setup()
        want = reference_decay_rows(system, scratched, psi0, schedule, reference, 1e-2)
        callers, kinetics = [], []

        def recording_propagate(*args, **kwargs):
            callers.append(threading.current_thread())
            kinetics.append(kwargs["_kinetic"])
            return propagate(*args, **kwargs)

        monkeypatch.setattr(quantum, "propagate", recording_propagate)
        monkeypatch.setattr(quantum, "_decay_executors", lambda count: executors)
        rows = scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)
        assert rows == want
        assert len(callers) == 3
        # one read-only kinetic factor for every propagation
        assert all(kin is kinetics[0] for kin in kinetics)
        assert [kin.flags.writeable for kin in kinetics[0].values()] == [False]
        if executors == 1:  # no thread starts
            assert set(callers) == {threading.current_thread()}

    def test_tube_samples_once_per_curve(self, monkeypatch):
        # two curves shared by three lambdas: two tube samplings, and every
        # column still goes through tube_l1_difference, bit for bit
        system, scratched, psi0, schedule, reference = decay_setup()
        curves = [scratched[0].profiles[0].curve, SegmentCurve([-4.0, 2.0], [3.0, 3.0])]
        scratched = [ScratchedPotential(sp.base, curves, sp.lam) for sp in scratched]
        want = reference_decay_rows(system, scratched, psi0, schedule, reference, 1e-2)
        sampled, columns = [], []

        class Counted(quantum.TubeSamples):
            def __init__(self, curve):
                sampled.append(curve)
                super().__init__(curve)

        monkeypatch.setattr(quantum, "TubeSamples", Counted)
        monkeypatch.setattr(
            quantum, "tube_l1_difference",
            lambda *a: columns.append(a[1]) or tube_l1_difference(*a),
        )
        rows = scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)
        assert rows == want
        assert sampled == curves and len(columns) == 6

    def test_a_propagation_starts_before_the_last_l1_column(self, monkeypatch):
        system, scratched, psi0, schedule, reference = decay_setup()
        want = reference_decay_rows(system, scratched, psi0, schedule, reference, 1e-2)
        started = threading.Event()
        waited = []

        def flagging_propagate(*args, **kwargs):
            started.set()
            return propagate(*args, **kwargs)

        def last_column_waits(base, curve, lam):
            # fails after the timeout, rather than hangs, if no propagation
            # starts until every column is done
            if lam == scratched[-1].lam:
                waited.append(started.wait(timeout=10.0))
            return tube_l1_difference(base, curve, lam)

        monkeypatch.setattr(quantum, "propagate", flagging_propagate)
        monkeypatch.setattr(quantum, "tube_l1_difference", last_column_waits)
        monkeypatch.setattr(quantum, "_decay_executors", lambda count: 2)
        rows = scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)
        assert waited == [True]
        assert rows == want

    def test_a_helpers_warning_reaches_the_caller(self, monkeypatch):
        system, scratched, psi0, schedule, reference = decay_setup()
        caller = threading.current_thread()

        def warn_in_helper(*args, **kwargs):
            if threading.current_thread() is not caller:
                warnings.warn("edge density in a helper", quantum.ConfinementWarning)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(quantum, "propagate", warn_in_helper)
        monkeypatch.setattr(quantum, "_decay_executors", lambda count: 2)
        with pytest.warns(quantum.ConfinementWarning, match="in a helper"):
            scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)

    def test_lowest_failure_raised_after_helpers_end(self, monkeypatch):
        # three executors, each with one lambda; lambdas 1 and 2 fail in helpers
        system, scratched, psi0, schedule, reference = decay_setup()
        samples = [sp.sample(system.grid) for sp in scratched]

        def fail_in_helpers(lam_system, *args, **kwargs):
            i = next(i for i, u in enumerate(samples) if np.array_equal(lam_system.potential.values, u))
            if i > 0:
                raise NumericalStabilityError(f"drift at lambda {i}")
            return propagate(lam_system, *args, **kwargs)

        monkeypatch.setattr(quantum, "propagate", fail_in_helpers)
        monkeypatch.setattr(quantum, "_decay_executors", lambda count: 3)
        threads = len(threading.enumerate())
        with pytest.raises(NumericalStabilityError, match="at lambda 1"):
            scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=1e-2)
        assert len(threading.enumerate()) == threads

    def test_many_executors_with_short_switches(self, monkeypatch):
        # more executors than cores, switching threads every microsecond.
        # Each scratched potential samples to the constant lambda, and the
        # stub propagation returns the constant lambda too, so a table of 50
        # rows takes milliseconds and each row's L2 column is lambda times
        # the root of the box's volume.
        monkeypatch.setattr(quantum, "_decay_executors", lambda count: 8)
        threads = threading.enumerate()
        g = grid2d(8, 8.0)
        base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
        system = QuantumSystem(1.0, g, base)
        curve = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
        lams = [float(k) for k in range(1, 51)]
        scratched = [ScratchedPotential(base, [curve], lam) for lam in lams]
        zero = Wavefunction(ComplexField(g, np.zeros(g.shape)), 0.0)
        schedule = CheckpointSchedule([0.0, 0.1])
        volume = g.cell_volume * np.prod(g.shape)
        # the lambda whose sample fails, and the first whose propagation fails
        fails = {"sample": np.inf, "propagate": np.inf}
        sampled, started = [], []

        def constant_sample(sp, grid):
            if sp.lam == fails["sample"]:
                raise ValueError(f"sample {sp.lam:g}")
            sampled.append(sp.lam)
            return np.full(grid.shape, sp.lam)

        def constant_propagate(lam_system, psi0, schedule, **kwargs):
            lam = float(lam_system.potential.values.flat[0])
            # a lambda is propagated only once it is sampled
            started.append((lam, lam in sampled))
            if lam >= fails["propagate"]:
                # so that several are in flight, and higher lambdas fail first
                time.sleep(1e-3 / lam)
                raise NumericalStabilityError(f"drift at {lam:g}")
            return [Wavefunction(ComplexField(g, np.full(g.shape, lam + 0j)), schedule.t_final)]

        monkeypatch.setattr(ScratchedPotential, "sample", constant_sample)
        monkeypatch.setattr(quantum, "propagate", constant_propagate)
        monkeypatch.setattr(quantum, "tube_l1_difference", lambda base, curve, lam: 1.0 / lam)

        def table(sample_fails=np.inf, propagate_fails=np.inf):
            fails.update(sample=sample_fails, propagate=propagate_fails)
            sampled.clear()
            started.clear()
            try:
                return scratch_insensitivity(system, scratched, zero, schedule, zero)
            finally:
                assert threading.enumerate() == threads

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                rows = table()
                assert [row["lambda"] for row in rows] == lams
                assert [row["l1_potential"] for row in rows] == [1.0 / lam for lam in lams]
                assert [row["l2_wavefunction"] for row in rows] == pytest.approx(
                    [lam * np.sqrt(volume) for lam in lams], rel=1e-12
                )
                assert sampled == lams
                assert sorted(started) == [(lam, True) for lam in lams]

                # the lowest lambda that started and failed is raised
                with pytest.raises(NumericalStabilityError) as info:
                    table(propagate_fails=4.0)
                failing = [lam for lam, _ in started if lam >= 4.0]
                assert str(info.value) == f"drift at {min(failing):g}"
                # after the first failure, each executor starts at most one
                # propagation, the one it took before it could see the failure
                assert len(failing) <= 8
                assert all(ok for _, ok in started)

                # a sampling failure samples no later lambda
                with pytest.raises(ValueError, match="sample 31"):
                    table(sample_fails=31.0)
                assert sampled == lams[:30]
                assert all(lam < 31.0 and ok for lam, ok in started)
        finally:
            sys.setswitchinterval(interval)

    def test_one_executor_per_lambda_up_to_two_per_cpu(self, monkeypatch):
        monkeypatch.setattr(quantum.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert [quantum._decay_executors(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 4]
        # one CPU: taking turns gains nothing
        monkeypatch.setattr(quantum.os, "sched_getaffinity", lambda pid: {3})
        assert [quantum._decay_executors(n) for n in (1, 3)] == [1, 1]

    def test_fifty_lambdas_on_two_cpus_run_four_at_a_time(self, monkeypatch):
        # the executor rule itself, not a stub of it: 50 stubbed lambdas on
        # two CPUs have three helper threads and the caller, never more
        monkeypatch.setattr(quantum.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = threading.enumerate()
        g = grid2d(8, 8.0)
        base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
        system = QuantumSystem(1.0, g, base)
        curve = SegmentCurve([-4.0, -2.0], [4.0, -2.0])
        lams = [float(k) for k in range(1, 51)]
        scratched = [ScratchedPotential(base, [curve], lam) for lam in lams]
        zero = Wavefunction(ComplexField(g, np.zeros(g.shape)), 0.0)
        lock = threading.Lock()
        running, most, helpers = [0], [0], []

        def constant_propagate(lam_system, psi0, schedule, **kwargs):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                helpers.append(sum(t.name.startswith("decay") for t in threading.enumerate()))
            time.sleep(1e-3)  # so that propagations overlap
            with lock:
                running[0] -= 1
            values = np.full(g.shape, lam_system.potential.values.flat[0] + 0j)
            return [Wavefunction(ComplexField(g, values), schedule.t_final)]

        monkeypatch.setattr(ScratchedPotential, "sample", lambda sp, grid: np.full(grid.shape, sp.lam))
        monkeypatch.setattr(quantum, "propagate", constant_propagate)
        monkeypatch.setattr(quantum, "tube_l1_difference", lambda base, curve, lam: 1.0 / lam)
        rows = scratch_insensitivity(system, scratched, zero, CheckpointSchedule([0.0, 0.1]), zero)
        assert threading.enumerate() == threads
        assert [row["lambda"] for row in rows] == lams
        assert len(helpers) == 50
        assert 1 <= max(helpers) <= 3
        assert 1 <= most[0] <= 4


def _transverse_frame(tangent):
    """Per-sample frame rule: Gram-Schmidt on the unit vectors' residuals."""
    t = tangent / np.linalg.norm(tangent)
    D = t.size
    basis = []
    for e in np.eye(D):
        v = e - (e @ t) * t
        for b in basis:
            v = v - (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == D - 1:
            break
    return basis


def reference_tube_l1(base, curve, lam, num_s=400, num_h=quantum._HERMITE_NODES):
    """tube_l1_difference with one frame and one base.value call per sample."""
    s, pts = curve.sample(num_s)
    dc = curve.deriv(s)
    speed = np.linalg.norm(dc, axis=1)
    x, w = hermgauss(num_h)
    vals = np.zeros(num_s)
    if curve.ndim == 2:
        for i in range(num_s):
            n1 = _transverse_frame(dc[i])[0]
            q = pts[i] + np.outer(x / np.sqrt(lam), n1)
            vals[i] = np.sum(w * np.abs(base.value(q))) / np.sqrt(lam)
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w).ravel()
        for i in range(num_s):
            n1, n2 = _transverse_frame(dc[i])
            q = (
                pts[i]
                + np.outer(xx.ravel() / np.sqrt(lam), n1)
                + np.outer(yy.ravel() / np.sqrt(lam), n2)
            )
            vals[i] = np.sum(ww * np.abs(base.value(q))) / lam
    return float(np.trapezoid(vals * speed, s))


_TUBE_CURVES = [
    SegmentCurve([-2.0, 0.3], [2.0, -0.4]),
    # tangents along an axis: that unit vector's residual is cut
    SegmentCurve([-2.0, 0.5], [2.0, 0.5]),
    SegmentCurve([0.5, -2.0], [0.5, 2.0]),
    SegmentCurve([-2.0, 0.3, 0.0], [2.0, -0.4, 0.5]),
    SegmentCurve([-2.0, 0.3, 0.1], [2.0, 0.3, 0.1]),
    SegmentCurve([0.3, -2.0, 0.1], [0.3, 2.0, 0.1]),
    SplineCurve(
        [0.0, 0.4, 1.0],
        [[-2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [2.0, 0.0, -0.5]],
        [[4.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, -2.0, 0.0]],
    ),
]


class TestVectorizedTube:
    @pytest.mark.parametrize("curve", _TUBE_CURVES, ids=lambda c: f"{c.kind}{c.ndim}d")
    def test_matches_per_sample_loop(self, curve, monkeypatch):
        # 101 samples along the curve: the last 3D block is a partial one
        monkeypatch.setattr(quantum, "_TUBE_SAMPLES", 101)
        base = GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=curve.ndim)
        for lam in (1e2, 1e4):
            got = tube_l1_difference(base, curve, lam)
            want = reference_tube_l1(base, curve, lam, num_s=101)
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("curve", _TUBE_CURVES, ids=lambda c: f"{c.kind}{c.ndim}d")
    def test_frames_match_per_sample_rule(self, curve):
        s = np.linspace(0.0, 1.0, 41)
        dc = curve.deriv(s)
        frames = _transverse_frames(dc)
        for i in range(s.size):
            ref = np.array(_transverse_frame(dc[i]))
            assert np.allclose(frames[i], ref, rtol=0.0, atol=1e-15)


def random_tube_curves(rng, ndim):
    """Three segments and three splines of 2 to 4 waypoints in a 10-wide box."""
    curves = [SegmentCurve(*rng.uniform(-5.0, 5.0, (2, ndim))) for _ in range(3)]
    for K in (2, 3, 4):
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, K - 2)), [1.0]])
        waypoints = rng.uniform(-4.0, 4.0, (K, ndim))
        curves.append(SplineCurve(knots, waypoints, rng.normal(0.0, 4.0, (K, ndim))))
    return curves


class TestTubeNodes:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_nodes_agree_with_24_nodes(self, ndim, monkeypatch):
        # the transverse Gauss-Hermite order is converged: 24 nodes per axis
        # give the same column to 1e-14, at the smallest lambda too, where
        # the Gaussian is widest against the scale of U
        assert quantum._HERMITE_NODES < 24
        rng = np.random.default_rng(70 + ndim)
        bases = [
            GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=ndim),
            GaussianWellPotential(1.0, 4.0, offset=3.5, ndim=ndim),
            GaussianWellPotential(0.8, 1.0, rng.uniform(-1.0, 1.0, ndim), offset=1.0, ndim=ndim),
        ]
        tubes = [quantum.TubeSamples(c) for c in random_tube_curves(rng, ndim)]
        for lam in (10.0, 1e2, 1e4):
            for base in bases:
                for tube in tubes:
                    got = tube_l1_difference(base, tube, lam)
                    with monkeypatch.context() as m:
                        m.setattr(quantum, "_HERMITE_NODES", 24)
                        want = tube_l1_difference(base, tube, lam)
                    assert abs(got - want) <= 1e-14 * abs(want)
