"""Spectral propagation, occupation statistics, and scratch insensitivity."""

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

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
    density_std,
    gaussian_packet,
    occupation_probabilities,
    propagate,
    scratch_insensitivity,
    tube_l1_difference,
)
from scratchsim.scratch import ScratchedPotential


def grid2d(n=128, half=10.0):
    return SpatialGrid(((-half, half), (-half, half)), (n, n))


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


class TestPropagation:
    def test_norm_preserved(self):
        g = grid2d()
        system = QuantumSystem(1.0, g, HarmonicPotential(1.0))
        psi0 = gaussian_packet(g, [0.5, 0.0], 1.0)
        snaps = propagate(system, psi0, CheckpointSchedule([0.0, 0.5, 1.0]))
        for s in snaps:
            assert abs(s.norm_sq() - 1.0) < 1e-12

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


class TestMergedKicks:
    @pytest.mark.parametrize(
        "grid, center, momentum",
        [
            (SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (64, 64)), [1.0, -0.5], [0.5, 0.2]),
            (SpatialGrid(((-8.0, 8.0),) * 3, (16, 16, 16)), [1.0, -0.5, 0.3], [0.5, 0.2, -0.1]),
        ],
    )
    def test_matches_two_half_kicks_per_step(self, grid, center, momentum):
        # unequal intervals: 17 and 34 steps of different lengths
        system = QuantumSystem(1.0, grid, GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=grid.ndim))
        psi0 = gaussian_packet(grid, center, 1.0, momentum=momentum)
        times = [0.0, 0.337, 1.001]
        got = propagate(system, psi0, CheckpointSchedule(times), dt_max=2e-2)
        ref = reference_propagate(system, psi0, times, dt_max=2e-2)
        for snap, want in zip(got, ref):
            assert np.max(np.abs(snap.field.values - want)) < 1e-12
        assert np.array_equal(psi0.field.values, got[0].field.values)


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
        assert len(propagated) == 2
        for values, sp in zip(propagated, scratched):
            assert np.array_equal(values, sample(sp, g))
        lam_system = QuantumSystem(1.0, g, ScalarField(g, sample(scratched[0], g)))
        fin = propagate(lam_system, psi0, schedule, dt_max=1e-2)[-1]
        l2 = np.sqrt(np.sum(np.abs(fin.field.values - reference.field.values) ** 2) * g.cell_volume)
        assert rows[0]["l2_wavefunction"] == l2


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


def reference_tube_l1(base, curve, lam, num_s=400, num_h=24):
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
    def test_matches_per_sample_loop(self, curve):
        base = GaussianWellPotential(0.5, 2.0, offset=1.0, ndim=curve.ndim)
        for lam in (1e2, 1e4):
            got = tube_l1_difference(base, curve, lam, num_s=101)
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
