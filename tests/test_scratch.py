"""Scratched potentials: on-curve structure, gradients, timing inversion."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from scratchsim.geometry import SegmentCurve, SplineCurve, catmull_rom_tangents
from scratchsim.grid import SpatialGrid
from scratchsim.potentials import GaussianWellPotential, HarmonicPotential
from scratchsim.scratch import (
    _SAMPLE_PAIRS,
    InfeasibleTimingError,
    ScratchError,
    ScratchedPotential,
    TangentialPotential,
    TimingConditions,
    construct_tangential_potential,
    integrate_lagrange,
    monotone_timing,
)


def spline3d():
    wp = np.array([[-2.0, -1.0, 0.0], [0.0, 0.5, 0.5], [2.0, -0.5, 1.0]])
    chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    knots = np.concatenate([[0.0], np.cumsum(chords) / chords.sum()])
    return SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))


class TestConstruction:
    def test_lambda_positive(self):
        base = HarmonicPotential(1.0)
        with pytest.raises(ScratchError):
            ScratchedPotential(base, [], lam=-1.0)

    def test_tangential_slot_count(self):
        base = HarmonicPotential(1.0)
        c = SegmentCurve([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ScratchError):
            ScratchedPotential(base, [c], lam=100.0, tangential=[None, None])


class TestPlainForm:
    def test_on_curve_value_and_gradient_vanish(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=3)
        c = spline3d()
        sp = ScratchedPotential(base, [c], lam=500.0)
        s = np.linspace(0.0, 1.0, 300)
        vals, grads = sp.eval(c(s))
        assert np.max(np.abs(vals)) == 0.0
        assert np.max(np.linalg.norm(grads, axis=1)) == 0.0

    def test_flush_outside_tube(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=2)
        c = SegmentCurve([-1.0, 0.0], [1.0, 0.0])
        lam = 1.0e3
        sp = ScratchedPotential(base, [c], lam=lam)
        r = sp.tube_radius
        pts = np.array([[0.0, 2.0 * r], [0.5, -3.0 * r], [5.0, 5.0]])
        vals, grads = sp.eval(pts)
        v0, g0 = base.value_and_grad(pts)
        assert np.array_equal(vals, v0)
        assert np.array_equal(grads, g0)

    def test_gradient_against_finite_differences(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=3)
        c = spline3d()
        sp = ScratchedPotential(base, [c], lam=200.0)
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 0.9, 10)
        pts = c(s) + rng.normal(scale=0.05, size=(10, 3))
        _, grads = sp.eval(pts)
        h = 1e-6
        for d in range(3):
            dq = np.zeros(3)
            dq[d] = h
            fd = (sp.value(pts + dq) - sp.value(pts - dq)) / (2.0 * h)
            assert np.allclose(grads[:, d], fd, rtol=1e-5, atol=1e-7)

    def test_restoring_force_points_back(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=3)
        c = spline3d()
        lam = 1.0e3
        sp = ScratchedPotential(base, [c], lam=lam)
        rng = np.random.default_rng(1)
        ok = 0
        trials = 200
        for _ in range(trials):
            s = rng.uniform(0.05, 0.95)
            tangent = c.deriv(np.array([s]))[0]
            delta = rng.normal(size=3)
            delta -= (delta @ tangent) / (tangent @ tangent) * tangent
            delta *= 0.2 / (np.sqrt(lam) * np.linalg.norm(delta))
            q = c(np.array([s]))[0] + delta
            _, grad = sp.eval(q[None, :])
            if grad[0] @ delta > 0:
                ok += 1
        assert ok == trials

    def test_hessian_spectrum_and_doubling(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=2.0, ndim=3)
        c = spline3d()
        lam = 1.0e3
        sp1 = ScratchedPotential(base, [c], lam=lam)
        sp2 = ScratchedPotential(base, [c], lam=2.0 * lam)
        for s in (0.25, 0.5, 0.75):
            ev1, cos1 = sp1.hessian_on_scratch(0, s)
            ev2, _ = sp2.hessian_on_scratch(0, s)
            u = float(base.value(c(np.array([s])))[0])
            assert abs(ev1[0]) <= 1e-6 * ev1[-1]
            assert np.allclose(ev1[1:], 2.0 * lam * u, rtol=0.02)
            assert np.allclose(ev2[1:], 2.0 * ev1[1:], rtol=0.02)
            assert cos1 >= 0.999

    def test_hessian_fd_value_oracle(self):
        # independent check: second differences of the potential values
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=2.0, ndim=2)
        c = SegmentCurve([-1.0, -0.5], [1.0, 0.5])
        lam = 2.0e3
        sp = ScratchedPotential(base, [c], lam=lam)
        q = c(np.array([0.5]))[0]
        h = 0.01 / np.sqrt(lam)
        H = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h
                H[i, j] = (
                    sp.value((q + ei + ej)[None, :])[0]
                    - sp.value((q + ei - ej)[None, :])[0]
                    - sp.value((q - ei + ej)[None, :])[0]
                    + sp.value((q - ei - ej)[None, :])[0]
                ) / (4.0 * h * h)
        evals_fd = np.sort(np.linalg.eigvalsh(H))
        evals, _ = sp.hessian_on_scratch(0, 0.5)
        assert np.allclose(evals_fd, evals, rtol=1e-3, atol=1e-4)

    def test_tube_interference_detected(self):
        base = HarmonicPotential(1.0, offset=1.0)
        c1 = SegmentCurve([-1.0, 0.0], [1.0, 0.0])
        c2 = SegmentCurve([-1.0, 0.05], [1.0, 0.05])
        sp = ScratchedPotential(base, [c1, c2], lam=100.0)
        with pytest.raises(ScratchError):
            sp.hessian_on_scratch(0, 0.5)


class TestModifiedForm:
    def test_on_curve_value_equals_v(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=3)
        c = spline3d()
        times = np.array([0.0, 1.0, 2.0])
        cond = TimingConditions(times, c.checkpoint_params, np.full(3, 0.5))
        v = construct_tangential_potential(c, cond, mass=1.0)
        sp = ScratchedPotential(base, [c], lam=800.0, tangential=[v])
        s = np.linspace(0.0, 1.0, 100)
        vals, grads = sp.eval(c(s))
        assert np.allclose(vals, v(s), atol=1e-12)
        # on-curve force is purely tangential: -V'(s) * q' / |q'|^2
        dq = c.deriv(s)
        drive = -v.deriv(s)[:, None] * dq / np.einsum("ij,ij->i", dq, dq)[:, None]
        assert np.allclose(grads, -drive, atol=1e-10)


def reference_eval(sp, points, own_f=None):
    """The evaluation that loops over the scratches twice: per scratch one
    projection, one geometry evaluation at the inside points, then per
    scratch the product-rule and tangential terms."""
    points = np.atleast_2d(points)
    M, D = points.shape
    N = sp.num_scratches
    u, grad_u = sp.base.value_and_grad(points)
    R2 = sp.tube_radius**2
    exps = np.zeros((N, M))
    grad_fs = np.zeros((N, M, D))
    v_vals = np.zeros((N, M))
    v_grads = np.zeros((N, M, D))
    for l, prof in enumerate(sp.profiles):
        s, f = prof.curve.project(points, s_lo=-prof.extension, s_hi=1.0 + prof.extension)
        f = np.where(f < prof.snap_f, 0.0, f)
        if own_f is not None:
            own_f[l] = f[l]
        inside = f <= R2
        if not np.any(inside):
            continue
        exps[l] = np.where(inside, np.exp(-sp.lam * f), 0.0)
        c, dc, d2c = prof.curve.jet(s[inside])
        r = points[inside] - c
        denom = np.einsum("ij,ij->i", dc, dc) - np.einsum("ij,ij->i", r, d2c)
        denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
        grad_fs[l, inside] = 2.0 * r
        vl = sp.tangential[l]
        if vl is not None:
            v_vals[l, inside] = vl(s[inside])
            v_grads[l, inside] = vl.deriv(s[inside])[:, None] * dc / denom[:, None]
    one_minus = 1.0 - exps
    prod_all = np.prod(one_minus, axis=0)
    value = u * prod_all
    grad = grad_u * prod_all[:, None]
    for l in range(N):
        with np.errstate(divide="ignore", invalid="ignore"):
            prod_others = np.where(one_minus[l] > 1e-300, prod_all / one_minus[l], 0.0)
        if not np.any(exps[l] > 0.0):
            continue
        grad += (u * sp.lam * exps[l] * prod_others)[:, None] * grad_fs[l]
        if sp.tangential[l] is not None:
            value += v_vals[l] * exps[l]
            grad += exps[l][:, None] * v_grads[l]
            grad -= (sp.lam * v_vals[l] * exps[l])[:, None] * grad_fs[l]
    return value, grad


def driven_splines(num, rng, lam=200.0):
    """`num` random 3-D splines, each with a tangential potential."""
    base = GaussianWellPotential(depth=0.5, width=3.0, offset=1.5, ndim=3)
    curves, tangential = [], []
    for _ in range(num):
        wp = rng.uniform(-3.0, 3.0, (3, 3))
        chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        knots = np.concatenate([[0.0], np.cumsum(chords) / chords.sum()])
        c = SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))
        cond = TimingConditions([0.0, 1.0, 2.0], knots, np.full(3, 0.3))
        curves.append(c)
        tangential.append(construct_tangential_potential(c, cond, 1.0, num_samples=2001))
    return ScratchedPotential(base, curves, lam=lam, tangential=tangential)


def assert_matches_reference(sp, points, rtol=1e-13):
    """value, grad and own_f (one point per scratch) against the two-loop
    evaluation, to rtol of each array's largest magnitude."""
    own = np.zeros(sp.num_scratches)
    own_ref = np.zeros(sp.num_scratches)
    value, grad = sp.eval(points, own_f=own if len(points) == sp.num_scratches else None)
    ref_value, ref_grad = reference_eval(
        sp, points, own_f=own_ref if len(points) == sp.num_scratches else None
    )
    for got, want in ((value, ref_value), (grad, ref_grad), (own, own_ref)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rtol * max(np.max(np.abs(want)), 1e-300)
    return value, grad


class TestAllScratchEval:
    def test_random_segments_2d(self):
        rng = np.random.default_rng(21)
        base = GaussianWellPotential(depth=0.4, width=3.0, offset=0.6, ndim=2)
        curves = [SegmentCurve(*rng.uniform(-6.0, 6.0, (2, 2))) for _ in range(25)]
        sp = ScratchedPotential(base, curves, lam=1e2)
        # one point near each segment (the integrator's case), then a cloud
        s = rng.uniform(-0.1, 1.1, 25)
        near = np.array([c(np.array([t]))[0] for c, t in zip(curves, s)])
        near += rng.normal(scale=0.5 * sp.tube_radius, size=near.shape)
        value, _ = assert_matches_reference(sp, near)
        cloud = rng.uniform(-7.0, 7.0, (4000, 2))
        assert_matches_reference(sp, cloud)
        # the cloud exercises points inside one and inside several tubes
        inside = sum(
            c.project(cloud, -p.extension, 1.0 + p.extension)[1] <= sp.tube_radius**2
            for c, p in zip(curves, sp.profiles)
        )
        assert np.any(inside == 1) and np.any(inside >= 2)

    def test_driven_splines_3d(self):
        rng = np.random.default_rng(22)
        sp = driven_splines(4, rng)
        s = rng.uniform(0.0, 1.0, 4)
        near = np.array([p.curve(np.array([t]))[0] for p, t in zip(sp.profiles, s)])
        near += rng.normal(scale=0.3 * sp.tube_radius, size=near.shape)
        assert_matches_reference(sp, near)
        assert_matches_reference(sp, rng.uniform(-3.5, 3.5, (3000, 3)))

    def test_point_in_two_overlapping_tubes(self):
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=2)
        curves = [SegmentCurve([-1.0, -1.0], [1.0, 1.0]), SegmentCurve([-1.0, 1.0], [1.0, -1.0])]
        times = [0.0, 1.0]
        tangential = [
            construct_tangential_potential(c, TimingConditions(times, [0.0, 1.0], [0.8, 1.1]), 1.0)
            for c in curves
        ]
        for tang in ([None, None], tangential):
            sp = ScratchedPotential(base, curves, lam=1e3, tangential=tang)
            r = sp.tube_radius
            pts = np.array([[0.1 * r, 0.05 * r], [0.0, 0.3 * r], [-0.2 * r, 0.1 * r]])
            for prof in sp.profiles:
                assert np.all(prof.curve.project(pts)[1] <= r**2)
            assert_matches_reference(sp, pts)

    def test_points_on_a_curve(self):
        rng = np.random.default_rng(23)
        sp = driven_splines(3, rng, lam=800.0)
        s = np.linspace(0.0, 1.0, 101)
        for prof in sp.profiles:
            assert_matches_reference(sp, prof.curve(s))
        base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.0, ndim=2)
        line = SegmentCurve([-1.0, -0.5], [1.0, 0.5])
        plain = ScratchedPotential(base, [line], lam=800.0)
        value, grad = assert_matches_reference(plain, line(s))
        assert np.max(np.abs(value)) == 0.0 and np.max(np.abs(grad)) == 0.0

    def test_outside_every_tube_is_the_base(self):
        rng = np.random.default_rng(24)
        sp = driven_splines(3, rng, lam=1e4)
        pts = rng.uniform(-3.5, 3.5, (3000, 3))
        far = np.ones(len(pts), dtype=bool)
        for prof in sp.profiles:
            far &= prof.curve.project(pts, -prof.extension, 1.0 + prof.extension)[1] > sp.tube_radius**2
        pts = pts[far][:500]
        assert len(pts) == 500
        value, grad = sp.eval(pts)
        ref_value, ref_grad = reference_eval(sp, pts)
        u, grad_u = sp.base.value_and_grad(pts)
        assert np.array_equal(value, u) and np.array_equal(grad, grad_u)
        assert np.array_equal(ref_value, u) and np.array_equal(ref_grad, grad_u)


class TestSampleBlocks:
    def blocks_and_values(self, sp, grid):
        sizes = []
        inner = sp.value

        def value(points):
            sizes.append(len(points))
            return inner(points)

        sp.value = value
        out = sp.sample(grid)
        del sp.value
        return sizes, out

    def test_line_grid_larger_than_a_block(self):
        rng = np.random.default_rng(25)
        base = GaussianWellPotential(depth=0.4, width=3.0, offset=0.6, ndim=2)
        curves = [SegmentCurve(*rng.uniform(-6.0, 6.0, (2, 2))) for _ in range(7)]
        sp = ScratchedPotential(base, curves, lam=50.0)
        g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (96, 97))
        sizes, out = self.blocks_and_values(sp, g)
        assert len(sizes) > 1 and sum(sizes) == 96 * 97
        assert max(sizes) <= _SAMPLE_PAIRS // 7 and min(sizes) >= 2
        assert np.array_equal(out, sp.value(g.points()).reshape(g.shape))
        assert np.array_equal(out, sp.eval(g.points())[0].reshape(g.shape))

    def test_driven_spline_grid_larger_than_a_block(self):
        sp = driven_splines(1, np.random.default_rng(26), lam=10.0)
        g = SpatialGrid(((-4.0, 4.0),) * 3, (24, 24, 24))
        sizes, out = self.blocks_and_values(sp, g)
        assert len(sizes) > 1 and max(sizes) <= _SAMPLE_PAIRS
        assert np.array_equal(out, sp.value(g.points()).reshape(g.shape))
        assert np.array_equal(out, sp.eval(g.points())[0].reshape(g.shape))

    def test_value_is_the_value_of_eval(self):
        # lines, a driven line and driven splines, with points in and out of
        # the tubes: `value` skips the gradient and changes no bit
        rng = np.random.default_rng(27)
        splines = driven_splines(2, rng, lam=30.0)
        lines = [SegmentCurve(*rng.uniform(-3.0, 3.0, (2, 3))) for _ in range(3)]
        cond = TimingConditions([0.0, 2.0], [0.0, 1.0], [0.4, 0.6])
        drive = construct_tangential_potential(lines[0], cond, 1.0, num_samples=2001)
        sp = ScratchedPotential(
            splines.base,
            [p.curve for p in splines.profiles] + lines,
            lam=30.0,
            tangential=splines.tangential + [drive, None, None],
        )
        s = rng.uniform(0.0, 1.0, 200)
        on_curves = np.concatenate([p.curve(s) for p in sp.profiles])
        pts = np.concatenate([on_curves + rng.normal(0.0, 0.2, on_curves.shape),
                              rng.uniform(-4.0, 4.0, (500, 3))])
        assert np.array_equal(sp.value(pts), sp.eval(pts)[0])
        no_scratches = ScratchedPotential(sp.base, [], lam=30.0)
        assert np.array_equal(no_scratches.value(pts), sp.base.value(pts))


def unculled(sp):
    """`sp` with every spline pair projected: its boxes hold every point."""
    L = len(sp._family.s_lo)
    sp._family.near = lambda points: np.ones((L, len(points)), dtype=bool)
    return sp


class TestCulling:
    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_sample_and_eval_are_those_of_every_pair(self, lam):
        rng = np.random.default_rng(51)
        sp = driven_splines(5, rng, lam=lam)
        full = unculled(driven_splines(5, np.random.default_rng(51), lam=lam))
        g = SpatialGrid(((-4.0, 4.0),) * 3, (20, 21, 22))
        near = sp._family.near(g.points())
        assert 0 < near.mean() < 1
        assert np.array_equal(sp.sample(g), full.sample(g))
        pts = rng.uniform(-4.0, 4.0, (400, 3))
        for got, want in zip(sp.eval(pts), full.eval(pts)):
            assert np.array_equal(got, want)
        # one point per scratch: the own pairs are projected even out of the box
        far = np.full((5, 3), 40.0)
        own, own_full = np.zeros(5), np.zeros(5)
        sp.eval(far, own_f=own)
        full.eval(far, own_f=own_full)
        assert np.array_equal(own, own_full) and np.all(own > 30.0**2)


class TestWarmStart:
    def test_warm_eval_matches_the_reference(self):
        rng = np.random.default_rng(52)
        sp = driven_splines(4, rng)
        s = rng.uniform(0.0, 1.0, 4)
        near = np.array([p.curve(np.array([t]))[0] for p, t in zip(sp.profiles, s)])
        near += rng.normal(scale=0.3 * sp.tube_radius, size=near.shape)
        s_warm = np.full((4, 4), np.nan)
        sp.eval(near, s_warm=s_warm)
        moved = near + rng.normal(scale=0.01, size=near.shape)
        start = s_warm + rng.normal(scale=1e-3, size=s_warm.shape)
        start[0, 1] = np.nan
        own, own_ref = np.zeros(4), np.zeros(4)
        value, grad = sp.eval(moved, own_f=own, s_warm=start)
        ref_value, ref_grad = reference_eval(sp, moved, own_f=own_ref)
        for got, want in ((value, ref_value), (grad, ref_grad), (own, own_ref)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
        # the array receives the parameters found; nan off the boxes
        cold = np.full((4, 4), np.nan)
        sp.eval(moved, s_warm=cold)
        assert np.array_equal(np.isnan(start), np.isnan(cold))
        assert np.allclose(start, cold, rtol=0.0, atol=1e-12, equal_nan=True)


class TestTangentialPotential:
    def test_values_are_scipys(self):
        rng = np.random.default_rng(53)
        for n, first, last in ((5, 0.0, 1.0), (50, 1e-17, 1.0 - 1e-16), (2001, 0.0, 1.0)):
            s = np.sort(rng.uniform(0.0, 1.0, n))
            s[0], s[-1] = first, last
            v = TangentialPotential(s, rng.normal(size=n))
            pp = CubicSpline(s, v.v_samples)
            dpp = pp.derivative()
            slopes = dpp([0.0, 1.0])
            x = np.concatenate(
                [rng.uniform(-0.5, 1.5, 100_000), s, np.nextafter(s, -1.0), np.nextafter(s, 2.0)]
            )
            inner = np.clip(x, 0.0, 1.0)
            want = pp(inner) + np.minimum(x, 0.0) * slopes[0] + np.maximum(x - 1.0, 0.0) * slopes[1]
            got, dgot = v.jet(x)
            assert np.array_equal(got, want) and np.array_equal(v(x), want)
            assert np.array_equal(dgot, dpp(inner)) and np.array_equal(v.deriv(x), dgot)
            assert v.deriv(0.37) == dpp(0.37)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 2001])
    def test_coefficients_are_scipys(self, n):
        rng = np.random.default_rng(n)
        s = np.sort(rng.uniform(0.0, 1.0, n))
        s[0], s[-1] = 0.0, 1.0
        v = TangentialPotential(s, rng.normal(size=n))
        assert_coefficients_are_scipys(v)

    def test_constructed_coefficients_are_scipys(self):
        cond = TimingConditions([0.0, 1.5, 4.0], [0.0, 0.45, 1.0], [0.3, 0.35, 0.3])
        v = construct_tangential_potential(spline3d(), cond, mass=1.0)
        assert v.s_samples.size == 60001
        assert_coefficients_are_scipys(v)

    def test_rejects_samples_scipy_rejects(self):
        for s, v in (
            ([0.0, 0.5, 0.5, 1.0], [0.0] * 4),
            ([0.0, np.inf], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, np.nan]),
            ([0.0], [0.0]),
        ):
            with pytest.raises(ScratchError):
                TangentialPotential(s, v)


def assert_coefficients_are_scipys(v):
    """The cubic's coefficients and its derivative's, per piece, as scipy's
    not-a-knot `CubicSpline` through the samples gives them."""
    pp = CubicSpline(v.s_samples, v.v_samples)
    coef = v._spline._coef
    assert np.array_equal(coef[:4], pp.c)
    assert np.array_equal(coef[4:], pp.derivative().c)


class TestTiming:
    def test_monotone_box_violation(self):
        cond = TimingConditions([0.0, 1.0], [0.0, 1.0], [5.0, 1.0])
        with pytest.raises(InfeasibleTimingError):
            monotone_timing(cond)

    def test_interpolant_hits_targets(self):
        cond = TimingConditions([0.0, 1.0, 3.0], [0.0, 0.4, 1.0], [0.3, 0.35, 0.25])
        timing = monotone_timing(cond)
        assert np.allclose(timing(cond.times), cond.params, atol=1e-14)
        assert np.allclose(timing.deriv(cond.times), cond.speeds, atol=1e-14)
        t = np.linspace(0.0, 3.0, 500)
        assert np.all(np.diff(timing(t)) > 0)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_values_are_scipys(self, K):
        rng = np.random.default_rng(K)
        times = np.cumsum(rng.uniform(0.5, 2.0, K))
        params = np.linspace(0.0, 1.0, K)
        secants = np.diff(params) / np.diff(times)
        speeds = [rng.uniform(0.3, 2.5) * secants[max(j - 1, 0) : j + 1].min() for j in range(K)]
        timing = monotone_timing(TimingConditions(times, params, speeds))
        pp = CubicHermiteSpline(times, params, speeds)
        t = np.concatenate([np.linspace(times[0], times[-1], 10_001), times, [times[0] - 1.0]])
        value, deriv = timing.jet(t)
        assert np.array_equal(value, pp(t)) and np.array_equal(timing(t), value)
        assert np.array_equal(deriv, pp.derivative()(t)) and np.array_equal(timing.deriv(t), deriv)

    def test_validation(self):
        with pytest.raises(ScratchError):
            TimingConditions([0.0, 0.0], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ScratchError):
            TimingConditions([0.0, 1.0], [0.0, 1.0], [1.0, -1.0])


class TestInverseProblem:
    def test_uniform_motion_gives_constant_v(self):
        c = SegmentCurve([0.0, 0.0], [1.0, 0.0])
        cond = TimingConditions([0.0, 2.0], [0.0, 1.0], [0.5, 0.5])
        v = construct_tangential_potential(c, cond, mass=1.0)
        s = np.linspace(0.0, 1.0, 50)
        assert np.max(np.abs(v(s))) < 1e-12

    def test_round_trip_straight_line(self):
        c = SegmentCurve([0.0, 0.0], [2.0, 1.0])
        cond = TimingConditions([0.0, 3.0], [0.0, 1.0], [0.2, 0.45])
        v = construct_tangential_potential(c, cond, mass=1.3)
        s, sdot = integrate_lagrange(c, v, cond, mass=1.3)
        assert np.max(np.abs(s - cond.params)) < 1e-4
        assert np.max(np.abs(sdot - cond.speeds) / cond.speeds) < 1e-3

    def test_round_trip_spline_three_checkpoints(self):
        c = spline3d()
        cond = TimingConditions(
            [0.0, 1.5, 4.0], c.checkpoint_params, [0.3, 0.35, 0.3]
        )
        v = construct_tangential_potential(c, cond, mass=1.0)
        s, sdot = integrate_lagrange(c, v, cond, mass=1.0)
        assert np.max(np.abs(s - cond.params)) < 1e-4
        assert np.max(np.abs(sdot - cond.speeds) / cond.speeds) < 1e-3

    def test_random_round_trips(self):
        rng = np.random.default_rng(6)
        c = spline3d()
        for _ in range(20):
            K = int(rng.integers(2, 5))
            times = np.cumsum(rng.uniform(0.8, 2.0, K))
            params = np.linspace(0.0, 1.0, K)
            secants = np.diff(params) / np.diff(times)
            speeds = np.array(
                [
                    rng.uniform(0.3, 1.4) * secants[max(j - 1, 0) : j + 1].min()
                    for j in range(K)
                ]
            )
            cond = TimingConditions(times, params, speeds)
            v = construct_tangential_potential(c, cond, mass=1.0)
            s, sdot = integrate_lagrange(c, v, cond, mass=1.0)
            assert np.max(np.abs(s - params)) < 1e-3
            assert np.max(np.abs(sdot - speeds) / speeds) < 1e-2
