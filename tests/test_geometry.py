"""Curves, itineraries, waypoint sampling, and momentum conditioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from scratchsim.geometry import (
    _SCAN_BLOCK,
    CapacityError,
    GeometryError,
    MomentumConditioning,
    SegmentCurve,
    SplineCurve,
    assign_itineraries,
    build_paths,
    catmull_rom_tangents,
    condition_momenta,
    curve_from_dict,
    curve_pair_min_distance,
    curve_self_min_distance,
    linear_collision_parameter,
    recount_momenta,
    recount_positions,
    sample_waypoints,
    verify_curve_family,
)
from scratchsim.grid import SpatialGrid, half_planes, momentum_half_spaces

_chord_knots = __import__("scratchsim.geometry", fromlist=["_chord_knots"])._chord_knots


def grid3d(n=32, half=6.0):
    return SpatialGrid(((-half, half),) * 3, (n,) * 3)


class TestSegmentCurve:
    def test_projection_analytic(self):
        c = SegmentCurve([0.0, 0.0], [2.0, 0.0])
        s, f = c.project(np.array([[1.0, 3.0], [-1.0, 0.0], [0.5, 0.0]]))
        assert np.allclose(s, [0.5, 0.0, 0.25])
        assert np.allclose(f, [9.0, 1.0, 0.0])

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            SegmentCurve([1.0, 1.0], [1.0, 1.0])

    def test_linear_continuation(self):
        c = SegmentCurve([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(c(np.array([2.0]))[0], [2.0, 2.0])
        assert np.allclose(c(np.array([-1.0]))[0], [-1.0, -1.0])

    def test_round_trip_dict(self):
        c = SegmentCurve([0.0, 1.0], [2.0, 3.0])
        c2 = curve_from_dict(c.to_dict())
        assert np.allclose(c2.a, c.a) and np.allclose(c2.b, c.b)


class TestSplineCurve:
    def make(self):
        wp = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.5], [2.0, 0.0, 1.0]])
        knots = _chord_knots(wp)
        return SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))

    def test_interpolates_waypoints(self):
        c = self.make()
        assert np.allclose(c(c.knots), c.waypoints, atol=1e-12)

    def test_projection_against_dense_scan(self):
        c = self.make()
        rng = np.random.default_rng(0)
        pts = c(rng.uniform(0.1, 0.9, 20)) + rng.normal(scale=0.05, size=(20, 3))
        s, f = c.project(pts)
        s_dense, p_dense = c.sample(20001)
        d2 = np.min(
            np.sum((pts[:, None, :] - p_dense[None, :, :]) ** 2, axis=2), axis=1
        )
        assert np.allclose(f, d2, atol=1e-8)

    def test_linear_extension_continuity(self):
        c = self.make()
        eps = 1e-7
        inside = c(np.array([eps]))[0]
        outside = c(np.array([-eps]))[0]
        assert np.linalg.norm(inside - outside) < 1e-5

    def test_zero_tangent_rejected(self):
        wp = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(GeometryError):
            SplineCurve([0.0, 1.0], wp, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_self_distance_straightish_is_inf(self):
        c = self.make()
        assert curve_self_min_distance(c) > 0.5


def random_spline(rng, K, bend=0.5, tangent_scale=1.0):
    """A simple spline through K waypoints that advance along x, bent
    sideways by up to `bend` chord lengths."""
    wp = np.zeros((K, 3))
    wp[:, 0] = np.arange(K) * 2.0
    wp[:, 1:] = rng.uniform(-bend, bend, size=(K, 2)) * 2.0
    wp += rng.uniform(-3.0, 3.0, size=3)
    knots = _chord_knots(wp)
    return SplineCurve(knots, wp, tangent_scale * catmull_rom_tangents(knots, wp))


def reference_jet(c, s):
    """Value, first and second derivative from a scipy CubicHermiteSpline,
    continued linearly along the end tangents outside [0, 1]."""
    pp = CubicHermiteSpline(c.knots, c.waypoints, c.tangents, axis=0)
    inner = np.clip(s, 0.0, 1.0)
    below = (s < 0.0)[:, None]
    above = (s > 1.0)[:, None]
    pos = pp(inner) + np.minimum(s, 0.0)[:, None] * c.tangents[0]
    pos += np.maximum(s - 1.0, 0.0)[:, None] * c.tangents[-1]
    d1 = np.where(below, c.tangents[0], np.where(above, c.tangents[-1], pp(inner, 1)))
    d2 = np.where(below | above, 0.0, pp(inner, 2))
    return pos, d1, d2


class TestSplineJet:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_reference(self, seed):
        rng = np.random.default_rng(seed)
        c = random_spline(rng, int(rng.integers(2, 6)), tangent_scale=rng.uniform(0.5, 2.0))
        edges = np.concatenate([c.knots, [0.0, 1.0]])
        s = np.concatenate(
            [
                rng.uniform(-0.5, 1.5, 200),
                [-0.5, 1.5],
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
            ]
        )
        for got, ref in zip(c.jet(s), reference_jet(c, s)):
            assert got.shape == (s.size, 3)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_call_and_derivatives_are_parts_of_jet(self):
        c = random_spline(np.random.default_rng(1), 4)
        s = np.linspace(-0.3, 1.3, 17)
        pos, d1, d2 = c.jet(s)
        assert np.array_equal(c(s), pos)
        assert np.array_equal(c.deriv(s), d1)
        assert np.array_equal(c.deriv2(s), d2)
        assert c(0.5).shape == (3,)

    def test_segment_jet(self):
        c = SegmentCurve([0.0, 1.0, 2.0], [2.0, 1.0, 0.0])
        s = np.array([-0.5, 0.25, 1.5])
        pos, d1, d2 = c.jet(s)
        assert np.allclose(pos, c(s)) and np.allclose(d1, c.b - c.a)
        assert np.array_equal(d2, np.zeros((3, 3)))


class TestSplineProjection:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(2, 5),
        offset=st.floats(0.0, 0.5),
        ext=st.floats(0.0, 0.3),
    )
    def test_agrees_with_dense_scan(self, seed, K, offset, ext):
        rng = np.random.default_rng(seed)
        c = random_spline(rng, K, bend=0.3)
        s_lo, s_hi = -ext, 1.0 + ext
        u = rng.normal(size=(8, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = c(rng.uniform(s_lo, s_hi, 8)) + offset * u
        s, f = c.project(pts, s_lo=s_lo, s_hi=s_hi)
        assert np.all((s >= s_lo) & (s <= s_hi))
        assert np.allclose(f, np.sum((pts - c(s)) ** 2, axis=1), rtol=0.0, atol=1e-12)
        _, dense = c.sample(20001, s_lo, s_hi)
        f_dense = np.min(np.sum((pts[:, None, :] - dense[None, :, :]) ** 2, axis=2), axis=1)
        h = np.max(np.linalg.norm(np.diff(dense, axis=0), axis=1))
        # never worse than the dense scan, and better by no more than its
        # resolution allows: the nearest sample lies within h/2 of the foot
        assert np.all(f <= f_dense + 1e-12)
        assert np.all(f_dense - f <= np.sqrt(f) * h + h * h / 4 + 1e-12)

    def test_stops_early(self):
        c = random_spline(np.random.default_rng(3), 3)
        calls = []
        jet = c.jet
        c.jet = lambda s: calls.append(1) or jet(s)
        pts = c(np.array([0.1, 0.45, 0.8])) + 0.05
        c.project(pts, newton_iters=8)
        # Newton reaches machine precision in about 3 steps from the scan;
        # one more confirms it, then one evaluation for the distance
        assert len(calls) < 8

    def test_scan_in_blocks_matches_halves(self):
        # more rows than one scan block holds: rows are independent, so the
        # scan's start parameters (newton_iters=0) for the whole set are
        # those of each half, and of pieces that fit in one block; Newton's
        # common stop may add a round-off step
        rng = np.random.default_rng(5)
        c = random_spline(rng, 4, bend=0.3)
        rows = _SCAN_BLOCK // 512
        m = 2 * rows + 501
        pts = c(rng.uniform(-0.2, 1.2, m)) + rng.normal(scale=0.3, size=(m, 3))
        halves = np.split(pts, [m // 2])
        pieces = np.split(pts, np.arange(rows // 2, m, rows // 2))
        for iters, tol in ((0, 0.0), (8, 1e-12)):
            s, f = c.project(pts, -0.2, 1.2, newton_iters=iters)
            for parts in (halves, pieces):
                sp, fp = zip(*(c.project(p, -0.2, 1.2, newton_iters=iters) for p in parts))
                assert np.allclose(s, np.concatenate(sp), rtol=0.0, atol=tol)
                assert np.allclose(f, np.concatenate(fp), rtol=0.0, atol=tol)


class TestItineraries:
    def test_counts_realized(self):
        counts = np.array([[3, 2], [1, 4], [5, 0]])
        a = assign_itineraries(counts, 5)
        for j in range(3):
            assert np.array_equal(np.bincount(a[:, j], minlength=3)[1:], counts[j])

    def test_keeps_region_when_possible(self):
        counts = np.array([[3, 2], [2, 3]])
        a = assign_itineraries(counts, 5)
        changes = np.sum(a[:, 0] != a[:, 1])
        assert changes == 1

    def test_count_sum_mismatch(self):
        with pytest.raises(GeometryError):
            assign_itineraries(np.array([[2, 2]]), 5)


class TestWaypoints:
    def test_interior_and_clearance(self):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        assignment = np.array([[1, 2], [2, 1], [1, 1], [2, 2]])
        plan = sample_waypoints(part, assignment, g, seed=5)
        h = float(np.max(g.spacing))
        for l in range(4):
            for j in range(2):
                k = assignment[l, j]
                assert part.interior_membership(plan.positions[l, j][None, :], k)[0]
        for j in range(2):
            for l1 in range(4):
                for l2 in range(l1 + 1, 4):
                    d = np.linalg.norm(plan.positions[l1, j] - plan.positions[l2, j])
                    assert d >= plan.delta_path

    def test_deterministic_in_seed(self):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        assignment = np.array([[1, 2], [2, 1]])
        p1 = sample_waypoints(part, assignment, g, seed=9)
        p2 = sample_waypoints(part, assignment, g, seed=9)
        assert np.array_equal(p1.positions, p2.positions)

    def test_capacity_error(self):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        assignment = np.ones((4, 2), dtype=int)
        with pytest.raises(CapacityError):
            sample_waypoints(part, assignment, g, seed=0, delta_path=50.0)


class TestPaths:
    def test_line_mode(self):
        g = SpatialGrid(((-6.0, 6.0), (-6.0, 6.0)), (32, 32))
        part = half_planes(g, 0, 0.0)
        assignment = np.array([[1, 2], [2, 1], [1, 1]])
        plan = sample_waypoints(part, assignment, g, seed=1, general_position=True)
        curves = build_paths(plan, "line", grid=g, seed=1)
        assert len(curves) == 3
        for l, c in enumerate(curves):
            assert np.allclose(c(np.array([0.0]))[0], plan.positions[l, 0], atol=0.1)

    def test_collision_certificate(self):
        # two head-on lines meeting at the midpoint in time get perturbed
        pos = np.array(
            [[[-1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]
        )
        from scratchsim.geometry import WaypointPlan

        plan = WaypointPlan(pos, np.array([[1, 2], [2, 1]]), 0.5, 1e-6, "line")
        curves = build_paths(plan, "line", seed=0)
        t, d = linear_collision_parameter(
            curves[0].a, curves[0].b, curves[1].a, curves[1].b
        )
        assert d > 1e-9

    def test_spline_mode_needs_3d(self):
        from scratchsim.geometry import WaypointPlan

        pos = np.zeros((1, 2, 2))
        pos[0, 1] = [1.0, 1.0]
        plan = WaypointPlan(pos, np.ones((1, 2), dtype=int), 0.1, 1e-6, "spline")
        with pytest.raises(GeometryError):
            build_paths(plan, "spline")

    def test_family_separation_verified(self):
        c1 = SegmentCurve([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        c2 = SegmentCurve([0.0, 0.05, 0.0], [1.0, 0.05, 0.0])
        assert np.isclose(curve_pair_min_distance(c1, c2), 0.05, atol=1e-6)
        from scratchsim.geometry import ConstructionError

        with pytest.raises(ConstructionError):
            verify_curve_family([c1, c2], delta_path=0.5)


class TestConditioning:
    def build(self, seed=3):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        mom = momentum_half_spaces(3, 0, 0.0)
        counts_pos = np.array([[2, 1], [1, 2]])
        counts_mom = np.array([[1, 2], [2, 1]])
        assignment = assign_itineraries(counts_pos, 3)
        plan = sample_waypoints(part, assignment, g, seed=seed)
        curves = build_paths(plan, "spline")
        times = np.array([0.0, 4.0])
        cond, curves = condition_momenta(
            curves, mom, counts_mom, 1.0, times, seed=seed, delta_path=plan.delta_path
        )
        return curves, cond, mom, part, counts_pos, counts_mom

    def test_momentum_counts_realized(self):
        curves, cond, mom, part, counts_pos, counts_mom = self.build()
        assert np.array_equal(recount_momenta(curves, cond, mom, 1.0), counts_mom)

    def test_position_counts_preserved(self):
        curves, cond, mom, part, counts_pos, counts_mom = self.build()
        assert np.array_equal(recount_positions(curves, part), counts_pos)

    def test_speeds_positive_and_monotone_compatible(self):
        curves, cond, mom, part, _, _ = self.build()
        times = np.array([0.0, 4.0])
        for l, c in enumerate(curves):
            secants = np.diff(c.checkpoint_params) / np.diff(times)
            for j in range(2):
                assert cond.speeds[l, j] > 0
                assert cond.speeds[l, j] <= 3.0 * secants.min() + 1e-12

    def test_momentum_magnitude_matches_radius(self):
        curves, cond, mom, part, _, _ = self.build()
        for l, c in enumerate(curves):
            dq = c.deriv(c.checkpoint_params)
            for j in range(2):
                p = 1.0 * cond.speeds[l, j] * dq[j]
                assert np.isclose(np.linalg.norm(p), cond.radii[l, j], rtol=1e-9)
