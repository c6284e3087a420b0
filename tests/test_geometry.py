"""Curves, itineraries, waypoint sampling, and momentum conditioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from scratchsim.geometry import (
    _DISTANCE_ROWS,
    _SCAN_BLOCK,
    CapacityError,
    SegmentFamily,
    GeometryError,
    SplineFamily,
    MomentumConditioning,
    SegmentCurve,
    SplineCurve,
    adjacent_secant_min,
    assign_itineraries,
    build_paths,
    catmull_rom_tangents,
    condition_momenta,
    curve_pair_min_distance,
    curve_self_min_distance,
    hermite_coefficients,
    linear_collision_parameter,
    recount_momenta,
    recount_positions,
    sample_waypoints,
    verify_curve_family,
)
from scratchsim.grid import SpatialGrid, half_planes, momentum_half_spaces

_geometry = __import__("scratchsim.geometry", fromlist=["_chord_knots"])
_chord_knots = _geometry._chord_knots


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

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("K", [2, 3, 5, 40])
    def test_hermite_coefficients_are_scipys(self, K, shape):
        rng = np.random.default_rng(K)
        x = np.sort(rng.uniform(-1.0, 2.0, K))
        y, dydx = rng.normal(size=(2, K) + shape)
        want = CubicHermiteSpline(x, y, dydx, axis=0).c
        got = hermite_coefficients(x, y, dydx)
        assert got.shape == want.shape and np.array_equal(got, want)

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

    def test_stops_early(self, monkeypatch):
        c = random_spline(np.random.default_rng(3), 3)
        calls = []
        jet = SplineFamily._jet
        monkeypatch.setattr(
            SplineFamily, "_jet", lambda self, *a: calls.append(1) or jet(self, *a)
        )
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


def one_product_pair_distance(c1, c2, num=1000):
    """`curve_pair_min_distance` as one 1000 x 1000 product."""
    _, p1 = c1.sample(num)
    _, p2 = c2.sample(num)
    d2 = np.sum(p1**2, axis=1)[:, None] - 2.0 * p1 @ p2.T + np.sum(p2**2, axis=1)[None, :]
    return float(np.sqrt(max(d2.min(), 0.0)))


def one_product_self_distance(curve, num=1000, arc_ratio=0.3):
    """`curve_self_min_distance` as one 1000 x 1000 product."""
    s, p = curve.sample(num)
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(p, axis=0), axis=1))])
    d2 = np.sum(p**2, axis=1)[:, None] - 2.0 * p @ p.T + np.sum(p**2, axis=1)[None, :]
    d = np.sqrt(np.maximum(d2, 0.0))
    approach = d < arc_ratio * np.abs(arc[:, None] - arc[None, :])
    return float(d[approach].min()) if np.any(approach) else float("inf")


class TestBlockedProducts:
    def test_row_blocks_are_equal_and_never_single_rows(self):
        for start, stop, rows in ((0, 1000, 64), (5, 262, 128), (3, 5, 128), (0, 129, 128), (7, 8, 128)):
            cuts = _geometry._row_blocks(start, stop, rows)
            sizes = np.diff(cuts)
            assert cuts[0] == start and cuts[-1] == stop
            assert sizes.max() <= rows and sizes.max() - sizes.min() <= 1
            assert stop - start < 2 or sizes.min() >= 2

    def test_blocks_round_as_one_product(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(scale=3.0, size=(2000, 3))
        table = rng.normal(scale=2.0, size=(3, 512))
        whole = pts @ table
        for rows in (2, 3, 15, 16, 64, 128, 1000):
            cuts = _geometry._row_blocks(0, len(pts), rows)
            blocked = np.concatenate([pts[a:b] @ table for a, b in zip(cuts[:-1], cuts[1:])])
            assert np.array_equal(blocked, whole)

    def test_curve_distances_as_one_product(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            c1 = random_spline(rng, 4, bend=0.8)
            c2 = random_spline(rng, 3, bend=0.8)
            assert curve_pair_min_distance(c1, c2) == one_product_pair_distance(c1, c2)
            assert curve_self_min_distance(c1, arc_ratio=0.9) == one_product_self_distance(c1, arc_ratio=0.9)
        # a loop that comes back close to itself, so that approaches exist
        wp = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0], [0.0, 2.0, 0.2], [0.3, 0.1, 0.4]])
        knots = _chord_knots(wp)
        loop = SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))
        got = curve_self_min_distance(loop)
        assert np.isfinite(got) and got == one_product_self_distance(loop)
        assert 1000 > _DISTANCE_ROWS

    def test_scan_of_a_lone_row_rounds_as_in_a_block(self):
        # points halfway between neighbouring scan samples, where rounding
        # picks the nearer one: a one-row product (the matrix-vector path)
        # picks differently for about one in eight of them
        rng = np.random.default_rng(33)
        c = random_spline(rng, 4, bend=0.5)
        fam = SplineFamily([c], -0.2, 1.2)
        _, samples = c.sample(512, -0.2, 1.2)
        k = rng.integers(0, 511, 300)
        pts = 0.5 * (samples[k] + samples[k + 1])
        cl = np.zeros(len(pts), dtype=np.intp)
        whole = fam._scan(cl, pts)
        lone = [fam._scan(cl[:1], pts[i : i + 1])[0] for i in range(len(pts))]
        assert np.array_equal(lone, whole)


def family_curves(rng):
    """Splines of 2 to 5 waypoints, so that the piece tables are padded."""
    return [random_spline(rng, K, bend=0.4) for K in (2, 5, 3, 4)]


class TestSplineFamily:
    def test_rows_are_single_curve_projections(self):
        rng = np.random.default_rng(41)
        curves = family_curves(rng)
        lo = np.array([-0.3, 0.0, -0.1, -0.25])
        hi = np.array([1.3, 1.0, 1.05, 1.25])
        fam = SplineFamily(curves, lo, hi)
        pts = np.concatenate([c(rng.uniform(-0.3, 1.3, 40)) for c in curves])
        pts += rng.normal(scale=0.5, size=pts.shape)
        s, f, jet = fam.project(pts)
        M = len(pts)
        for l, c in enumerate(curves):
            s1, f1, jet1 = c.project_jet(pts, lo[l], hi[l])
            rows = slice(l * M, (l + 1) * M)
            assert np.array_equal(s[rows], s1) and np.array_equal(f[rows], f1)
            for got, want in zip(jet, jet1):
                assert np.array_equal(got[rows], want)
            # the family's jets are the curve's own, bit for bit
            for got, want in zip(c.jet(s1), jet1):
                assert np.array_equal(got, want)

    def test_a_pair_does_not_depend_on_the_others(self):
        rng = np.random.default_rng(42)
        curves = family_curves(rng)
        fam = SplineFamily(curves, -0.2, 1.2)
        pts = rng.uniform(-4.0, 6.0, (60, 3))
        s, f, jet = fam.project(pts)
        pick = np.sort(rng.choice(len(curves) * 60, 37, replace=False))
        cl, pm = np.divmod(pick, 60)
        s2, f2, jet2 = fam.project(pts, (cl, pm))
        assert np.array_equal(s2, s[pick]) and np.array_equal(f2, f[pick])
        for got, want in zip(jet2, jet):
            assert np.array_equal(got, want[pick])

    def test_boxes_hold_the_curves(self):
        rng = np.random.default_rng(43)
        curves = family_curves(rng)
        fam = SplineFamily(curves, -0.4, 1.4)
        for l, c in enumerate(curves):
            pts = c(np.linspace(-0.4, 1.4, 4001))
            assert fam.near(pts)[l].all()
        # a point outside a grown box is farther than the reach from the curve
        fam = SplineFamily(curves, -0.4, 1.4, reach=0.7)
        far = rng.uniform(-12.0, 12.0, (3000, 3))
        mask = fam.near(far)
        for l, c in enumerate(curves):
            _, f = c.project(far[~mask[l]], -0.4, 1.4)
            assert np.all(f > 0.7**2)
        assert not mask.all()

    def test_stopped_pairs_keep_their_jet(self, monkeypatch):
        # one Newton iteration per pair from a converged start: the iterate
        # comes back with the jet just evaluated, and no further jet
        c = random_spline(np.random.default_rng(44), 3)
        fam = SplineFamily([c], -0.2, 1.2)
        pts = c(np.array([0.1, 0.45, 0.8])) + 0.05
        s, f, jet = fam.project(pts)
        calls = []
        inner = SplineFamily._jet
        monkeypatch.setattr(SplineFamily, "_jet", lambda self, *a: calls.append(1) or inner(self, *a))
        cl = np.zeros(3, dtype=np.intp)
        s2, f2, jet2 = fam.project(pts, (cl, np.arange(3)), s_start=s)
        assert len(calls) == 1
        assert np.array_equal(s2, s) and np.array_equal(f2, f)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(0.0, 1.0),
        jump=st.floats(-2.0, 2.0),
    )
    def test_warm_start_never_worse_than_the_scan(self, seed, offset, jump):
        rng = np.random.default_rng(seed)
        c = random_spline(rng, int(rng.integers(2, 6)), bend=0.5)
        fam = SplineFamily([c], -0.3, 1.3)
        u = rng.normal(size=(12, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = c(rng.uniform(-0.3, 1.3, 12)) + offset * u
        cold_s, cold_f, _ = fam.project(pts)
        # warm starts anywhere, some far off (another basin) and some none
        start = cold_s + jump * rng.uniform(0.0, 1.0, 12)
        start[rng.uniform(size=12) < 0.2] = np.nan
        pairs = (np.zeros(12, dtype=np.intp), np.arange(12))
        s, f, (pos, _, _) = fam.project(pts, pairs, s_start=start)
        assert np.all((s >= -0.3) & (s <= 1.3))
        assert np.array_equal(f, np.einsum("ij,ij->i", pts - pos, pts - pos))
        _, samples = c.sample(512, -0.3, 1.3)
        scan_best = np.min(np.sum((pts[:, None, :] - samples[None]) ** 2, axis=2), axis=1)
        assert np.all(f <= scan_best + 1e-12)
        # a start at the cold result gives the cold result
        s2, f2, _ = fam.project(pts, pairs, s_start=cold_s)
        assert np.allclose(s2, cold_s, rtol=0.0, atol=1e-12)


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


def reference_sample_waypoints(
    partition, assignment, grid, seed, *, margin=None, delta_path=None,
    eps_coll=None, general_position=False, max_attempts=4000,
):
    """Waypoint sampling with a Python loop over the placed points and over
    every pair of them, per candidate: the positions `sample_waypoints`
    must reproduce."""

    def point_line_distance(z, x, y):
        d = y - x
        nd = np.linalg.norm(d)
        if nd < 1e-300:
            return np.linalg.norm(z - x)
        t = (z - x) @ d / (nd * nd)
        return float(np.linalg.norm(z - (x + t * d)))

    rng = np.random.default_rng(seed)
    N, K = assignment.shape
    h = float(np.max(grid.spacing))
    margin = h if margin is None else margin
    delta_path = 4.0 * h if delta_path is None else delta_path
    eps_coll = 1e-6 * grid.diagonal if eps_coll is None else eps_coll
    region_boxes = {}
    for k in range(1, partition.n + 1):
        boxes = [
            (np.maximum(np.asarray(b.lo), grid.lo), np.minimum(np.asarray(b.hi), grid.hi))
            for b in partition.regions[k - 1]
        ]
        boxes = [(lo, hi) for lo, hi in boxes if np.all(hi > lo) and np.all(hi - lo > 2 * margin)]
        if not boxes:
            raise CapacityError(f"region {k} has no interior volume at margin {margin}")
        vols = np.array([np.prod(hi - lo - 2 * margin) for lo, hi in boxes])
        region_boxes[k] = (boxes, vols / vols.sum())
    positions = np.zeros((N, K, grid.ndim))
    placed = []
    for l in range(N):
        for j in range(K):
            k = int(assignment[l, j])
            boxes, weights = region_boxes[k]
            for _ in range(max_attempts):
                lo, hi = boxes[rng.choice(len(boxes), p=weights)]
                z = rng.uniform(lo + margin, hi - margin)
                if not partition.interior_membership(z[None, :], k, margin=0.0)[0]:
                    continue
                if any(np.linalg.norm(z - positions[l2, j]) < delta_path for l2 in range(l)):
                    continue
                if np.linalg.norm(z - positions[l, j - 1]) < delta_path and j > 0:
                    continue
                if general_position:
                    if any(np.linalg.norm(z - w) < eps_coll for w in placed):
                        continue
                    if any(
                        point_line_distance(z, placed[i1], placed[i2]) < eps_coll
                        for i1 in range(len(placed))
                        for i2 in range(i1 + 1, len(placed))
                    ):
                        continue
                positions[l, j] = z
                placed.append(z.copy())
                break
            else:
                raise CapacityError(
                    f"could not place waypoint for particle {l}, checkpoint {j}; "
                    "reduce N or the clearances"
                )
    return positions


class TestWaypointsAgainstLoops:
    def same_plan(self, part, assignment, g, seed, **kw):
        plan = sample_waypoints(part, assignment, g, seed, **kw)
        ref = reference_sample_waypoints(part, assignment, g, seed, **kw)
        assert np.array_equal(plan.positions, ref)

    def test_t1_many_geometry(self):
        # N = 25 lines on 128^2 half planes, as the N = 25 theorem1 run
        g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (128, 128))
        part = half_planes(g, 0, 0.0)
        assignment = assign_itineraries(np.array([[13, 12], [9, 16]]), 25)
        for seed in (1, 2, 77):
            self.same_plan(part, assignment, g, seed, general_position=True)
            self.same_plan(part, assignment, g, seed, general_position=False)

    def test_three_checkpoints_3d(self):
        g = grid3d(16)
        part = half_planes(g, 0, 0.0)
        assignment = assign_itineraries(np.array([[3, 3], [2, 4], [5, 1]]), 6)
        for seed in (0, 5):
            for general_position in (True, False):
                self.same_plan(part, assignment, g, seed, general_position=general_position)

    def test_tight_collinearity_tolerance(self):
        # an eps_coll large enough that candidates are rejected as
        # collinear with placed pairs, so the pair check decides the plan
        g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (32, 32))
        part = half_planes(g, 0, 0.0)
        assignment = assign_itineraries(np.array([[4, 4], [4, 4]]), 8)
        for seed in (3, 4):
            self.same_plan(part, assignment, g, seed, general_position=True, eps_coll=0.3)

    def test_capacity_error_unchanged(self):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        assignment = np.ones((4, 2), dtype=int)
        with pytest.raises(CapacityError) as got:
            sample_waypoints(part, assignment, g, seed=0, delta_path=50.0)
        with pytest.raises(CapacityError) as want:
            reference_sample_waypoints(part, assignment, g, seed=0, delta_path=50.0)
        assert str(got.value) == str(want.value)

    def test_coincident_placed_points(self):
        # two coincident placed points make a degenerate pair: the distance
        # to it is the distance to the point
        from scratchsim.geometry import _line_distances

        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        d = np.array([[0.0, 0.0], [3.0, 0.0]])
        nd = np.array([0.0, 3.0])
        got = _line_distances(np.array([4.0, 6.0]), x, d, nd)
        assert np.array_equal(got, [5.0, 6.0])


class TestSegmentFamily:
    def test_rows_are_single_segment_projections(self):
        rng = np.random.default_rng(8)
        for D in (2, 3):
            segs = [SegmentCurve(*rng.uniform(-3.0, 3.0, (2, D))) for _ in range(6)]
            lo = rng.uniform(-0.3, 0.0, 6)
            hi = rng.uniform(1.0, 1.3, 6)
            pts = rng.uniform(-4.0, 4.0, (50, D))
            s, r, f = SegmentFamily(segs, lo, hi).project(pts)
            assert s.shape == f.shape == (6, 50) and r.shape == (6, D, 50)
            for l, c in enumerate(segs):
                s1, f1 = c.project(pts, lo[l], hi[l])
                assert np.array_equal(s[l], s1) and np.array_equal(f[l], f1)
                assert np.array_equal(r[l].T, pts - c(s1))
                assert np.all((s1 >= lo[l]) & (s1 <= hi[l]))


class TestPaths:
    def test_line_mode(self):
        g = SpatialGrid(((-6.0, 6.0), (-6.0, 6.0)), (32, 32))
        part = half_planes(g, 0, 0.0)
        assignment = np.array([[1, 2], [2, 1], [1, 1]])
        plan = sample_waypoints(part, assignment, g, seed=1, general_position=True)
        curves = build_paths(plan, grid=g, seed=1)
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
        g = SpatialGrid(((-6.0, 6.0), (-6.0, 6.0)), (32, 32))
        curves = build_paths(plan, grid=g, seed=0)
        t, d = linear_collision_parameter(
            curves[0].a, curves[0].b, curves[1].a, curves[1].b
        )
        assert d > 1e-9

    def test_spline_mode_needs_3d(self):
        from scratchsim.geometry import WaypointPlan

        pos = np.zeros((1, 2, 2))
        pos[0, 1] = [1.0, 1.0]
        plan = WaypointPlan(pos, np.ones((1, 2), dtype=int), 0.1, 1e-6, "spline")
        g = SpatialGrid(((-6.0, 6.0), (-6.0, 6.0)), (32, 32))
        with pytest.raises(GeometryError):
            build_paths(plan, grid=g, seed=0)

    def test_family_separation_verified(self):
        c1 = SegmentCurve([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        c2 = SegmentCurve([0.0, 0.05, 0.0], [1.0, 0.05, 0.0])
        assert np.isclose(curve_pair_min_distance(c1, c2), 0.05, atol=1e-6)
        from scratchsim.geometry import ConstructionError

        with pytest.raises(ConstructionError):
            verify_curve_family([c1, c2], delta_path=0.5)

    def test_plan_mode_names_the_curve_kind(self):
        from scratchsim.geometry import WaypointPlan

        g = grid3d()
        pos = np.array([[[-2.0, 0.0, 0.0], [2.0, 1.0, 0.0]], [[-2.0, 3.0, 0.0], [2.0, 4.0, 1.0]]])
        assignment = np.array([[1, 2], [1, 2]])
        for mode, kind in (("line", SegmentCurve), ("spline", SplineCurve)):
            plan = WaypointPlan(pos, assignment, 0.5, 1e-6, mode)
            curves = build_paths(plan, grid=g, seed=0)
            assert all(type(c) is kind for c in curves)
            for c, wp in zip(curves, pos):
                assert np.allclose(c(c.checkpoint_params), wp, atol=1e-12)

    def test_spline_family_is_verified_once_conditioned(self):
        # build_paths leaves the Catmull-Rom curves unchecked: two splines
        # closer than delta_path come back, and conditioning rejects them
        from scratchsim.geometry import ConstructionError, WaypointPlan

        g = grid3d()
        wp = np.array([[-2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [2.0, 0.0, 1.0]])
        pos = np.stack([wp, wp + [0.0, 0.1, 0.0]])
        plan = WaypointPlan(pos, np.ones((2, 3), dtype=int), 1.0, 1e-6, "spline")
        curves = build_paths(plan, grid=g, seed=0)
        assert curve_pair_min_distance(*curves) < plan.delta_path
        # every momentum along +x, the direction the curves run in
        counts_mom = np.array([[0, 2]] * 3)
        with pytest.raises(ConstructionError, match="closer than delta_path"):
            condition_momenta(
                curves, momentum_half_spaces(3, 0, 0.0), counts_mom, 1.0,
                np.array([0.0, 1.0, 2.0]), seed=0, p_scale=1.0, p_margin=0.3,
                delta_path=plan.delta_path,
            )


def reference_line_paths(plan, h, seed=0, collision_tol=1e-9, max_perturbations=50):
    """Line-mode `build_paths` with its per-pair loop: perturb the start of
    the first particle of the first colliding pair, in (i, j) order."""
    rng = np.random.default_rng(seed)
    pos = plan.positions.copy()
    N, _, D = pos.shape
    for _ in range(max_perturbations):
        colliding = None
        for i in range(N):
            for j in range(i + 1, N):
                _, dist = linear_collision_parameter(pos[i, 0], pos[i, 1], pos[j, 0], pos[j, 1])
                if dist < collision_tol:
                    colliding = i
                    break
            if colliding is not None:
                break
        if colliding is None:
            return [SegmentCurve(pos[l, 0], pos[l, 1]) for l in range(N)]
        pos[colliding, 0] += rng.uniform(-h / 10, h / 10, size=D)
    raise AssertionError("unresolved")


class TestLinePathsAgainstLoop:
    def same_curves(self, plan, g, seed):
        got = build_paths(plan, grid=g, seed=seed)
        want = reference_line_paths(plan, float(np.max(g.spacing)), seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_t1_many_geometry(self):
        g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (128, 128))
        part = half_planes(g, 0, 0.0)
        assignment = assign_itineraries(np.array([[13, 12], [11, 14]]), 25)
        for seed in (1, 2, 77):
            plan = sample_waypoints(part, assignment, g, seed=seed, general_position=True)
            self.same_curves(plan, g, seed)

    def test_colliding_pairs(self):
        # head-on pairs meet halfway, in two and three dimensions; several
        # pairs collide at once, so the order of the perturbations matters
        from scratchsim.geometry import WaypointPlan

        rng = np.random.default_rng(9)
        for D in (2, 3):
            g = SpatialGrid(((-6.0, 6.0),) * D, (32,) * D)
            ends = rng.uniform(-5.0, 5.0, (4, 2, D))
            pos = np.concatenate([ends, ends[:, ::-1], rng.uniform(-5.0, 5.0, (3, 2, D))])
            pos = pos[rng.permutation(len(pos))]
            plan = WaypointPlan(pos, np.ones((len(pos), 2), dtype=int), 0.5, 1e-6, "line")
            assert any(
                linear_collision_parameter(pos[i, 0], pos[i, 1], pos[j, 0], pos[j, 1])[1] < 1e-9
                for i in range(len(pos))
                for j in range(i + 1, len(pos))
            )
            for seed in (0, 5):
                self.same_curves(plan, g, seed)
            # translated copies: zero relative velocity
            same = np.concatenate([ends[:1], ends[:1] + 0.3, ends[1:]])
            plan = WaypointPlan(same, np.ones((len(same), 2), dtype=int), 0.5, 1e-6, "line")
            self.same_curves(plan, g, 3)


class TestAdjacentSecantMin:
    def test_values(self):
        # secants 0.5, 0.25 and 1.5: the ends see one interval, the inner
        # checkpoints the smaller of their two
        params = np.array([0.0, 0.5, 0.75, 1.0])
        times = np.array([0.0, 1.0, 2.0, 2.0 + 1.0 / 6.0])
        assert np.allclose(adjacent_secant_min(params, times), [0.5, 0.25, 0.25, 1.5])

    def test_two_checkpoints(self):
        got = adjacent_secant_min(np.array([0.0, 1.0]), np.array([0.0, 4.0]))
        assert np.array_equal(got, [0.25, 0.25])


class TestConditioning:
    def build(self, seed=3):
        g = grid3d()
        part = half_planes(g, 0, 0.0)
        mom = momentum_half_spaces(3, 0, 0.0)
        counts_pos = np.array([[2, 1], [1, 2]])
        counts_mom = np.array([[1, 2], [2, 1]])
        assignment = assign_itineraries(counts_pos, 3)
        plan = sample_waypoints(part, assignment, g, seed=seed)
        curves = build_paths(plan, grid=g, seed=seed)
        times = np.array([0.0, 4.0])
        # the pipeline's momentum scale and margin (`ExperimentConfig`)
        cond, curves = condition_momenta(
            curves, mom, counts_mom, 1.0, times,
            seed=seed, p_scale=1.0, p_margin=0.3, delta_path=plan.delta_path,
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
            box = 3.0 * adjacent_secant_min(c.checkpoint_params, times)
            assert np.all(cond.speeds[l] > 0)
            assert np.all(cond.speeds[l] <= box + 1e-12)

    def test_momentum_magnitude_matches_radius(self):
        curves, cond, mom, part, _, _ = self.build()
        for l, c in enumerate(curves):
            dq = c.deriv(c.checkpoint_params)
            for j in range(2):
                p = 1.0 * cond.speeds[l, j] * dq[j]
                assert np.isclose(np.linalg.norm(p), cond.radii[l, j], rtol=1e-9)
