"""Point-set and curve constructions for the scratch pipelines.

Straight segments realize two-checkpoint itineraries in D >= 2; clamped
cubic Hermite splines through per-checkpoint waypoints realize multi-
checkpoint itineraries in D = 3, with knot tangents free for momentum
conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from scratchsim.grid import RegionPartition, SpatialGrid

_SCAN_BLOCK = 1 << 20  # doubles in one block of the projection scan (8 MiB)


class GeometryError(ValueError):
    pass


class CapacityError(GeometryError):
    """Rejection sampling could not place waypoints; reduce N or clearances."""


class ConstructionError(GeometryError):
    """Curves violating simplicity/separation after bounded retries."""


class ConditioningError(GeometryError):
    """A required tangent direction or speed is unreachable."""


# ---------------------------------------------------------------------------
# curves


class SegmentCurve:
    """Straight line segment a -> b parametrized on s in [0, 1], with natural
    linear continuation outside."""

    kind = "line"

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if np.allclose(self.a, self.b):
            raise GeometryError("degenerate zero-length segment")
        self.checkpoint_params = np.array([0.0, 1.0])

    @property
    def ndim(self) -> int:
        return self.a.size

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return self.a + np.multiply.outer(s, self.b - self.a)

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(self.b - self.a, s.shape + (self.ndim,)).copy()

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        return np.zeros(s.shape + (self.ndim,))

    def jet(self, s):
        """Position, first and second derivative at s, each shaped s.shape + (D,)."""
        return self(s), self.deriv(s), self.deriv2(s)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    def project(self, points, s_lo=0.0, s_hi=1.0):
        """Nearest parameter (clipped) and squared distance per point."""
        points = np.atleast_2d(points)
        d = self.b - self.a
        s = (points - self.a) @ d / (d @ d)
        s = np.clip(s, s_lo, s_hi)
        diff = points - self(s)
        return s, np.einsum("ij,ij->i", diff, diff)

    def sample(self, num: int, s_lo=0.0, s_hi=1.0):
        s = np.linspace(s_lo, s_hi, num)
        return s, self(s)

    def to_dict(self):
        return {"kind": "line", "a": self.a.tolist(), "b": self.b.tolist()}


class SplineCurve:
    """Cubic Hermite spline through waypoints with prescribed knot tangents;
    linear continuation beyond [0, 1] along the end tangents."""

    kind = "spline"

    def __init__(self, knots, waypoints, tangents):
        self.knots = np.asarray(knots, dtype=float)
        self.waypoints = np.asarray(waypoints, dtype=float)
        self.tangents = np.asarray(tangents, dtype=float)
        if not (np.all(np.diff(self.knots) > 0) and self.knots[0] == 0.0 and self.knots[-1] == 1.0):
            raise GeometryError("knots must be strictly increasing from 0 to 1")
        if np.any(np.linalg.norm(self.tangents, axis=1) < 1e-12):
            raise GeometryError("zero tangent at a knot (irregular curve)")
        # piece table: the linear continuation below 0, the cubic pieces, the
        # linear continuation above 1; per piece the coefficients a3..a0 of
        # the offset from its left end, then 3*a3, 2*a2 and 6*a3 for the
        # derivatives
        cubic = CubicHermiteSpline(self.knots, self.waypoints, self.tangents, axis=0).c
        zero = np.zeros(self.ndim)
        below = np.stack([zero, zero, self.tangents[0], self.waypoints[0]])
        above = np.stack([zero, zero, self.tangents[-1], self.waypoints[-1]])
        coef = np.concatenate([below[:, None], cubic, above[:, None]], axis=1)
        self._coef = np.concatenate([coef, [3.0 * coef[0], 2.0 * coef[1], 6.0 * coef[0]]])
        self._left = np.concatenate([[0.0], self.knots[:-1], [1.0]])
        # s < 0 -> piece 0; knots[i] <= s < knots[i+1] -> cubic piece i + 1;
        # s > 1 -> the last piece, so that s = 1 stays on the cubic
        self._edges = np.concatenate([self.knots[:-1], [np.nextafter(1.0, 2.0)]])
        self._dense: dict[tuple[float, float], tuple] = {}

    @property
    def ndim(self) -> int:
        return self.waypoints.shape[1]

    @property
    def checkpoint_params(self) -> np.ndarray:
        return self.knots

    def jet(self, s):
        """Position, first and second derivative at s, each shaped s.shape + (D,)."""
        s = np.asarray(s, dtype=float)
        i = np.searchsorted(self._edges, s, side="right")
        x = (s - self._left[i])[..., None]
        a3, a2, a1, a0, b2, b1, c1 = self._coef.take(i, axis=1)
        pos = ((a3 * x + a2) * x + a1) * x + a0
        d1 = (b2 * x + b1) * x + a1
        d2 = c1 * x + b1
        return pos, d1, d2

    def __call__(self, s):
        return self.jet(s)[0]

    def deriv(self, s):
        return self.jet(s)[1]

    def deriv2(self, s):
        return self.jet(s)[2]

    @property
    def length(self) -> float:
        s, pts = self.sample(2048)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    def sample(self, num: int, s_lo=0.0, s_hi=1.0):
        s = np.linspace(s_lo, s_hi, num)
        return s, self(s)

    def _dense_table(self, s_lo: float, s_hi: float, num: int = 512):
        """Scan samples of [s_lo, s_hi]: parameters, points transposed and
        squared point norms, built once per range."""
        table = self._dense.get((s_lo, s_hi))
        if table is None:
            s, pts = self.sample(num, s_lo, s_hi)
            table = (s, np.ascontiguousarray(pts.T), np.einsum("ij,ij->i", pts, pts))
            self._dense[(s_lo, s_hi)] = table
        return table

    def project(self, points, s_lo=0.0, s_hi=1.0, newton_iters=8):
        """Nearest parameter in [s_lo, s_hi] and squared distance per point.

        A scan over 512 samples of the range gives each start point; Newton
        steps on g(s) = (q - c(s)) . c'(s), each clipped to 0.1 and to the
        range, refine it. The iteration stops once no parameter moves by more
        than 4 ulps of the range's magnitude, and after newton_iters steps at
        most.
        """
        points = np.atleast_2d(points)
        sd, pd_t, pd2 = self._dense_table(s_lo, s_hi)
        # |q - c|^2 less its per-point constant |q|^2, one block of rows at a
        # time so that the scan buffer stays within _SCAN_BLOCK doubles
        s = np.empty(points.shape[0])
        rows = max(1, _SCAN_BLOCK // sd.size)
        for i in range(0, points.shape[0], rows):
            d2 = points[i : i + rows] @ pd_t
            d2 *= -2.0
            d2 += pd2
            s[i : i + rows] = sd[np.argmin(d2, axis=1)]
        tol = 4.0 * np.finfo(float).eps * max(abs(s_lo), abs(s_hi), 1.0)
        for _ in range(newton_iters):
            c, dc, d2c = self.jet(s)
            r = points - c
            g = np.einsum("ij,ij->i", r, dc)
            gp = np.einsum("ij,ij->i", r, d2c) - np.einsum("ij,ij->i", dc, dc)
            step = -g / np.where(np.abs(gp) > 1e-30, gp, np.inf)
            step = np.clip(step, -0.1, 0.1)
            s_new = np.clip(s + step, s_lo, s_hi)
            moved = (np.abs(s_new - s) > tol).any()
            s = s_new
            if not moved:
                break
        diff = points - self(s)
        return s, np.einsum("ij,ij->i", diff, diff)

    def to_dict(self):
        return {
            "kind": "spline",
            "knots": self.knots.tolist(),
            "waypoints": self.waypoints.tolist(),
            "tangents": self.tangents.tolist(),
        }


def curve_from_dict(d) -> SegmentCurve | SplineCurve:
    if d["kind"] == "line":
        return SegmentCurve(d["a"], d["b"])
    return SplineCurve(d["knots"], d["waypoints"], d["tangents"])


# ---------------------------------------------------------------------------
# itineraries and waypoints


@dataclass
class WaypointPlan:
    positions: np.ndarray  # (N, K, D)
    assignment: np.ndarray  # (N, K) 1-based region labels
    delta_path: float
    eps_coll: float
    mode: str  # "line" | "spline"

    @property
    def num_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def num_checkpoints(self) -> int:
        return self.positions.shape[1]

    def to_dict(self):
        return {
            "positions": self.positions.tolist(),
            "assignment": self.assignment.tolist(),
            "delta_path": self.delta_path,
            "eps_coll": self.eps_coll,
            "mode": self.mode,
        }


@dataclass
class MomentumConditioning:
    directions: np.ndarray  # (N, K, D) unit tangent directions at checkpoints
    speeds: np.ndarray  # (N, K) multipliers c with p = m * c * dq/ds
    radii: np.ndarray  # (N, K) chosen |p|
    assignment: np.ndarray  # (N, K) 1-based momentum region labels


def assign_itineraries(counts: np.ndarray, num_particles: int) -> np.ndarray:
    """Per-particle, per-checkpoint region labels realizing the given counts.

    Greedy: a particle keeps its previous region whenever the counts allow,
    minimizing region changes without any optimality claim.
    """
    counts = np.asarray(counts, dtype=np.int64)
    K, n = counts.shape
    if np.any(counts.sum(axis=1) != num_particles):
        raise GeometryError("per-checkpoint counts must sum to the particle number")
    assignment = np.zeros((num_particles, K), dtype=np.int64)
    order = np.repeat(np.arange(1, n + 1), counts[0])
    assignment[:, 0] = order
    for j in range(1, K):
        remaining = counts[j].copy()
        for l in range(num_particles):
            prev = assignment[l, j - 1]
            if remaining[prev - 1] > 0:
                assignment[l, j] = prev
                remaining[prev - 1] -= 1
        for l in range(num_particles):
            if assignment[l, j] == 0:
                k = int(np.argmax(remaining > 0)) + 1
                assignment[l, j] = k
                remaining[k - 1] -= 1
    return assignment


def _point_line_distance(z, x, y):
    d = y - x
    nd = np.linalg.norm(d)
    if nd < 1e-300:
        return np.linalg.norm(z - x)
    t = (z - x) @ d / (nd * nd)
    return float(np.linalg.norm(z - (x + t * d)))


def _region_boxes_clipped(partition: RegionPartition, k: int, lo, hi):
    """Region k boxes intersected with the domain box [lo, hi]."""
    out = []
    for box in partition.regions[k - 1]:
        blo = np.maximum(np.asarray(box.lo), lo)
        bhi = np.minimum(np.asarray(box.hi), hi)
        if np.all(bhi > blo):
            out.append((blo, bhi))
    return out


def sample_waypoints(
    partition: RegionPartition,
    assignment: np.ndarray,
    grid: SpatialGrid,
    seed: int,
    *,
    margin: float | None = None,
    delta_path: float | None = None,
    eps_coll: float | None = None,
    general_position: bool = False,
    max_attempts: int = 4000,
) -> WaypointPlan:
    """Rejection-sample per-particle per-checkpoint positions.

    Every waypoint is strictly interior to its assigned region (margin at
    least one grid spacing from the region and domain boundaries); same-
    checkpoint waypoints keep pairwise clearance; in general-position mode no
    three of the sampled points are collinear within eps_coll.
    """
    rng = np.random.default_rng(seed)
    N, K = assignment.shape
    D = grid.ndim
    h = float(np.max(grid.spacing))
    margin = h if margin is None else margin
    delta_path = 4.0 * h if delta_path is None else delta_path
    eps_coll = 1e-6 * grid.diagonal if eps_coll is None else eps_coll

    region_boxes = {}
    for k in range(1, partition.n + 1):
        boxes = _region_boxes_clipped(partition, k, grid.lo, grid.hi)
        boxes = [(lo, hi) for lo, hi in boxes if np.all(hi - lo > 2 * margin)]
        if not boxes:
            raise CapacityError(f"region {k} has no interior volume at margin {margin}")
        vols = np.array([np.prod(hi - lo - 2 * margin) for lo, hi in boxes])
        region_boxes[k] = (boxes, vols / vols.sum())

    positions = np.zeros((N, K, D))
    placed: list[np.ndarray] = []
    for l in range(N):
        for j in range(K):
            k = int(assignment[l, j])
            boxes, weights = region_boxes[k]
            ok = False
            for _ in range(max_attempts):
                bi = rng.choice(len(boxes), p=weights)
                lo, hi = boxes[bi]
                z = rng.uniform(lo + margin, hi - margin)
                if not partition.interior_membership(z[None, :], k, margin=0.0)[0]:
                    continue
                same_t = [positions[l2, j] for l2 in range(l)]
                if any(np.linalg.norm(z - w) < delta_path for w in same_t):
                    continue
                if np.linalg.norm(z - positions[l, j - 1]) < delta_path and j > 0:
                    continue
                if general_position:
                    if any(np.linalg.norm(z - w) < eps_coll for w in placed):
                        continue
                    bad = False
                    for i1 in range(len(placed)):
                        for i2 in range(i1 + 1, len(placed)):
                            if _point_line_distance(z, placed[i1], placed[i2]) < eps_coll:
                                bad = True
                                break
                        if bad:
                            break
                    if bad:
                        continue
                positions[l, j] = z
                placed.append(z.copy())
                ok = True
                break
            if not ok:
                raise CapacityError(
                    f"could not place waypoint for particle {l}, checkpoint {j}; "
                    "reduce N or the clearances"
                )
    return WaypointPlan(
        positions=positions,
        assignment=np.asarray(assignment, dtype=np.int64),
        delta_path=delta_path,
        eps_coll=eps_coll,
        mode="line" if general_position else "spline",
    )


# ---------------------------------------------------------------------------
# path construction


def linear_collision_parameter(a1, b1, a2, b2):
    """Closest-approach parameter and distance for two particles moving
    linearly a->b over a common unit time interval."""
    d0 = np.asarray(a1) - np.asarray(a2)
    d1 = np.asarray(b1) - np.asarray(b2)
    v = d1 - d0
    vv = float(v @ v)
    t = 0.0 if vv < 1e-300 else float(np.clip(-(d0 @ v) / vv, 0.0, 1.0))
    return t, float(np.linalg.norm(d0 + t * v))


def _chord_knots(waypoints: np.ndarray) -> np.ndarray:
    chords = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    if np.any(chords < 1e-12):
        raise GeometryError("coincident consecutive waypoints")
    s = np.concatenate([[0.0], np.cumsum(chords)])
    return s / s[-1]

def catmull_rom_tangents(knots: np.ndarray, waypoints: np.ndarray) -> np.ndarray:
    """Chord-based knot tangents (one-sided at the ends)."""
    K = len(knots)
    t = np.zeros_like(waypoints)
    for j in range(K):
        if j == 0:
            t[j] = (waypoints[1] - waypoints[0]) / (knots[1] - knots[0])
        elif j == K - 1:
            t[j] = (waypoints[-1] - waypoints[-2]) / (knots[-1] - knots[-2])
        else:
            t[j] = (waypoints[j + 1] - waypoints[j - 1]) / (knots[j + 1] - knots[j - 1])
    return t


def curve_pair_min_distance(c1, c2, num: int = 1000) -> float:
    _, p1 = c1.sample(num)
    _, p2 = c2.sample(num)
    d2 = (
        np.sum(p1**2, axis=1)[:, None]
        - 2.0 * p1 @ p2.T
        + np.sum(p2**2, axis=1)[None, :]
    )
    return float(np.sqrt(max(d2.min(), 0.0)))


def curve_self_min_distance(curve, num: int = 1000, arc_ratio: float = 0.3) -> float:
    """Minimum distance over self-approaching sample pairs.

    Points close along the curve are close in space for any regular curve, so
    only pairs whose chordal distance falls below arc_ratio times their
    arc-length separation count as approaches; inf if there are none.
    """
    s, p = curve.sample(num)
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    d2 = (
        np.sum(p**2, axis=1)[:, None] - 2.0 * p @ p.T + np.sum(p**2, axis=1)[None, :]
    )
    d = np.sqrt(np.maximum(d2, 0.0))
    gap = np.abs(arc[:, None] - arc[None, :])
    approach = d < arc_ratio * gap
    if not np.any(approach):
        return float("inf")
    return float(d[approach].min())


def build_paths(
    plan: WaypointPlan,
    mode: str,
    *,
    grid: SpatialGrid | None = None,
    seed: int = 0,
    collision_tol: float = 1e-9,
    max_perturbations: int = 50,
) -> list[SegmentCurve] | list[SplineCurve]:
    """Scratch curves through the plan's waypoints.

    line mode (two checkpoints, D >= 2): straight segments plus the temporal
    no-collision certificate -- any pair achieving simultaneous equal
    positions triggers a waypoint perturbation of at most h/10 and a recheck.
    spline mode (D = 3): clamped cubic Hermite curves, verified simple and
    pairwise separated by delta_path.
    """
    D = plan.positions.shape[2]
    if mode == "line":
        if plan.num_checkpoints != 2:
            raise GeometryError("line mode needs exactly two checkpoints")
        rng = np.random.default_rng(seed)
        pos = plan.positions.copy()
        h = float(np.max(grid.spacing)) if grid is not None else plan.delta_path / 4.0
        for _ in range(max_perturbations):
            colliding = None
            for i in range(plan.num_particles):
                for j in range(i + 1, plan.num_particles):
                    _, dist = linear_collision_parameter(
                        pos[i, 0], pos[i, 1], pos[j, 0], pos[j, 1]
                    )
                    if dist < collision_tol:
                        colliding = i
                        break
                if colliding is not None:
                    break
            if colliding is None:
                return [SegmentCurve(pos[l, 0], pos[l, 1]) for l in range(plan.num_particles)]
            pos[colliding, 0] += rng.uniform(-h / 10, h / 10, size=D)
        raise ConstructionError("collision unresolved after bounded perturbations")
    if mode == "spline":
        if D < 3:
            raise GeometryError("spline mode requires D >= 3")
        curves = []
        for l in range(plan.num_particles):
            wp = plan.positions[l]
            knots = _chord_knots(wp)
            curves.append(SplineCurve(knots, wp, catmull_rom_tangents(knots, wp)))
        verify_curve_family(curves, plan.delta_path)
        return curves
    raise GeometryError(f"unknown path mode {mode!r}")


def verify_curve_family(curves, delta_path: float, num: int = 1000) -> None:
    for i, c in enumerate(curves):
        if curve_self_min_distance(c, num) < delta_path / 2:
            raise ConstructionError(f"curve {i} self-approach below delta_path/2")
        s, _ = c.sample(64)
        if np.any(np.linalg.norm(c.deriv(s), axis=-1) < 1e-9):
            raise ConstructionError(f"curve {i} has a vanishing tangent")
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if curve_pair_min_distance(curves[i], curves[j], num) < delta_path:
                raise ConstructionError(f"curves {i},{j} closer than delta_path")


# ---------------------------------------------------------------------------
# momentum conditioning


def _ray_interval(partition: RegionPartition, k: int, direction: np.ndarray, margin: float, r_max: float):
    """Largest radius interval (r_lo, r_hi) with r*direction strictly inside
    region k (margin from the region boundary), capped at r_max; None if the
    ray misses the region interior."""
    rs = np.linspace(1e-6, r_max, 2048)
    pts = rs[:, None] * direction[None, :]
    inside = partition.interior_membership(pts, k, margin=margin)
    if not np.any(inside):
        return None
    idx = np.flatnonzero(inside)
    # first contiguous run
    run_end = idx[0]
    for i in idx[1:]:
        if i == run_end + 1:
            run_end = i
        else:
            break
    return float(rs[idx[0]]), float(rs[run_end])


def _region_rep_direction(partition: RegionPartition, k: int, p_clip: float) -> np.ndarray:
    boxes = _region_boxes_clipped(
        partition,
        k,
        -p_clip * np.ones(len(partition.regions[k - 1][0].lo)),
        p_clip * np.ones(len(partition.regions[k - 1][0].lo)),
    )
    if not boxes:
        raise ConditioningError(f"momentum region {k} empty within clip radius")
    lo, hi = max(boxes, key=lambda b: np.prod(b[1] - b[0]))
    c = (lo + hi) / 2.0
    if np.linalg.norm(c) < 1e-12:
        c = lo + 0.75 * (hi - lo)
    return c / np.linalg.norm(c)


def condition_momenta(
    curves: list[SplineCurve],
    momentum_partition: RegionPartition,
    counts: np.ndarray,
    mass: float,
    times: np.ndarray,
    *,
    seed: int = 0,
    p_scale: float = 2.0,
    p_margin: float = 0.05,
    delta_path: float | None = None,
) -> tuple[MomentumConditioning, list[SplineCurve]]:
    """Adjust knot tangents and choose speed multipliers so that the momenta
    m * c_{l,j} * dq/ds(s_j) realize the required per-region counts.

    Tangent directions are replaced only when the existing tangent ray misses
    its assigned momentum region; magnitudes are rescaled so every c_{l,j} is
    positive and compatible with a monotone timing interpolant.
    """
    rng = np.random.default_rng(seed)
    N = len(curves)
    counts = np.asarray(counts, dtype=np.int64)
    K = counts.shape[0]
    times = np.asarray(times, dtype=float)
    assignment = assign_itineraries(counts, N)
    p_clip = 8.0 * p_scale
    D = curves[0].ndim

    new_curves: list[SplineCurve] = []
    directions = np.zeros((N, K, D))
    speeds = np.zeros((N, K))
    radii = np.zeros((N, K))
    for l, curve in enumerate(curves):
        knots = curve.checkpoint_params
        if len(knots) != K:
            raise ConditioningError("curve checkpoint count mismatch")
        secants = np.diff(knots) / np.diff(times)
        chord = max(curve.length, 1e-9)
        tangents = np.array(curve.tangents, dtype=float)
        for j in range(K):
            k = int(assignment[l, j])
            u = tangents[j] / np.linalg.norm(tangents[j])
            interval = _ray_interval(momentum_partition, k, u, p_margin, p_clip)
            if interval is None:
                u = _region_rep_direction(momentum_partition, k, p_clip)
                u = u + rng.normal(scale=0.02, size=D)
                u /= np.linalg.norm(u)
                interval = _ray_interval(momentum_partition, k, u, p_margin, p_clip)
                if interval is None:
                    u = _region_rep_direction(momentum_partition, k, p_clip)
                    interval = _ray_interval(momentum_partition, k, u, p_margin, p_clip)
                if interval is None:
                    raise ConditioningError(f"no reachable direction for particle {l}, checkpoint {j}")
            r_lo, r_hi = interval
            r_pick = (r_lo + r_hi) / 2.0 if r_hi < 0.98 * p_clip else max(2.0 * r_lo, p_scale)
            dmin = secants[max(j - 1, 0) : j + 1].min() if K > 1 else 1.0
            c_target = float(dmin)
            g = r_pick / (mass * c_target)
            g_lo, g_hi = 0.2 * chord, 5.0 * chord
            g = float(np.clip(g, g_lo, g_hi))
            c = r_pick / (mass * g)
            if not 0.0 < c < 3.0 * dmin:
                # move the radius inside the region interval to fit the
                # monotone box with the clipped tangent magnitude
                r_need_lo = mass * g * 1e-3 * dmin
                r_need_hi = mass * g * 2.9 * dmin
                lo_eff = max(r_lo, r_need_lo)
                hi_eff = min(r_hi, r_need_hi)
                if lo_eff > hi_eff:
                    raise ConditioningError(
                        f"speed infeasible for particle {l}, checkpoint {j}"
                    )
                r_pick = (lo_eff + hi_eff) / 2.0
                c = r_pick / (mass * g)
            directions[l, j] = u
            speeds[l, j] = c
            radii[l, j] = r_pick
            tangents[j] = u * g
        new_curves.append(SplineCurve(knots, curve.waypoints, tangents))
    if delta_path is not None:
        verify_curve_family(new_curves, delta_path)
    cond = MomentumConditioning(
        directions=directions, speeds=speeds, radii=radii, assignment=assignment
    )
    return cond, new_curves


def recount_positions(curves, partition: RegionPartition) -> np.ndarray:
    """Counts (K, n) of checkpoint positions per region."""
    K = len(curves[0].checkpoint_params)
    counts = np.zeros((K, partition.n), dtype=np.int64)
    for c in curves:
        pts = c(c.checkpoint_params)
        labels = partition.labels_for(pts)
        for j, lab in enumerate(labels):
            counts[j, lab - 1] += 1
    return counts


def recount_momenta(curves, cond: MomentumConditioning, partition: RegionPartition, mass: float) -> np.ndarray:
    K = len(curves[0].checkpoint_params)
    counts = np.zeros((K, partition.n), dtype=np.int64)
    for l, c in enumerate(curves):
        dq = c.deriv(c.checkpoint_params)
        for j in range(K):
            p = mass * cond.speeds[l, j] * dq[j]
            lab = partition.labels_for(p[None, :])[0]
            counts[j, lab - 1] += 1
    return counts
