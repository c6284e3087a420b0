"""Point-set and curve constructions for the scratch pipelines.

Straight segments realize two-checkpoint itineraries in D >= 2; clamped
cubic Hermite splines through per-checkpoint waypoints realize multi-
checkpoint itineraries in D = 3, with knot tangents free for momentum
conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scratchsim.grid import RegionPartition, SpatialGrid

# Samples of a curve's range that the projection scan compares each point to
_SCAN_SAMPLES = 512
# Doubles in one block of the projection scan (512 KiB, 128 rows of 512
# samples), and rows in one block of a curve distance matrix. OpenBLAS
# splits a gemm over its threads from about 2^18 multiply-adds on, and its
# threads then spin for a while after each call; these blocks stay below
# that, so the products run on the calling thread alone.
_SCAN_BLOCK = 1 << 16
_DISTANCE_ROWS = 64
# Newton steps of a projection, at most
_NEWTON_ITERS = 8
# samples per curve of the separation checks, and the ratio of chord to arc
# length below which two samples of one curve count as an approach
_CURVE_SAMPLES = 1000
_ARC_RATIO = 0.3


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
        """Nearest parameter (clipped) and squared distance per point: the
        one-segment case of `SegmentFamily.project`."""
        s, _, f = SegmentFamily([self], s_lo, s_hi).project(points)
        return s[0], f[0]

    def sample(self, num: int, s_lo=0.0, s_hi=1.0):
        s = np.linspace(s_lo, s_hi, num)
        return s, self(s)


def _dots(u, v):
    """Row-wise dot products of u and v, each row one `u[i] @ v[i]`, so that
    they round as numpy's 1-D dot (and `np.linalg.norm`) does."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _row_blocks(start: int, stop: int, rows: int) -> list[int]:
    """Bounds of ceil(n / rows) blocks of rows start..stop, n = stop - start,
    equal to within one row.

    A matrix product's rows round the same whatever the block they are in,
    as long as it has two rows or more: a single row takes the matrix-vector
    path, which rounds differently. Equal blocks have two rows or more
    whenever n does.
    """
    n = stop - start
    if n <= rows:
        return [start, stop]
    nb = -(-n // rows)
    return [start + k * n // nb for k in range(nb + 1)]


def hermite_coefficients(x, y, dydx) -> np.ndarray:
    """Piece table of the cubic Hermite interpolant through values y with
    slopes dydx at increasing breakpoints x, continued linearly beyond them,
    shaped (6, len(x) + 1) + the shape of one value.

    Column 0 continues below x[0] along y[0] and dydx[0], columns 1 to
    len(x) - 1 are the cubics between consecutive breakpoints, and the last
    column continues above x[-1] along y[-1] and dydx[-1]. Per piece the rows
    are a3, a2, a1, a0 in descending powers of the offset from its left end,
    then the derivative's 3 a3 and 2 a2 (its constant term is a1); the
    continuations' a3, a2 and derivative rows are 0. The cubic columns are
    bit for bit scipy's `CubicHermiteSpline(x, y, dydx, axis=0).c` and the
    leading rows of its `.derivative().c`, which the tests hold them to; the
    package computes them itself so that it need not import
    `scipy.interpolate`. The rows are written in place, with two temporaries
    of one row each."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dydx = np.asarray(dydx, dtype=float)
    dx = np.diff(x)
    dx = dx.reshape(dx.shape + (1,) * (y.ndim - 1))
    c = np.zeros((6, x.size + 1) + y.shape[1:])
    c[2, 0], c[3, 0] = dydx[0], y[0]
    c[2, -1], c[3, -1] = dydx[-1], y[-1]
    a3, a2, a1, a0, b2, b1 = c[:, 1:-1]
    a1[...] = dydx[:-1]
    a0[...] = y[:-1]
    slope = np.subtract(y[1:], y[:-1], out=b2)
    slope /= dx
    t = np.add(dydx[:-1], dydx[1:], out=b1)
    t -= 2 * slope
    t /= dx
    np.subtract(slope, a1, out=a2)
    a2 /= dx
    a2 -= t
    np.divide(t, dx, out=a3)
    np.multiply(a3, 3.0, out=b2)
    np.multiply(a2, 2.0, out=b1)
    return c


def _piece_jet(table, x, order=2):
    """Value, first and second derivative from gathered piece-table rows
    (a3, a2, a1, a0, 3 a3, 2 a2) at offsets x from the pieces' left ends,
    each summed in ascending powers as scipy's `PPoly` sums it, so that on a
    cubic piece each is bit for bit that of the `PPoly`, its `.derivative()`
    and its `.derivative(2)`; with `order` 1, the value and first derivative
    alone. Those two are summed side by side, one operation on two rows per
    term: 0 + a1 and 0 + a0, + b1 x and + a1 x, + b2 x^2 and + a2 x^2."""
    xx = x * x
    low = 0.0 + table[2:4]
    low += table[5::-3] * x
    low += table[4::-3] * xx
    value = low[1] + table[0] * (xx * x)
    if order == 1:
        return value, low[0]
    return value, low[0], 0.0 + table[5] + 2.0 * table[4] * x


class HermiteSpline:
    """Cubic Hermite spline through values y, scalars or vectors, with
    slopes dydx at increasing breakpoints x, continued linearly beyond x[0]
    and x[-1] along the end values and slopes; at x[-1] itself it is the
    last cubic. Its table is `hermite_coefficients(x, y, dydx)`; on
    [x[0], x[-1]] every value and derivative is scipy's
    `CubicHermiteSpline(x, y, dydx, axis=0)`'s bit for bit.

    t lies in table column i, the number of breakpoints at or below t less
    one at x[-1] itself; the column's offsets start at x[max(i - 1, 0)].
    """

    def __init__(self, x, y, dydx):
        self.x = np.asarray(x, dtype=float)
        self.coef = hermite_coefficients(self.x, y, dydx)

    def jet(self, t, order=2):
        """Value, first and second derivative at t, each shaped t.shape + the
        shape of one value; with `order` 1 the value and first derivative
        alone, bit for bit the same."""
        t = np.asarray(t, dtype=float)
        i = self.x.searchsorted(t, side="right") - (t == self.x[-1])
        x = t - self.x.take(np.maximum(i - 1, 0))
        return _piece_jet(
            self.coef.take(i, 1), x.reshape(x.shape + (1,) * (self.coef.ndim - 2)), order
        )

    def __call__(self, t):
        return self.jet(t)[0]

    def deriv(self, t):
        return self.jet(t)[1]


class SegmentFamily:
    """Straight segments stacked for projection in one pass.

    Segment l is a_l + s (b_l - a_l), with the nearest parameter clipped to
    [s_lo_l, s_hi_l]; s_lo and s_hi are scalars or one entry per segment.
    """

    def __init__(self, segments, s_lo, s_hi):
        self.a = np.stack([c.a for c in segments])
        self.d = np.stack([c.b - c.a for c in segments])
        self.dd = _dots(self.d, self.d)
        L = len(segments)
        self.s_lo = np.broadcast_to(np.asarray(s_lo, dtype=float), (L,))[:, None]
        self.s_hi = np.broadcast_to(np.asarray(s_hi, dtype=float), (L,))[:, None]

    def project(self, points):
        """Nearest parameters s (L, M), residuals q - c(s) (L, D, M) and
        squared distances (L, M) of points (M, D) to every segment.

        The residuals are stored component-major, so that every elementwise
        operation runs along the points.
        """
        pts = np.ascontiguousarray(np.atleast_2d(points).T)
        a = self.a[:, :, None]
        # one vector-matrix product per segment: each point's parameter
        # rounds as in `(points - a) @ d` for the segment alone
        s = (self.d[:, None, :] @ (pts - a))[:, 0, :]
        s /= self.dd[:, None]
        np.clip(s, self.s_lo, self.s_hi, out=s)
        r = s[:, None, :] * self.d[:, :, None]
        r += a
        np.subtract(pts, r, out=r)
        return s, r, np.einsum("ldm,ldm->lm", r, r)


class SplineCurve(HermiteSpline):
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
        super().__init__(self.knots, self.waypoints, self.tangents)

    @property
    def ndim(self) -> int:
        return self.waypoints.shape[1]

    @property
    def checkpoint_params(self) -> np.ndarray:
        return self.knots

    @property
    def length(self) -> float:
        s, pts = self.sample(2048)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    def sample(self, num: int, s_lo=0.0, s_hi=1.0):
        s = np.linspace(s_lo, s_hi, num)
        return s, self(s)

    def project(self, points, s_lo=0.0, s_hi=1.0):
        """Nearest parameter in [s_lo, s_hi] and squared distance per point
        (see `project_jet`)."""
        s, f, _ = self.project_jet(points, s_lo, s_hi)
        return s, f

    def project_jet(self, points, s_lo=0.0, s_hi=1.0):
        """Nearest parameter in [s_lo, s_hi], squared distance and the jet
        (position, first and second derivative) at that parameter, per point:
        the one-curve case of `SplineFamily.project`."""
        return SplineFamily([self], s_lo, s_hi).project(points)


def _hull_corners(curve, s_lo: float, s_hi: float) -> np.ndarray:
    """Points whose convex hull holds the curve over [s_lo, s_hi]: the
    Bezier control points of every cubic piece and the far ends of the
    linear continuations."""
    y, m = curve.waypoints, curve.tangents
    w = np.diff(curve.knots)[:, None] / 3.0
    return np.concatenate(
        [
            y,
            y[:-1] + w * m[:-1],
            y[1:] - w * m[1:],
            [y[0] + min(s_lo, 0.0) * m[0], y[-1] + max(s_hi - 1.0, 0.0) * m[-1]],
        ]
    )


class SplineFamily:
    """Spline curves stacked for projection in one pass.

    Curve l's nearest parameter is searched over [s_lo_l, s_hi_l]; s_lo and
    s_hi are scalars or one entry per curve. The piece tables and knots are
    padded to the longest curve, so that one gather gives the jets of any set
    of (curve, parameter) pairs, each bit for bit as `SplineCurve.jet` gives
    it. Each curve has a box, grown by `reach`, that `near` tests points
    against.
    """

    def __init__(self, curves, s_lo=0.0, s_hi=1.0, reach=0.0):
        L = len(curves)
        self.s_lo = np.broadcast_to(np.asarray(s_lo, dtype=float), (L,)).copy()
        self.s_hi = np.broadcast_to(np.asarray(s_hi, dtype=float), (L,)).copy()
        # per curve its range and Newton's stop tolerance, 4 ulps of the
        # range's magnitude, for one gather per pair
        tol = 4.0 * np.finfo(float).eps * np.maximum(
            np.maximum(np.abs(self.s_lo), np.abs(self.s_hi)), 1.0
        )
        self._bounds = np.stack([self.s_lo, self.s_hi, tol])
        # A parameter lies in column (knots at or below it) of its curve's
        # table, as in `HermiteSpline`: the last knot is one ulp up, so that
        # the curve's end lies in the last cubic, and padding knots are +inf,
        # at least one per curve, so that the count is the first knot above.
        # Curve l's columns start at l * (K + 1). A column holds the offsets'
        # origin and `_piece_jet`'s terms with its leading 0.0 + and its
        # 2.0 * b2 done, in the order `_jet` takes them in slices: origin,
        # a3, 0, b2, a2, 0 + b1, 0 + a1, 0 + a0, 2 b2, 0 + b1, 0 + a1.
        # 0.0 + only turns -0.0 into 0.0, after which a0 + a1 x and a1 + b1 x
        # round alike for either zero, so the jets keep every bit.
        K = max(c.knots.size for c in curves)
        self._knots = np.full((L, K + 1), np.inf)
        self._stride = K + 1
        self._rows = np.zeros((11, L * self._stride, curves[0].ndim))
        for l, c in enumerate(curves):
            k = c.knots.size
            self._knots[l, :k] = c.knots
            self._knots[l, k - 1] = np.nextafter(c.knots[-1], np.inf)
            a3, a2, a1, a0, b2, b1 = c.coef
            rows = self._rows[:, l * self._stride :][:, : k + 1]
            rows[0] = c.knots[np.maximum(np.arange(k + 1) - 1, 0)][:, None]
            rows[1], rows[3], rows[4] = a3, b2, a2
            rows[5:] = 0.0 + b1, 0.0 + a1, 0.0 + a0, 2.0 * b2, 0.0 + b1, 0.0 + a1
        samples = [
            c.sample(_SCAN_SAMPLES, lo, hi) for c, lo, hi in zip(curves, self.s_lo, self.s_hi)
        ]
        # stacked, curve l's samples from l * S on; the transposed samples
        # are scaled by -2, which is exact, for the scan's q . (-2 c)
        self._scan_s = np.concatenate([s for s, _ in samples])  # (L S,)
        self._scan_pts = np.concatenate([pts for _, pts in samples])  # (L S, D)
        self._scan_pts_t = np.stack([-2.0 * pts.T for _, pts in samples])  # (L, D, S)
        self._scan_norm2 = np.stack([np.einsum("ij,ij->i", pts, pts) for _, pts in samples])
        # every point farther than `reach` from the box is farther than
        # `reach` from the curve, also as the projection rounds: the box is
        # grown by a further 1e-9 of its scale
        corners = [_hull_corners(c, lo, hi) for c, lo, hi in zip(curves, self.s_lo, self.s_hi)]
        lo = np.stack([p.min(axis=0) for p in corners])
        hi = np.stack([p.max(axis=0) for p in corners])
        pad = reach + 1e-9 * (reach + max(np.max(np.abs(lo)), np.max(np.abs(hi))))
        self.box_lo = (lo - pad)[:, None, :]
        self.box_hi = (hi + pad)[:, None, :]

    def near(self, points) -> np.ndarray:
        """(L, M) mask of the (curve, point) pairs whose point lies in the
        curve's box: every other point is farther than `reach` from the
        curve over its range."""
        inside = points >= self.box_lo
        inside &= points <= self.box_hi
        return inside.all(axis=2)

    def _jet(self, rows, knots, s, q):
        """c(s) (P, D) and, stacked (3, P, D), c''(s), c'(s) and q - c(s), for
        the curves whose tables start at column `rows` and whose knots are
        `knots`: `HermiteSpline`'s piece and `_piece_jet`'s sums, one
        operation on a slice of columns per term. c'' gets + 0 x^2 with the
        others' x^2 terms, which changes no bit: 0.0 + b1 is never -0.0, so
        neither is c''."""
        s = s[:, None]
        t = self._rows.take(rows + (knots <= s).argmin(axis=1), 1)
        x = s - t[0]
        xx = x * x
        jet = t[5:8] + t[8:] * x
        jet += t[2:5] * xx
        c = jet[2] + t[1] * (xx * x)
        np.subtract(q, c, out=jet[2])
        return c, jet

    def _scan(self, cl, q):
        """Index of each pair's nearest sample among its curve's 512 scan
        samples, counted in the stacked samples of every curve, the pairs
        sorted by curve."""
        j = np.empty(cl.size, dtype=np.intp)
        S = self._scan_norm2.shape[1]
        L = self.s_lo.size
        bounds = [0, cl.size] if L == 1 else cl.searchsorted(np.arange(L + 1)).tolist()
        for l, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            if start == stop:
                continue
            pts_t, norm2 = self._scan_pts_t[l], self._scan_norm2[l]
            cuts = _row_blocks(start, stop, _SCAN_BLOCK // S)
            for a, b in zip(cuts[:-1], cuts[1:]):
                # |q - c|^2 less its per-point constant |q|^2; a lone row is
                # doubled, so that it rounds as it would in any larger block
                d2 = (q[a:b] if b - a > 1 else q[a:b].repeat(2, 0)) @ pts_t
                d2 += norm2
                j[a:b] = d2.argmin(axis=1)[: b - a]
                if l:
                    j[a:b] += l * S
        return j

    def _newton(self, cl, q, s, lo, hi, tol):
        """Newton steps on g(s) = (q - c(s)) . c'(s), each clipped to 0.1 and
        to the range, from s for every pair, _NEWTON_ITERS at most. A pair
        stops at the first iterate from which its step would move it by at
        most 4 ulps of its range's magnitude; a pair still moving after the
        last step keeps its last iterate. Returns per pair that iterate s
        (P,), the squared distance f = r.r (P,) of its residual r = q - c,
        its jet (c, dc, d2c), each (P, D), r (P, D) and -g' = c'.c' - r.c''
        (P,), the step's divisor.

        A stopped pair takes every later step from the same iterate, so it
        stays stopped, and each pair's result does not depend on the others.
        `lo`, `hi` and `tol` are the pairs' ranges and stop tolerances.
        """
        knots = self._knots.take(cl, 0)
        rows = cl * self._stride
        for it in range(_NEWTON_ITERS + 1):
            c, J = self._jet(rows, knots, s, q)
            # c' and r dotted with c'', c' and r in one product, each row
            # summed as in a product of its own; indexed, not unpacked
            dots = np.einsum("kij,lij->kli", J[1:], J)
            ngp = dots[0, 1] - dots[1, 0]
            if it == _NEWTON_ITERS:
                break
            # the step -g / g' is g / -g' to the bit, and -g / inf is g / -inf
            step = dots[1, 1] / np.where(np.abs(ngp) > 1e-30, ngp, -np.inf)
            step = np.minimum(np.maximum(step, -0.1), 0.1)
            s_new = np.minimum(np.maximum(s + step, lo), hi)
            moving = np.abs(s_new - s) > tol
            count = np.count_nonzero(moving)
            if not count:
                break
            s = s_new if count == s.size else np.where(moving, s_new, s)
        return s, dots[1, 2], (c, J[1], J[0]), J[2], ngp

    def project(self, points, pairs=None, s_start=None):
        """Nearest parameter, squared distance and jet (position, first and
        second derivative) of (curve, point) pairs: the first three results
        of `locate`."""
        return self.locate(points, pairs, s_start)[:3]

    def locate(self, points, pairs=None, s_start=None):
        """Nearest parameter and squared distance of (curve, point) pairs,
        with what `_newton` computed at the iterate it returns.

        `pairs` holds curve and point indices, sorted by curve; every pair by
        default, curve-major. A scan over 512 samples of the curve's range
        gives each pair's start, and `_newton` refines it in _NEWTON_ITERS
        steps at most. With `s_start`, one start per pair (nan for none),
        Newton starts there instead, and a pair that ends farther from its
        point than the scan's nearest sample starts again from that sample,
        so that no result is worse than the scan.
        Returns s (P,), f = r.r (P,), the jet as three (P, D) arrays, the
        residual r = q - c(s) (P, D) and -g' = c'.c' - r.c'' (P,), g = r.c'
        being the function whose root Newton seeks.
        """
        points = np.atleast_2d(points)
        if pairs is None:
            L, M = self.s_lo.size, points.shape[0]
            pairs = (np.repeat(np.arange(L), M), np.tile(np.arange(M), L))
        cl, pm = pairs
        q = points.take(pm, 0)
        bounds = self._bounds.take(cl, 1)
        lo, hi, tol = bounds[0], bounds[1], bounds[2]
        j = self._scan(cl, q)
        s_scan = self._scan_s.take(j)
        # the scan samples lie in [lo, hi], so a start from the scan needs no clip
        if s_start is not None:
            warm = s_start == s_start  # not nan
            s_start = np.minimum(np.maximum(np.where(warm, s_start, s_scan), lo), hi)
        s, f, jet, r, ngp = self._newton(cl, q, s_scan if s_start is None else s_start, lo, hi, tol)
        if s_start is None:
            return s, f, jet, r, ngp
        to_sample = q - self._scan_pts.take(j, 0)
        back = (warm & (f > np.einsum("ij,ij->i", to_sample, to_sample))).nonzero()[0]
        if back.size:
            s_b, f_b, jet_b, r_b, ngp_b = self._newton(
                cl[back], q[back], s_scan[back], lo[back], hi[back], tol[back]
            )
            for part, part_b in zip((s, f, *jet, r, ngp), (s_b, f_b, *jet_b, r_b, ngp_b)):
                part[back] = part_b
        return s, f, jet, r, ngp


# ---------------------------------------------------------------------------
# itineraries and waypoints


@dataclass
class WaypointPlan:
    positions: np.ndarray  # (N, K, D)
    delta_path: float

    @property
    def num_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def num_checkpoints(self) -> int:
        return self.positions.shape[1]


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


def _norms(v):
    """`np.linalg.norm` of each row of v, with its rounding."""
    return np.sqrt(_dots(v, v))


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
    delta_path: float | None = None,
) -> WaypointPlan:
    """Rejection-sample per-particle per-checkpoint positions, with at most
    4000 candidates per waypoint.

    Every waypoint is strictly interior to its assigned region (a margin of
    one grid spacing h from the region and domain boundaries); same-
    checkpoint waypoints, and a particle's consecutive waypoints, keep
    pairwise clearance delta_path, 4 h unless given.
    """
    rng = np.random.default_rng(seed)
    N, K = assignment.shape
    D = grid.ndim
    h = margin = float(np.max(grid.spacing))
    delta_path = 4.0 * h if delta_path is None else delta_path

    region_boxes = {}
    for k in range(1, partition.n + 1):
        boxes = _region_boxes_clipped(partition, k, grid.lo, grid.hi)
        boxes = [(lo, hi) for lo, hi in boxes if np.all(hi - lo > 2 * margin)]
        if not boxes:
            raise CapacityError(f"region {k} has no interior volume at margin {margin}")
        vols = np.array([np.prod(hi - lo - 2 * margin) for lo, hi in boxes])
        region_boxes[k] = (boxes, vols / vols.sum())

    positions = np.zeros((N, K, D))
    for l in range(N):
        for j in range(K):
            k = int(assignment[l, j])
            boxes, weights = region_boxes[k]
            same_t = positions[:l, j]
            for _ in range(4000):
                bi = rng.choice(len(boxes), p=weights)
                lo, hi = boxes[bi]
                z = rng.uniform(lo + margin, hi - margin)
                if not partition.interior_membership(z[None, :], k, margin=0.0)[0]:
                    continue
                if np.any(_norms(z - same_t) < delta_path):
                    continue
                if j > 0 and np.linalg.norm(z - positions[l, j - 1]) < delta_path:
                    continue
                positions[l, j] = z
                break
            else:
                raise CapacityError(
                    f"could not place waypoint for particle {l}, checkpoint {j}; "
                    "reduce N or the clearances"
                )
    return WaypointPlan(positions=positions, delta_path=delta_path)


# ---------------------------------------------------------------------------
# path construction


def _collision_distances(p1, p2):
    """Closest-approach distance of each pair of rows of p1 and p2, (P, 2, D)
    start and end points of two particles moving linearly over a common unit
    time: |d0 + t v| for the offset d0 at t = 0, the relative velocity v, and
    t the minimizer clipped to [0, 1], or 0 where |v|^2 < 1e-300."""
    d0 = p1[:, 0] - p2[:, 0]
    v = (p1[:, 1] - p2[:, 1]) - d0
    vv = _dots(v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-_dots(d0, v) / vv, 0.0, 1.0)
    t[vv < 1e-300] = 0.0
    return _norms(d0 + t[:, None] * v)


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


def curve_pair_min_distance(c1, c2) -> float:
    """Smallest distance between _CURVE_SAMPLES samples of each curve."""
    _, p1 = c1.sample(_CURVE_SAMPLES)
    _, p2 = c2.sample(_CURVE_SAMPLES)
    n1 = np.sum(p1**2, axis=1)[:, None]
    n2 = np.sum(p2**2, axis=1)[None, :]
    best = np.inf
    cuts = _row_blocks(0, _CURVE_SAMPLES, _DISTANCE_ROWS)
    for a, b in zip(cuts[:-1], cuts[1:]):
        d2 = n1[a:b] - 2.0 * p1[a:b] @ p2.T + n2
        best = min(best, d2.min())
    return float(np.sqrt(max(best, 0.0)))


def curve_self_min_distance(curve) -> float:
    """Minimum distance over self-approaching pairs of _CURVE_SAMPLES samples.

    Points close along the curve are close in space for any regular curve, so
    only pairs whose chordal distance falls below _ARC_RATIO times their
    arc-length separation count as approaches; inf if there are none.
    """
    s, p = curve.sample(_CURVE_SAMPLES)
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    n2 = np.sum(p**2, axis=1)
    best = np.inf
    cuts = _row_blocks(0, _CURVE_SAMPLES, _DISTANCE_ROWS)
    for a, b in zip(cuts[:-1], cuts[1:]):
        d2 = n2[a:b, None] - 2.0 * p[a:b] @ p.T + n2[None, :]
        d = np.sqrt(np.maximum(d2, 0.0))
        approach = d < _ARC_RATIO * np.abs(arc[a:b, None] - arc[None, :])
        if np.any(approach):
            best = min(best, d[approach].min())
    return float(best)


def build_paths(
    plan: WaypointPlan,
    kind: str,
    *,
    grid: SpatialGrid,
    seed: int,
) -> list[SegmentCurve] | list[SplineCurve]:
    """Scratch curves through the plan's waypoints, of the given kind:
    "line" (`SegmentCurve.kind`) or "spline" (`SplineCurve.kind`).

    line (two checkpoints, D >= 2): straight segments plus the temporal
    no-collision certificate -- any pair coming within 1e-9 at one time
    triggers a waypoint perturbation of at most h/10, h the grid's largest
    spacing, and a recheck, at most 50 times.
    spline (D >= 3): clamped cubic Hermite curves with Catmull-Rom
    tangents, which `condition_momenta` replaces and then verifies.
    """
    D = plan.positions.shape[2]
    if kind == SplineCurve.kind:
        if D < 3:
            raise GeometryError("spline curves require D >= 3")
        curves = []
        for wp in plan.positions:
            knots = _chord_knots(wp)
            curves.append(SplineCurve(knots, wp, catmull_rom_tangents(knots, wp)))
        return curves
    if kind != SegmentCurve.kind:
        raise GeometryError(f"unknown curve kind {kind!r}")
    if plan.num_checkpoints != 2:
        raise GeometryError("line curves need exactly two checkpoints")
    rng = np.random.default_rng(seed)
    pos = plan.positions.copy()
    h = float(np.max(grid.spacing))
    i1, i2 = np.triu_indices(plan.num_particles, 1)
    for _ in range(50):
        colliding = np.flatnonzero(_collision_distances(pos[i1], pos[i2]) < 1e-9)
        if colliding.size == 0:
            return [SegmentCurve(pos[l, 0], pos[l, 1]) for l in range(plan.num_particles)]
        pos[i1[colliding[0]], 0] += rng.uniform(-h / 10, h / 10, size=D)
    raise ConstructionError("collision unresolved after bounded perturbations")


def verify_curve_family(curves, delta_path: float) -> None:
    for i, c in enumerate(curves):
        if curve_self_min_distance(c) < delta_path / 2:
            raise ConstructionError(f"curve {i} self-approach below delta_path/2")
        s, _ = c.sample(64)
        if np.any(np.linalg.norm(c.deriv(s), axis=-1) < 1e-9):
            raise ConstructionError(f"curve {i} has a vanishing tangent")
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if curve_pair_min_distance(curves[i], curves[j]) < delta_path:
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


def adjacent_secant_min(params, times) -> np.ndarray:
    """Per checkpoint j, the smallest of the secants (s_i - s_(i-1)) /
    (t_i - t_(i-1)) of the intervals next to it: a cubic Hermite timing
    s(t) through the checkpoints is monotone if each slope c_j lies in
    (0, 3 * this] (Fritsch & Carlson's sufficient box)."""
    secants = np.diff(np.asarray(params, dtype=float)) / np.diff(np.asarray(times, dtype=float))
    return np.array([secants[max(j - 1, 0) : j + 1].min() for j in range(secants.size + 1)])


def condition_momenta(
    curves: list[SplineCurve],
    momentum_partition: RegionPartition,
    counts: np.ndarray,
    mass: float,
    times: np.ndarray,
    *,
    seed: int,
    delta_path: float,
) -> tuple[np.ndarray, list[SplineCurve]]:
    """Adjust knot tangents and choose speed multipliers so that the momenta
    m * c_{l,j} * dq/ds(s_j) realize the required per-region counts; returns
    the multipliers c, (N, K), and the conditioned curves.

    Tangent directions are replaced only when the existing tangent ray misses
    its assigned momentum region; magnitudes are rescaled so every c_{l,j} is
    positive and compatible with a monotone timing interpolant. Momenta are
    sought within |p| <= 8 and 0.3 inside their region. The conditioned
    curves are verified simple and pairwise separated by `delta_path`
    (`verify_curve_family`).
    """
    rng = np.random.default_rng(seed)
    N = len(curves)
    counts = np.asarray(counts, dtype=np.int64)
    K = counts.shape[0]
    times = np.asarray(times, dtype=float)
    assignment = assign_itineraries(counts, N)
    p_clip, p_margin = 8.0, 0.3
    D = curves[0].ndim

    new_curves: list[SplineCurve] = []
    speeds = np.zeros((N, K))
    for l, curve in enumerate(curves):
        knots = curve.checkpoint_params
        if len(knots) != K:
            raise ConditioningError("curve checkpoint count mismatch")
        dmins = adjacent_secant_min(knots, times)
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
            r_pick = (r_lo + r_hi) / 2.0 if r_hi < 0.98 * p_clip else max(2.0 * r_lo, 1.0)
            dmin = dmins[j]
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
            speeds[l, j] = c
            tangents[j] = u * g
        new_curves.append(SplineCurve(knots, curve.waypoints, tangents))
    verify_curve_family(new_curves, delta_path)
    return speeds, new_curves


def recount_positions(curves, partition: RegionPartition) -> np.ndarray:
    """Counts (K, n) of checkpoint positions per region."""
    pts = np.stack([c(c.checkpoint_params) for c in curves])  # (N, K, D)
    return np.stack([partition.counts(pts[:, j]) for j in range(pts.shape[1])])


def recount_momenta(curves, speeds: np.ndarray, partition: RegionPartition, mass: float) -> np.ndarray:
    """Counts (K, n) of checkpoint momenta m * c_(l,j) * q_l'(s_j) per region,
    speeds[l, j] = c_(l,j)."""
    dq = np.stack([c.deriv(c.checkpoint_params) for c in curves])  # (N, K, D)
    p = mass * speeds[:, :, None] * dq
    return np.stack([partition.counts(p[:, j]) for j in range(p.shape[1])])
