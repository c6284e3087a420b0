"""Scratched potentials and tangential drive potentials.

A scratch profile is the squared Euclidean distance to a regular simple
curve: it vanishes with its gradient exactly on the curve, and its on-curve
Hessian is 2*(I - t t^T) (one zero eigenvalue along the tangent, D-1
eigenvalues equal to 2). The scratched potential

    U_lam(q) = U(q) * prod_l (1 - exp(-lam * f_l(q)))
               + sum_l V_l(sigma_l(q)) * exp(-lam * f_l(q))

coincides with U outside tubes of width ~lam^(-1/2) around the curves and
equals V_l (or zero) on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve, solve_banded

from scratchsim.geometry import (
    SegmentFamily,
    SplineFamily,
    adjacent_secant_min,
    hermite_coefficients,
)

_SAMPLE_PAIRS = 1 << 13  # (scratch, point) pairs per block of `sample`


class ScratchError(ValueError):
    pass


class InfeasibleTimingError(ScratchError):
    """Requested checkpoint speeds admit no monotone timing interpolant."""


@dataclass
class TimingConditions:
    """Target curve parameters and parameter speeds at the checkpoint times."""

    times: np.ndarray  # t_j, strictly increasing
    params: np.ndarray  # s_j, strictly increasing, s_1 = 0, s_K = 1
    speeds: np.ndarray  # c_j = ds/dt at t_j, all positive

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.params = np.asarray(self.params, dtype=float)
        self.speeds = np.asarray(self.speeds, dtype=float)
        if np.any(np.diff(self.times) <= 0) or np.any(np.diff(self.params) <= 0):
            raise ScratchError("times and parameters must be strictly increasing")
        if np.any(self.speeds <= 0):
            raise ScratchError("checkpoint speeds must be positive")


class ScratchProfile:
    """A scratch's curve, with the parameter range [-extension, 1 + extension]
    of its nearest-parameter map and the snap threshold of its squared
    distance."""

    def __init__(self, curve, tube_radius: float, extension: float | None = None):
        self.curve = curve
        self.tube_radius = float(tube_radius)
        # parameter-space extension past [0, 1] so tube ends carry no
        # spurious tangential force near the checkpoints
        if extension is None:
            end_speed = min(
                np.linalg.norm(curve.deriv(np.array([0.0]))[0]),
                np.linalg.norm(curve.deriv(np.array([1.0]))[0]),
            )
            extension = 3.0 * self.tube_radius / max(end_speed, 1e-9)
        self.extension = float(extension)
        # snap threshold: points this close are treated as exactly on-curve
        self.snap_f = (1e-9 * max(curve.length, 1.0)) ** 2


class PiecewiseCubic:
    """Scalar piecewise cubic on increasing breakpoints x, with coefficients
    c shaped (4, len(x) - 1) in scipy's `PPoly` layout (see
    `hermite_coefficients`); the end pieces continue beyond [x[0], x[-1]].

    Values and first derivatives are summed in ascending powers, as `PPoly`
    sums them, from the coefficients of the cubic and of its derivative as
    `PPoly.derivative` forms them, so that both are `PPoly`'s bit for bit.
    """

    def __init__(self, x, c):
        self.x = np.asarray(x, dtype=float)
        self._coef = np.concatenate([c, [3.0 * c[0], 2.0 * c[1], c[2]]])
        self._inner = self.x[1:-1]

    def _local(self, t):
        """Coefficient rows and offset into its piece of t."""
        i = np.searchsorted(self._inner, t, side="right")
        return self._coef[:, i], t - self.x[i]

    def jet(self, t):
        """Value and first derivative at t, from one search."""
        (a3, a2, a1, a0, b2, b1, b0), x = self._local(np.asarray(t, dtype=float))
        xx = x * x
        return 0.0 + a0 + a1 * x + a2 * xx + a3 * (xx * x), 0.0 + b0 + b1 * x + b2 * xx

    def __call__(self, t):
        return self.jet(t)[0]

    def deriv(self, t):
        (_, _, _, _, b2, b1, b0), x = self._local(np.asarray(t, dtype=float))
        return 0.0 + b0 + b1 * x + b2 * (x * x)


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slopes at x of the not-a-knot cubic spline through (x, y), y 1-D: the
    ones scipy's `CubicSpline(x, y)` solves for, bit for bit, by the same
    system, expressions and solver calls. Two points give the chord and
    three the parabola, as in scipy."""
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if n == 2:
        return np.array([slope[0], slope[0]])
    if n == 3:
        A = np.zeros((3, 3))
        A[0, 0] = 1
        A[0, 1] = 1
        A[1, 0] = dx[1]
        A[1, 1] = 2 * (dx[0] + dx[1])
        A[1, 2] = dx[0]
        A[2, 1] = 1
        A[2, 2] = 1
        b = np.array(
            [2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]]
        )
        return solve(
            A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True, check_finite=False
        ).reshape(3)
    # tridiagonal system in banded storage: upper, main and lower diagonal
    A = np.zeros((3, n))
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot at both ends: the third derivative is continuous across the
    # second and the second-to-last breakpoint
    d = x[2] - x[0]
    A[1, 0] = dx[1]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1] = dx[-2]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return solve_banded(
        (1, 1), A, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True, check_finite=False
    ).reshape(n)


class TangentialPotential:
    """V(s) as the not-a-knot cubic spline through samples on [0, 1]; C1
    linear continuation outside [0, 1] (a slope discontinuity at the curve
    ends would break energy conservation for particles oscillating around a
    checkpoint there)."""

    def __init__(self, s_samples: np.ndarray, v_samples: np.ndarray):
        self.s_samples = np.asarray(s_samples, dtype=float)
        self.v_samples = np.asarray(v_samples, dtype=float)
        s, v = self.s_samples, self.v_samples
        if not (
            s.ndim == 1 and s.shape == v.shape and s.size >= 2
            and np.all(np.isfinite(s)) and np.all(np.isfinite(v)) and np.all(np.diff(s) > 0)
        ):
            raise ScratchError("need two or more finite samples at strictly increasing s")
        self._spline = PiecewiseCubic(s, hermite_coefficients(s, v, _not_a_knot_slopes(s, v)))
        self._end_slopes = self._spline.deriv(np.array([0.0, 1.0]))

    def jet(self, s):
        """V and V' at s, in one pass: V continued linearly outside [0, 1],
        V' held at its end values there."""
        s = np.asarray(s, dtype=float)
        v, dv = self._spline.jet(np.minimum(np.maximum(s, 0.0), 1.0))
        below = np.minimum(s, 0.0)
        above = np.maximum(s - 1.0, 0.0)
        return v + below * self._end_slopes[0] + above * self._end_slopes[1], dv

    def __call__(self, s):
        return self.jet(s)[0]

    def deriv(self, s):
        return self._spline.deriv(np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), 1.0))


class ScratchedPotential:
    """Base potential with N scratches and optional tangential potentials.

    `eval` treats all scratches at once, on (scratch, point) arrays: the
    straight scratches are projected together in one pass, and so are the
    spline scratches, each only on the points in its box grown by the tube
    radius (`SplineFamily.near`). A point outside a scratch's box is outside its
    tube, where the scratch's factor is exactly 1, so the box changes no bit.
    """

    def __init__(
        self,
        base,
        curves,
        lam: float,
        tangential: list[TangentialPotential | None] | None = None,
    ):
        if lam <= 0:
            raise ScratchError("lambda must be positive")
        self.base = base
        self.lam = float(lam)
        # flush e^{-lam f} to zero beyond R_tube with R_tube^2 = 40/lam
        # (relative error below e^-40)
        self.tube_radius = float(np.sqrt(40.0 / self.lam))
        self.profiles = [ScratchProfile(c, self.tube_radius) for c in curves]
        if tangential is None:
            tangential = [None] * len(self.profiles)
        if len(tangential) != len(self.profiles):
            raise ScratchError("one tangential potential slot per scratch required")
        self.tangential = tangential
        self._lines = [l for l, p in enumerate(self.profiles) if p.curve.kind == "line"]
        self._splines = [l for l, p in enumerate(self.profiles) if p.curve.kind != "line"]
        self._segments = None
        if self._lines:
            line_profiles = [self.profiles[l] for l in self._lines]
            self._segments = SegmentFamily(
                [p.curve for p in line_profiles],
                [-p.extension for p in line_profiles],
                [1.0 + p.extension for p in line_profiles],
            )
        self._family = None
        if self._splines:
            spline_profiles = [self.profiles[l] for l in self._splines]
            self._family = SplineFamily(
                [p.curve for p in spline_profiles],
                [-p.extension for p in spline_profiles],
                [1.0 + p.extension for p in spline_profiles],
                reach=self.tube_radius,
            )
            self._spline_rows = np.array(self._splines)
        self._snap_f = np.array([[p.snap_f] for p in self.profiles])
        self._driven = [l for l, v in enumerate(tangential) if v is not None]

    @property
    def num_scratches(self) -> int:
        return len(self.profiles)

    def _nearest(self, points: np.ndarray, own: bool = False, s_warm=None):
        """Every scratch against every point: nearest parameters s (N, M),
        squared distances f (N, M), zero below each profile's snap threshold,
        residuals q - c(s) stored component-major (N, D, M), and per spline
        scratch l the first and second derivative at s, jets[l] = (dc, d2c),
        each (M, D).

        A spline scratch projects only the points in its box, and with `own`
        also point l onto scratch l; its other pairs get s = nan, f = inf and
        zero residuals and derivatives. `s_warm` (N, M), if given, holds a
        start for each pair's Newton iteration (nan for none) and receives s.
        """
        M, D = points.shape
        s = np.empty((self.num_scratches, M))
        f = np.empty((self.num_scratches, M))
        r = np.empty((self.num_scratches, D, M))
        if self._segments is not None:
            s[self._lines], r[self._lines], f[self._lines] = self._segments.project(points)
        jets = {}
        if self._family is not None:
            rows = self._spline_rows
            near = self._family.near(points)
            if own:
                near[np.arange(rows.size), rows] = True
            cl, pm = np.nonzero(near)
            pair_rows = rows[cl]
            start = None if s_warm is None else s_warm[pair_rows, pm]
            sp, fp, (c, dc, d2c) = self._family.project(points, (cl, pm), start)
            s[rows], f[rows], r[rows] = np.nan, np.inf, 0.0
            s[pair_rows, pm] = sp
            f[pair_rows, pm] = fp
            r[pair_rows, :, pm] = points[pm] - c
            dcs = np.zeros((2, rows.size, M, D))
            dcs[0, cl, pm] = dc
            dcs[1, cl, pm] = d2c
            jets = {l: (dcs[0, k], dcs[1, k]) for k, l in enumerate(self._splines)}
        f[f < self._snap_f] = 0.0
        if s_warm is not None:
            s_warm[:] = s
        return s, f, r, jets

    def _value(self, points: np.ndarray, u: np.ndarray, own_f=None, s_warm=None):
        """The scratched value over the base values u, with what the gradient
        reuses: (value, (r, jets, exps, one_minus, prod_all, drives)),
        drives[l] = (idx, s, V_l(s), V_l'(s), e) on the points inside driven
        tube l."""
        s, f, r, jets = self._nearest(points, own_f is not None, s_warm)
        if own_f is not None:
            own_f[:] = f.diagonal()
        inside = f <= self.tube_radius**2
        exps = np.exp(-self.lam * f, out=np.zeros_like(f), where=inside)
        one_minus = 1.0 - exps
        prod_all = np.prod(one_minus, axis=0)
        value = u * prod_all
        drives = {}
        for l in self._driven:
            idx = np.flatnonzero(inside[l])
            if idx.size == 0:
                continue
            sl = s[l, idx]
            v, dv = self.tangential[l].jet(sl)
            e = exps[l, idx]
            value[idx] += v * e
            drives[l] = (idx, sl, v, dv, e)
        return value, (r, jets, exps, one_minus, prod_all, drives)

    def eval(self, points: np.ndarray, *, own_f: np.ndarray | None = None, s_warm=None):
        """Analytic value and gradient of the scratched potential.

        Outside every tube returns the base potential and gradient exactly.
        With `own_f` (one entry per scratch, and one point per scratch), entry
        l receives f_l at point l: the squared distance of point l to curve l
        as the force uses it, zero below the profile's snap threshold.
        With `s_warm` (scratches x points), each spline pair's Newton
        iteration starts from its entry (nan: from the scan), and the array
        receives the nearest parameters found (nan for pairs outside the
        scratch's box).
        """
        points = np.atleast_2d(points)
        u, grad_u = self.base.value_and_grad(points)
        if not self.profiles:
            return u, grad_u
        value, (r, jets, exps, one_minus, prod_all, drives) = self._value(
            points, u, own_f, s_warm
        )
        prod_others = np.divide(
            prod_all, one_minus, out=np.zeros_like(exps), where=one_minus > 1e-300
        )
        # product rule on every factor 1 - e^{-lam f_l}, with grad f_l = 2 r_l:
        # the base term first, then the scratches in order, summed over the
        # stack in that order
        terms = np.empty((self.num_scratches + 1,) + r.shape[1:])
        terms[0] = grad_u.T * prod_all
        coef = u * self.lam * exps
        coef *= prod_others
        np.multiply(r, 2.0, out=terms[1:])
        terms[1:] *= coef[:, None, :]
        grad = np.ascontiguousarray(terms.sum(axis=0).T)
        for l, (idx, sl, v, dv, e) in drives.items():
            rl = r[l][:, idx].T
            if l in jets:
                dc, d2c = jets[l][0][idx], jets[l][1][idx]
            else:  # a line: constant tangent, d2c = 0
                _, dc, d2c = self.profiles[l].curve.jet(sl)
            denom = np.einsum("ij,ij->i", dc, dc) - np.einsum("ij,ij->i", rl, d2c)
            denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
            grad_sigma = dc / denom[:, None]
            grad[idx] += e[:, None] * (dv[:, None] * grad_sigma)
            grad[idx] -= (self.lam * v * e)[:, None] * (2.0 * rl)
        return value, grad

    def value(self, points: np.ndarray) -> np.ndarray:
        """The value of `eval`, bit for bit, without the scratch gradient."""
        points = np.atleast_2d(points)
        u = self.base.value(points)
        if not self.profiles:
            return u
        return self._value(points, u)[0]

    def sample(self, grid) -> np.ndarray:
        """Values on all grid points, row-major, shaped like the grid.

        The points go to `value` in blocks of at most _SAMPLE_PAIRS // N, so
        that each (N, rows) array of `eval` takes 64 KiB. Larger temporaries
        come as fresh pages from the system: with 2^16 pairs per block,
        sampling 25 line scratches on a 128^2 grid took twice as long. The
        blocks are equal to within one point, so that none is a single
        point, whose one-row matrix products round differently: the values
        are those of one `value` call on all points.
        """
        pts = grid.points()
        rows = max(1, _SAMPLE_PAIRS // max(self.num_scratches, 1))
        blocks = np.array_split(pts, -(-pts.shape[0] // rows))
        return np.concatenate([self.value(b) for b in blocks]).reshape(grid.shape)

    def hessian_on_scratch(self, l: int, s: float, fd_step: float | None = None):
        """Hessian spectrum of the scratched potential at a point of scratch l.

        Finite differences of the analytic gradient, with a step well inside
        the tube; returns (eigenvalues ascending, tangent-alignment cosine).
        """
        prof = self.profiles[l]
        q = prof.curve(np.array([s]))[0]
        D = q.size
        _, f, _, _ = self._nearest(q[None, :])
        for lp in range(self.num_scratches):
            if lp != l and f[lp, 0] <= self.tube_radius**2:
                raise ScratchError(
                    f"scratch {lp} interferes inside the tube of scratch {l}"
                )
        if fd_step is None:
            fd_step = 0.01 / np.sqrt(self.lam)
        H = np.zeros((D, D))
        for i in range(D):
            dq = np.zeros(D)
            dq[i] = fd_step
            _, gp = self.eval((q + dq)[None, :])
            _, gm = self.eval((q - dq)[None, :])
            H[i] = (gp[0] - gm[0]) / (2.0 * fd_step)
        H = 0.5 * (H + H.T)
        evals, evecs = np.linalg.eigh(H)
        tangent = prof.curve.deriv(np.array([s]))[0]
        tangent /= np.linalg.norm(tangent)
        zero_vec = evecs[:, int(np.argmin(np.abs(evals)))]
        cosine = float(abs(zero_vec @ tangent))
        return np.sort(evals), cosine


def monotone_timing(conditions: TimingConditions, tol: float = 1e-9) -> PiecewiseCubic:
    """Monotone C1 interpolant s(t) with prescribed knot values and slopes:
    the cubic Hermite spline through them.

    Uses the sufficient monotonicity box 0 < c <= 3 * min(adjacent secants);
    slopes outside the box cannot be honored without breaking the requested
    checkpoint speeds, so the construction fails rather than silently clamps.
    """
    t, s, c = conditions.times, conditions.params, conditions.speeds
    for j, lo in enumerate(adjacent_secant_min(s, t)):
        if c[j] > 3.0 * lo + tol:
            raise InfeasibleTimingError(
                f"slope {c[j]:.4g} at checkpoint {j} exceeds 3x adjacent secant {lo:.4g}"
            )
    return PiecewiseCubic(t, hermite_coefficients(t, s, c))


def construct_tangential_potential(
    curve, conditions: TimingConditions, mass: float, num_samples: int = 60001
) -> TangentialPotential:
    """Inverse problem: V(s) driving motion along the curve through the
    timing targets s(t_j) = s_j, ds/dt(t_j) = c_j.

    A monotone timing interpolant fixes s(t); energy conservation of the
    on-curve dynamics then determines V up to V(0) = 0:

        V(s) = (m/2) * [ w(0) sdot(t(0))^2 - w(s) sdot(t(s))^2 ],

    where w(s) = |dq/ds|^2. A trajectory conserving this energy with the
    right initial data solves the constrained equation of motion
    m [ w sdot' + (q' . q'') sdot^2 ] = -dV/ds exactly.
    """
    timing = monotone_timing(conditions)
    t0, t1 = conditions.times[0], conditions.times[-1]
    t_dense = np.linspace(t0, t1, num_samples)
    s_dense, sdot_dense = timing.jet(t_dense)
    if np.any(sdot_dense <= 0):
        raise InfeasibleTimingError("timing interpolant is not strictly increasing")
    # de-duplicate parameters (monotone, but guard the spline fit)
    s_dense, idx = np.unique(s_dense, return_index=True)
    sdot_dense = sdot_dense[idx]
    dq = curve.deriv(s_dense)
    w = np.einsum("ij,ij->i", dq, dq)
    e0 = 0.5 * mass * w[0] * sdot_dense[0] ** 2
    v = e0 - 0.5 * mass * w * sdot_dense**2
    v = v - v[0]
    return TangentialPotential(s_dense, v)


def integrate_lagrange(
    curve,
    potential: TangentialPotential,
    conditions: TimingConditions,
    mass: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Forward-integrate the constrained equation of motion along the curve,
    returning (s, sdot) at each checkpoint time. Independent round-trip check
    for the inverse construction."""

    def rhs(t, y):
        s, sdot = y
        _, (dq,), (d2q,) = curve.jet(np.array([s]))
        w = float(dq @ dq)
        coupling = float(dq @ d2q)
        sddot = (-potential.deriv(s) - mass * coupling * sdot**2) / (mass * w)
        return [sdot, sddot]

    # imported here, not with the module: no pipeline calls this check, and
    # scipy.integrate would add its import to every process that loads it
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (conditions.times[0], conditions.times[-1]),
        [conditions.params[0], conditions.speeds[0]],
        t_eval=conditions.times,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise ScratchError(f"forward integration failed: {sol.message}")
    return sol.y[0], sol.y[1]
