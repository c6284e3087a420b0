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

from scratchsim.geometry import (
    HermiteSpline,
    SegmentFamily,
    SplineFamily,
    adjacent_secant_min,
)

_SAMPLE_PAIRS = 1 << 13  # (scratch, point) pairs per block of `sample`
# samples per block of `construct_tangential_potential`: a curve jet's
# gathered piece table then takes 672 KiB
_DRIVE_BLOCK = 1 << 12


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

    def __init__(self, curve, tube_radius: float):
        self.curve = curve
        self.tube_radius = float(tube_radius)
        # parameter-space extension past [0, 1] so tube ends carry no
        # spurious tangential force near the checkpoints
        end_speed = min(
            np.linalg.norm(curve.deriv(np.array([0.0]))[0]),
            np.linalg.norm(curve.deriv(np.array([1.0]))[0]),
        )
        self.extension = float(3.0 * self.tube_radius / max(end_speed, 1e-9))
        # snap threshold: points this close are treated as exactly on-curve
        self.snap_f = (1e-9 * max(curve.length, 1.0)) ** 2


class TangentialPotential(HermiteSpline):
    """V(s) as the cubic Hermite spline through samples v with slopes dv at
    s, continued linearly beyond the first and last sample (a slope
    discontinuity at the curve ends would break energy conservation for
    particles oscillating around a checkpoint there). The samples are kept
    once, in the spline's table."""

    def __init__(self, s_samples: np.ndarray, v_samples: np.ndarray, dv_samples: np.ndarray):
        s = np.asarray(s_samples, dtype=float)
        v = np.asarray(v_samples, dtype=float)
        dv = np.asarray(dv_samples, dtype=float)
        if not (
            s.ndim == 1 and s.shape == v.shape == dv.shape and s.size >= 2
            and all(np.all(np.isfinite(a)) for a in (s, v, dv)) and np.all(np.diff(s) > 0)
        ):
            raise ScratchError("need two or more finite values and slopes at strictly increasing s")
        super().__init__(s, v, dv)

    @property
    def s_samples(self) -> np.ndarray:
        return self.x

    @property
    def v_samples(self) -> np.ndarray:
        """The a0 row past the column below the first sample: each cubic's
        left value, then the continuation's, the last value."""
        return self.coef[3, 1:]

    @property
    def dv_samples(self) -> np.ndarray:
        return self.coef[2, 1:]


class ScratchedPotential:
    """Base potential with N scratches of one kind, all lines or all splines,
    and either a tangential potential on every scratch or on none.

    `eval` works on flat arrays of the (scratch, point) pairs inside tubes,
    not on dense scratch x point arrays: straight scratches are projected
    onto every point in one pass, spline scratches onto the points in their
    boxes grown by the tube radius (`SplineFamily.near`), and a pair outside
    its tube, whose factor is exactly 1 and whose terms vanish, is dropped.
    `np.multiply.at` and `np.add.at` apply each point's terms in scratch
    order, as a sum over every scratch would, so no value changes.
    """

    def __init__(
        self,
        base,
        curves,
        lam: float,
        tangential: list[TangentialPotential] | None = None,
    ):
        """`curves` are all `SegmentCurve`s or all `SplineCurve`s, projected
        together by one `SegmentFamily` or `SplineFamily`; `tangential` is
        None or one drive per scratch."""
        if lam <= 0:
            raise ScratchError("lambda must be positive")
        self.base = base
        self.lam = float(lam)
        # flush e^{-lam f} to zero beyond R_tube with R_tube^2 = 40/lam
        # (relative error below e^-40)
        self.tube_radius = float(np.sqrt(40.0 / self.lam))
        self.profiles = [ScratchProfile(c, self.tube_radius) for c in curves]
        kinds = {p.curve.kind for p in self.profiles}
        if len(kinds) > 1:
            raise ScratchError("scratches must be all lines or all splines")
        if tangential is None:
            tangential = [None] * len(self.profiles)
        elif len(tangential) != len(self.profiles) or any(v is None for v in tangential):
            raise ScratchError("one tangential potential per scratch required, or none")
        self.tangential = tangential
        self._snap_f = np.array([p.snap_f for p in self.profiles])
        ends = ([-p.extension for p in self.profiles], [1.0 + p.extension for p in self.profiles])
        curves = [p.curve for p in self.profiles]
        self._segments = self._family = None
        if kinds == {"line"}:
            self._segments = SegmentFamily(curves, *ends)
            # a line's -g' = c'.c' - r.c'' is c'.c', as its c'' is 0
            self._line_ngp = np.einsum("ij,ij->i", self._segments.d, self._segments.d)
        elif kinds:
            self._family = SplineFamily(curves, *ends, reach=self.tube_radius)

    @property
    def num_scratches(self) -> int:
        return len(self.profiles)

    def _pairs(self, points: np.ndarray, own_f=None, s_warm=None, geometry=False):
        """The (scratch, point) pairs inside tubes, sorted by scratch and
        then by point: scratch l, point m, nearest parameter s and squared
        distance f, zero below the profile's snap threshold, each (P,); with
        `geometry` also the residual r = q - c(s) and the curve's first
        derivative c'(s), each (P, D), and -g' = c'.c' - r.c'' (P,), all as
        the projection computed them.

        Lines are projected onto every point, splines onto the points in
        their boxes; with `own_f` also point l onto scratch l, whose f entry
        l receives. `s_warm` (N, M), if given, holds a start for each spline
        pair's Newton iteration (nan for none) and receives the parameters
        found, nan for the spline pairs not projected.
        """
        R2 = self.tube_radius**2
        if self._segments is not None:
            s, r, f = self._segments.project(points)
            f[f < self._snap_f[:, None]] = 0.0
            if own_f is not None:
                own_f[:] = f.diagonal()
            if s_warm is not None:
                s_warm[:] = s
            l, m = (f <= R2).nonzero()
            pairs = [l, m, s[l, m], f[l, m]]
            if geometry:
                pairs += [r[l, :, m], self._segments.d.take(l, 0), self._line_ngp.take(l)]
            return pairs
        near = self._family.near(points)
        if own_f is not None:
            np.fill_diagonal(near, True)
        l, m = near.nonzero()
        start = None if s_warm is None else s_warm[l, m]
        s, f, (_, dc, _), r, ngp = self._family.locate(points, (l, m), start)
        f[f < self._snap_f.take(l)] = 0.0
        if own_f is not None:
            own_f[:] = f[l == m]
        if s_warm is not None:
            s_warm[:] = np.nan
            s_warm[l, m] = s
        pairs = [l, m, s, f, r, dc, ngp] if geometry else [l, m, s, f]
        inside = f <= R2
        if np.count_nonzero(inside) < inside.size:
            i = inside.nonzero()[0]
            pairs = [a.take(i, 0) for a in pairs]
        return pairs

    def _drive(self, l, s):
        """V_l(s) and V_l'(s) of the pairs' scratches l, sorted, at their
        parameters s, each (P,): one jet per scratch."""
        if len(self.tangential) == 1:
            return self.tangential[0].jet(s, 1)
        cuts = l.searchsorted(np.arange(len(self.tangential))).tolist() + [s.size]
        jets = [v.jet(s[a:b], 1) for v, a, b in zip(self.tangential, cuts, cuts[1:]) if a < b]
        return [np.concatenate(part) for part in zip(*jets)]

    def _value(self, points: np.ndarray, u: np.ndarray, own_f=None, s_warm=None, geometry=False):
        """The scratched value over the base values u, with what the gradient
        reuses: (value, (pairs, e, one_minus, prod_all, drive)), `pairs` from
        `_pairs` and, if the scratches are driven and a pair is inside a
        tube, drive = (V_l(s), V_l'(s)) on the pairs."""
        pairs = self._pairs(points, own_f, s_warm, geometry)
        l, m, s, f = pairs[:4]
        e = np.exp(-self.lam * f)
        one_minus = 1.0 - e
        prod_all = np.ones(len(points))
        np.multiply.at(prod_all, m, one_minus)
        value = u * prod_all
        drive = None
        if self.tangential[0] is not None and s.size:
            drive = self._drive(l, s)
            np.add.at(value, m, drive[0] * e)
        return value, (pairs, e, one_minus, prod_all, drive)

    def eval(self, points: np.ndarray, *, own_f: np.ndarray | None = None, s_warm=None):
        """Analytic value and gradient of the scratched potential, each
        computed once per (scratch, point) pair inside a tube from the
        residual, c' and -g' that the projection returns.

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
        value, ((_, m, _, _, r, dc, ngp), e, one_minus, prod_all, drive) = self._value(
            points, u, own_f, s_warm, geometry=True
        )
        # a factor 1 - e^{-lam f} is 0 or at least 2^-53, and where it is 0
        # its point's product is 0 too, as the quotient is taken to be
        prod_others = prod_all.take(m)
        np.divide(prod_others, one_minus, out=prod_others, where=one_minus > 1e-300)
        # product rule on every factor 1 - e^{-lam f_l}, with grad f_l = 2 r_l,
        # then, if driven, per pair + e V' grad(sigma), grad(sigma) = c' / -g',
        # and - lam V e 2 r: the same additions in the same order as one sum
        grad = grad_u * prod_all[:, None]
        coef = (u * self.lam).take(m) * e
        coef *= prod_others
        two_r = r * 2.0
        np.add.at(grad, m, two_r * coef[:, None])
        if drive is not None:
            v, dv = drive
            denom = np.where(np.abs(ngp) < 1e-12, 1e-12, ngp)
            kick = dc / denom[:, None]
            kick *= dv[:, None]
            kick *= e[:, None]
            pull = two_r * (-self.lam * v * e)[:, None]
            # each pair's kick, then its pull
            kicks = np.concatenate((kick, pull), axis=1).reshape(-1, r.shape[1])
            np.add.at(grad, m.repeat(2), kicks)
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
        that each (N, rows) array of the line projection takes 64 KiB. Larger
        temporaries come as fresh pages from the system: with 2^16 pairs per
        block, sampling 25 line scratches on a 128^2 grid took twice as long.
        The blocks are equal to within one point, so that none is a single
        point, whose one-row matrix products round differently: the values
        are those of one `value` call on all points.
        """
        pts = grid.points()
        rows = max(1, _SAMPLE_PAIRS // max(self.num_scratches, 1))
        blocks = np.array_split(pts, -(-pts.shape[0] // rows))
        return np.concatenate([self.value(b) for b in blocks]).reshape(grid.shape)


def monotone_timing(conditions: TimingConditions) -> HermiteSpline:
    """Monotone C1 interpolant s(t) with prescribed knot values and slopes:
    the cubic Hermite spline through them.

    Uses the sufficient monotonicity box 0 < c <= 3 * min(adjacent secants)
    + 1e-9; slopes outside the box cannot be honored without breaking the
    requested speeds, so the construction fails rather than silently clamps.
    """
    t, s, c = conditions.times, conditions.params, conditions.speeds
    for j, lo in enumerate(adjacent_secant_min(s, t)):
        if c[j] > 3.0 * lo + 1e-9:
            raise InfeasibleTimingError(
                f"slope {c[j]:.4g} at checkpoint {j} exceeds 3x adjacent secant {lo:.4g}"
            )
    return HermiteSpline(t, s, c)


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
    m [ w sddot + (q' . q'') sdot^2 ] = -dV/ds exactly, so that equation
    gives V's slope at each sample from s, sdot and sddot there. V is the
    cubic Hermite spline through the samples with these slopes.

    The jets are taken in blocks of _DRIVE_BLOCK samples, into the arrays
    they fill, and the per-sample arrays V does not keep are freed before V
    is built. Every step is elementwise or row-wise, so the blocks change
    no bit.
    """
    timing = monotone_timing(conditions)
    t_dense = np.linspace(conditions.times[0], conditions.times[-1], num_samples)
    s_dense = np.empty(num_samples)
    sdot_dense = np.empty(num_samples)
    sddot_dense = np.empty(num_samples)
    for lo in range(0, num_samples, _DRIVE_BLOCK):
        b = slice(lo, lo + _DRIVE_BLOCK)
        s_dense[b], sdot_dense[b], sddot_dense[b] = timing.jet(t_dense[b])
    del t_dense
    if np.any(sdot_dense <= 0):
        raise InfeasibleTimingError("timing interpolant is not strictly increasing")
    # de-duplicate parameters (monotone, but guard the spline fit)
    s_dense, idx = np.unique(s_dense, return_index=True)
    sdot_dense = sdot_dense[idx]
    sddot_dense = sddot_dense[idx]
    del idx
    v = np.empty(s_dense.size)
    dv = np.empty(s_dense.size)
    for lo in range(0, s_dense.size, _DRIVE_BLOCK):
        b = slice(lo, lo + _DRIVE_BLOCK)
        sdot2 = sdot_dense[b] ** 2
        # the last sample may round past s = 1, onto the curve's straight
        # continuation, whose q'' is 0
        _, dq, d2q = curve.jet(np.minimum(s_dense[b], 1.0))
        w = np.einsum("ij,ij->i", dq, dq)
        if lo == 0:
            e0 = 0.5 * mass * w[0] * sdot_dense[0] ** 2
        v[b] = e0 - 0.5 * mass * w * sdot2
        dv[b] = -mass * (np.einsum("ij,ij->i", dq, d2q) * sdot2 + w * sddot_dense[b])
    del sdot_dense, sddot_dense
    v -= v[0]
    return TangentialPotential(s_dense, v, dv)
