"""The end-to-end pipeline: quantum region statistics, rational approximation,
scratch construction, classical verification, and report emission.

One driver serves both modes. `theorem2` approximates the position and
momentum probabilities at K checkpoints (only the positions with
`position_only`), scratches driven splines and runs the ensemble at every
lambda. `theorem1` is its K = 2, position-only case on straight undriven
lines, run at the largest lambda. Each run ends with the same comparison:
quantum probabilities P_k against classical occupation fractions pi_k,
checked per checkpoint against the bound the approximation certificate
proves, 1 / (N * Q^(1/(nG))) for G groups of n probabilities (G = 2K with
momenta, K without).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from scratchsim import classical, diophantine, geometry, quantum, scratch
from scratchsim.grid import (
    Box,
    RegionPartition,
    SpatialGrid,
    half_planes,
    momentum_half_spaces,
)
from scratchsim.potentials import potential_from_spec


class ExperimentError(ValueError):
    pass


class ValidationError(ExperimentError):
    pass


class StageError(ExperimentError):
    """Failure inside a pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, cause: Exception, detail: str = ""):
        super().__init__(f"stage {stage!r}: {cause}" + (f"; {detail}" if detail else ""))
        self.stage = stage
        self.cause = cause


def partition_from_spec(spec: dict, grid: SpatialGrid | None = None, ndim: int | None = None) -> RegionPartition:
    kind = spec.get("kind")
    if kind == "half_planes":
        if grid is None:
            raise ValidationError("half_planes partition needs the grid")
        return half_planes(grid, spec.get("axis", 0), spec.get("split", 0.0))
    if kind == "half_spaces":
        if ndim is None:
            raise ValidationError("half_spaces partition needs the dimension")
        return momentum_half_spaces(ndim, spec.get("axis", 0), spec.get("split", 0.0))
    if kind == "boxes":
        regions = [
            [Box(tuple(b["lo"]), tuple(b["hi"])) for b in region]
            for region in spec["regions"]
        ]
        return RegionPartition(regions)
    raise ValidationError(f"unknown partition kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Validated JSON-facing configuration for the pipelines."""

    mode: str  # "theorem1" | "theorem2"
    grid: dict
    potential: dict
    packet: dict
    schedule: list
    position_partition: dict
    budget: int
    lambdas: list
    seed: int
    momentum_partition: dict | None = None
    mass: float = 1.0
    hbar: float = 1.0
    dt_quantum: float = 5e-3
    stiffness_safety: float = 20.0
    energy_tol: float = 1e-6
    edge_eps: float = 1e-6
    waypoint_margin: float | None = None
    delta_path: float | None = None
    eps_coll: float | None = None
    p_scale: float = 1.0
    p_margin: float = 0.3
    position_only: bool = False
    instrument_resolution: float | None = None
    max_retries: int = 8
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = {f for f in cls.__dataclass_fields__ if f != "extra"}
        extra = {k: d.pop(k) for k in list(d) if k not in known}
        cfg = cls(**d, extra=extra)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__
            if k != "extra" and getattr(self, k) is not None
        }
        out.update(self.extra)
        return out

    def build_grid(self) -> SpatialGrid:
        return SpatialGrid(
            tuple(tuple(b) for b in self.grid["bounds"]), tuple(self.grid["shape"])
        )

    @property
    def num_checkpoints(self) -> int:
        return len(self.schedule)

    @property
    def constrains_momentum(self) -> bool:
        """Whether the momentum regions are approximated and scratched for:
        in full mode, unless `position_only` is set."""
        return self.mode == "theorem2" and not self.position_only

    def validate(self) -> None:
        if self.mode not in ("theorem1", "theorem2"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        g = self.build_grid()
        n = len(partition_from_spec(self.position_partition, grid=g).regions)
        K = self.num_checkpoints
        try:
            quantum.CheckpointSchedule(self.schedule)
            quantum.check_lambdas(self.lambdas)
        except quantum.QuantumError as e:
            raise ValidationError(str(e)) from e
        if self.max_retries < 1:
            raise ValidationError("max_retries must be at least 1")
        if self.mode == "theorem1":
            if g.ndim < 2:
                raise ValidationError("two-checkpoint mode needs D >= 2")
            if K != 2:
                raise ValidationError("two-checkpoint mode needs exactly K = 2")
        else:
            if g.ndim != 3:
                raise ValidationError("full mode needs D = 3")
            if self.momentum_partition is None and not self.position_only:
                raise ValidationError("full mode needs a momentum partition")
            pot = potential_from_spec(self.potential, g.ndim)
            if np.min(pot.sample(g).values) <= 0.0:
                raise ValidationError("full mode needs U > 0 everywhere on the grid")
        # G groups of n probabilities are approximated; Q must exceed n^(nG)
        G = 2 * K if self.constrains_momentum else K
        floor = diophantine.ApproximationProblem.min_budget(n, G)
        if self.budget <= floor:
            raise ValidationError(
                f"budget Q={self.budget} must exceed n^(nG) = {floor} (n={n}, G={G})"
            )


# ---------------------------------------------------------------------------
# reports


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass
class DiscriminationReport:
    mode: str
    config: dict
    num_particles: int
    bound: float
    bound_extended: str  # same value evaluated in extended precision
    checkpoints: list  # per-checkpoint P/pi tables and verdicts
    decay: list  # lambda sweep rows on the quantum side
    diagnostics: dict
    criteria: dict  # name -> bool

    @property
    def passed(self) -> bool:
        return all(self.criteria.values())

    def to_dict(self) -> dict:
        return _jsonable(
            {
                "mode": self.mode,
                "config": self.config,
                "num_particles": self.num_particles,
                "bound": self.bound,
                "bound_extended": self.bound_extended,
                "checkpoints": self.checkpoints,
                "decay": self.decay,
                "diagnostics": self.diagnostics,
                "criteria": self.criteria,
                "passed": self.passed,
            }
        )

    def save(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        write_occupancy_csv(os.path.join(out_dir, "occupancy.csv"), self.checkpoints)
        write_decay_csv(os.path.join(out_dir, "decay.csv"), self.decay)


def write_decay_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "l1_potential", "linf_fourier", "l2_wavefunction"])
        for r in rows:
            w.writerow(
                [r["lambda"], r["l1_potential"], r["linf_fourier"], r["l2_wavefunction"]]
            )


def write_occupancy_csv(path: str, checkpoints: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_j", "k", "pi_k", "pi_tilde_k", "count", "count_tilde"])
        for cp in checkpoints:
            n = len(cp["pi"])
            for k in range(n):
                w.writerow(
                    [
                        cp["t"],
                        k + 1,
                        cp["pi"][k],
                        cp["pi_momentum"][k] if cp.get("pi_momentum") else "",
                        cp["counts"][k],
                        cp["counts_momentum"][k] if cp.get("counts_momentum") else "",
                    ]
                )


def write_trajectory_csv(path: str, result: classical.TrajectoryResult, scratched) -> None:
    D = result.snapshots[0].positions.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t", "l"]
            + [f"q{i + 1}" for i in range(D)]
            + [f"p{i + 1}" for i in range(D)]
            + ["E"]
        )
        for t, snap in zip(result.times, result.snapshots):
            vals, _ = scratched.eval(snap.positions)
            e = np.sum(snap.momenta**2, axis=1) / (2.0 * snap.mass) + vals
            for l in range(snap.num_particles):
                w.writerow(
                    [t, l]
                    + list(snap.positions[l])
                    + list(snap.momenta[l])
                    + [e[l]]
                )


def certified_bound(num_particles: int, problem: diophantine.ApproximationProblem) -> tuple[float, str]:
    """1 / (N * Q^(1/(nG))) for the problem's G groups of n,
    `problem.bound(N)`: the bound its certificate proves, in double and
    extended precision."""
    ext = problem.bound(num_particles)
    return float(ext), repr(float(ext)) if np.longdouble is np.float64 else str(ext)


def deviation_floor(scratched) -> float:
    """The largest on-curve snap distance of the scratches: a curve deviation
    below it is round-off."""
    return max(float(np.sqrt(prof.snap_f)) for prof in scratched.profiles)


def deviation_decreasing(deviations, floor: float) -> bool:
    """Curve deviations do not rise by more than 5% from one lambda to the
    next, comparing only what lies above the floor."""
    d = np.maximum(np.asarray(deviations, dtype=float), floor)
    return bool(np.all(d[1:] <= 1.05 * d[:-1]))


# ---------------------------------------------------------------------------
# shared stages


# attempts per lambda, and the steps they may take together in units of the
# first attempt's: 1 + 4 + 16 + 64, the worst case of quartering dt three times
_MAX_ATTEMPTS = 4
_STEP_BUDGET = 85


def _integrate_with_retries(
    config: ExperimentConfig,
    ensemble,
    scratched,
    schedule,
    u_max,
    g,
    curves,
    seed_dt: float,
):
    """Verlet run whose retries are sized by Verlet's drift law.

    The first attempt takes the smaller of `stable_timestep` and `seed_dt`,
    the law-sized step of the previous lambda's accepted run. The integrator
    checks the drift against `energy_tol`; after a failure at dt with drift
    d the next attempt takes `drift_law_timestep`, dt * 0.8 * sqrt(tol / d),
    which predicts a drift of 0.64 * tol. At most four attempts are made,
    and their steps sum to at most 85 times the first attempt's: an attempt
    that would pass that budget is not started, and the stage raises
    StageError('classical') listing every attempt's (dt, drift), with the
    last StabilityError as its cause.

    Returns the accepted result, its dt, the effective stiffness safety
    config.stiffness_safety * dt0 / dt (dt0 the `stable_timestep` at the
    config's safety, so the config's value exactly when dt = dt0) and every
    attempt's [dt, drift] in order.
    """
    dt0 = classical.stable_timestep(scratched.lam, u_max, config.mass, config.stiffness_safety)
    dt = min(dt0, seed_dt)
    budget = _STEP_BUDGET * sum(schedule.steps(dt))
    spent = 0
    attempts: list[list[float]] = []
    last: classical.StabilityError | None = None
    stop = f"{_MAX_ATTEMPTS} attempts made"
    for _ in range(_MAX_ATTEMPTS):
        steps = sum(schedule.steps(dt)) if dt > 0 else math.inf
        if spent + steps > budget:
            stop = f"the next, at dt={dt:.3e}, would pass the budget of {budget} steps"
            break
        spent += steps
        try:
            result = classical.integrate(
                ensemble,
                scratched,
                schedule,
                dt_max=dt,
                domain=g,
                energy_tol=config.energy_tol,
                curves=curves,
            )
        except classical.StabilityError as e:
            last = e
            attempts.append([dt, e.drift])
            dt = classical.drift_law_timestep(dt, e.drift, config.energy_tol)
            continue
        attempts.append([dt, result.energy_drift])
        return result, dt, config.stiffness_safety * (dt0 / dt), attempts
    tried = ", ".join(f"({a:.3e}, {d:.3e})" for a, d in attempts)
    raise StageError("classical", last, f"attempts (dt, drift): {tried}; {stop}") from last


def _quantum_stage(config: ExperimentConfig):
    g = config.build_grid()
    base = potential_from_spec(config.potential, g.ndim)
    system = quantum.QuantumSystem(config.mass, g, base, config.hbar)
    pk = config.packet
    psi0 = quantum.gaussian_packet(
        g, pk["center"], pk["sigma"], pk.get("momentum"), config.hbar
    )
    schedule = quantum.CheckpointSchedule(config.schedule)
    snaps = quantum.propagate(
        system, psi0, schedule, dt_max=config.dt_quantum, edge_eps=config.edge_eps
    )
    return g, base, system, psi0, schedule, snaps


def _probability_tables(snaps, pos_part, mom_part, hbar):
    """Per-checkpoint raw P_k (and P-tilde_k) with their norm gaps."""
    pos, mom, gaps = [], [], []
    for snap in snaps:
        p = quantum.occupation_probabilities(snap, pos_part, "position")
        gaps.append(abs(float(p.sum()) - 1.0))
        pos.append(p)
        if mom_part is not None:
            pt = quantum.occupation_probabilities(snap, mom_part, "momentum", hbar)
            gaps.append(abs(float(pt.sum()) - 1.0))
            mom.append(pt)
    return pos, mom, max(gaps)


def _approximation_stage(prob_groups, budget):
    problem = diophantine.problem_from_probabilities(prob_groups, budget)
    approx = diophantine.solve(problem)
    report = diophantine.verify(problem, approx)
    if not report.ok:
        raise StageError("diophantine", ExperimentError("certificate failed"))
    renorm = [np.asarray(g) for g in problem.groups]
    return problem, approx, report, renorm


def _checkpoint_rows(times, probs_pos, probs_mom, occ, bound):
    rows = []
    for j, t in enumerate(times):
        pi = occ.pi[j]
        row = {
            "t": float(t),
            "P": list(map(float, probs_pos[j])),
            "pi": list(map(float, pi)),
            "counts": list(map(int, occ.counts[j])),
            "max_diff": float(np.max(np.abs(probs_pos[j] - pi))),
            "sum_pi": float(pi.sum()),
        }
        row["ok"] = row["max_diff"] < bound
        if probs_mom:
            pim = occ.pi_momentum[j]
            row["P_momentum"] = list(map(float, probs_mom[j]))
            row["pi_momentum"] = list(map(float, pim))
            row["counts_momentum"] = list(map(int, occ.counts_momentum[j]))
            row["max_diff_momentum"] = float(np.max(np.abs(probs_mom[j] - pim)))
            row["sum_pi_momentum"] = float(pim.sum())
            row["ok"] = row["ok"] and row["max_diff_momentum"] < bound
        rows.append(row)
    return rows


def _geometry_stage(config, g, schedule, pos_part, mom_part, counts_pos, counts_mom, N):
    """Waypoints and scratches, re-sampled with seed + 1000 * attempt while
    the waypoints or the timing are infeasible. Without a momentum partition
    the scratches are straight lines in general position, undriven; with one
    they are splines, conditioned to the momentum counts and driven by
    tangential potentials."""
    times = schedule.times
    last_err: Exception | None = None
    for attempt in range(config.max_retries):
        seed = config.seed + 1000 * attempt
        try:
            assignment = geometry.assign_itineraries(counts_pos, N)
            plan = geometry.sample_waypoints(
                pos_part,
                assignment,
                g,
                seed,
                margin=config.waypoint_margin,
                delta_path=config.delta_path,
                eps_coll=config.eps_coll,
                general_position=mom_part is None,
            )
            curves = geometry.build_paths(plan, grid=g, seed=seed)
            if mom_part is None:
                return plan, curves, None, None
            cond, curves = geometry.condition_momenta(
                curves,
                mom_part,
                counts_mom,
                config.mass,
                times,
                seed=seed,
                p_scale=config.p_scale,
                p_margin=config.p_margin,
                delta_path=plan.delta_path,
            )
            tangential = []
            for l, c in enumerate(curves):
                conditions = scratch.TimingConditions(
                    times, c.checkpoint_params, cond.speeds[l]
                )
                tangential.append(
                    scratch.construct_tangential_potential(c, conditions, config.mass)
                )
            return plan, curves, cond, tangential
        except (geometry.GeometryError, scratch.InfeasibleTimingError) as e:
            last_err = e
    raise StageError("geometry", last_err)


# ---------------------------------------------------------------------------
# the pipeline


def run_pipeline(config: ExperimentConfig, out_dir: str | None = None) -> DiscriminationReport:
    """Quantum statistics, certified approximation, scratches, classical
    ensemble and report, as the config's mode asks.

    theorem2 approximates the position groups and, unless `position_only`,
    the momentum groups, builds driven spline scratches and runs the
    ensemble at every lambda. theorem1 is its two-checkpoint, position-only
    case on straight undriven lines, run at the largest lambda.
    """
    config.validate()
    g, base, system, psi0, schedule, snaps = _quantum_stage(config)
    pos_part = partition_from_spec(config.position_partition, grid=g)
    full = config.mode == "theorem2"
    mom_part = None
    if full:
        if config.momentum_partition is not None:
            mom_part = partition_from_spec(config.momentum_partition, ndim=g.ndim)
        else:
            mom_part = momentum_half_spaces(g.ndim)
    constrained = config.constrains_momentum
    probs_pos, probs_mom, norm_gap = _probability_tables(
        snaps, pos_part, mom_part if constrained else None, config.hbar
    )

    problem, approx, cert, renorm = _approximation_stage(probs_pos + probs_mom, config.budget)
    N = approx.q
    K = config.num_checkpoints
    counts_pos = np.array(approx.numerators[:K], dtype=np.int64)
    if constrained:
        counts_mom = np.array(approx.numerators[K:], dtype=np.int64)
    elif mom_part is not None:
        # momentum regions unconstrained; aim every checkpoint at region 1
        counts_mom = np.zeros((K, mom_part.n), dtype=np.int64)
        counts_mom[:, 0] = N
    else:
        counts_mom = None

    plan, curves, cond, tangential = _geometry_stage(
        config, g, schedule, pos_part, mom_part, counts_pos, counts_mom, N
    )

    # one scratched potential per lambda, for the ensemble and the decay table
    potentials = [
        scratch.ScratchedPotential(base, curves, lam, tangential=tangential)
        for lam in config.lambdas
    ]
    u_max = max(base.max_on(g), 1e-6)
    per_lambda = []
    seed_dt = math.inf
    # `integrate` copies the ensemble, so every attempt starts from this one
    ensemble = classical.initialize_on_scratches(curves, config.mass, schedule, conditioning=cond)
    for scratched in potentials if full else potentials[-1:]:
        result, dt, safety, attempts = _integrate_with_retries(
            config, ensemble, scratched, schedule, u_max, g, curves, seed_dt
        )
        # the drift constant changes little from one lambda to the next
        seed_dt = classical.drift_law_timestep(dt, result.energy_drift, config.energy_tol)
        per_lambda.append(
            {
                "lambda": scratched.lam,
                "energy_drift": result.energy_drift,
                "max_curve_deviation": float(np.max(result.max_curve_deviation)),
                "timestep": dt,
                "stiffness_safety": safety,
                "attempts": attempts,
            }
        )
    # bound verification at the largest lambda
    occ = classical.occupancy(result, pos_part, mom_part)
    bound, bound_ext = certified_bound(N, problem)
    rows = _checkpoint_rows(schedule.times, renorm[:K], renorm[K:], occ, bound)
    planned_pos = geometry.recount_positions(curves, pos_part)
    decay = quantum.scratch_insensitivity(
        system, potentials, psi0, schedule, snaps[-1], config.dt_quantum, config.edge_eps
    )
    min_dist = classical.min_pairwise_distance(result.snapshots)
    deviations = [row["max_curve_deviation"] for row in per_lambda]
    floor = deviation_floor(scratched)
    diagnostics = {
        "norm_gap": norm_gap,
        "repair_penalty": approx.repair_penalty,
        "lemma_max_error": cert.max_error,
        "lemma_error_bound": cert.error_bound,
        "per_lambda": per_lambda,
        # the run at the largest lambda, the one the checkpoints report
        **{("lambda_run" if k == "lambda" else k): v for k, v in per_lambda[-1].items()},
        "planned_counts": planned_pos,
        "min_pairwise_distance": min_dist,
        "deviation_floor": floor,
        "deviation_decreasing": deviation_decreasing(deviations, floor),
    }
    plan_realized = bool(np.array_equal(planned_pos, occ.counts))
    if full:
        planned_mom = geometry.recount_momenta(curves, cond, mom_part, config.mass)
        diagnostics["planned_counts_momentum"] = planned_mom
        if constrained:
            plan_realized = plan_realized and bool(
                np.array_equal(planned_mom, occ.counts_momentum)
            )
    criteria = {
        "lemma_certificate": cert.ok,
        "probability_bounds": all(r["ok"] for r in rows),
        "occupancy_sums": all(
            abs(r["sum_pi"] - 1.0) < 1e-12
            and abs(r.get("sum_pi_momentum", 1.0) - 1.0) < 1e-12
            for r in rows
        ),
        "plan_realized": plan_realized,
        "no_collisions": min_dist > plan.delta_path / 2 or N == 1,
        "energy_conserved": all(
            row["energy_drift"] < config.energy_tol for row in per_lambda
        ),
        "insensitivity_decay": all(
            b["l1_potential"] <= 1.05 * a["l1_potential"]
            for a, b in zip(decay, decay[1:])
        ),
    }
    report = DiscriminationReport(
        mode=config.mode,
        config=config.to_dict(),
        num_particles=N,
        bound=bound,
        bound_extended=bound_ext,
        checkpoints=rows,
        decay=decay,
        diagnostics=diagnostics,
        criteria=criteria,
    )
    if out_dir is not None:
        report.save(out_dir)
        write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result, scratched)
    return report


# bench/worker.py calls the pipeline by these names
run_theorem1 = run_theorem2 = run_pipeline


def run_blackbox(config: ExperimentConfig, out_dir: str | None = None) -> DiscriminationReport:
    """Finite-resolution record comparison on top of a full pipeline run.

    Quantizes the quantum and classical probability tables to the instrument
    resolution and asks whether the records differ. The quantization model is
    uniform rounding; with resolution at or above the theorem bound the
    records coincide.
    """
    base_report = run_pipeline(config)
    res = config.instrument_resolution
    if res is None:
        res = 10.0 * base_report.bound
    records = []
    distinguishable = False
    for cp in base_report.checkpoints:
        pairs = [("position", cp["P"], cp["pi"])]
        if "P_momentum" in cp:
            pairs.append(("momentum", cp["P_momentum"], cp["pi_momentum"]))
        for space, p, pi in pairs:
            qp = [round(x / res) * res for x in p]
            qpi = [round(x / res) * res for x in pi]
            same = all(abs(a - b) < res * 1e-9 for a, b in zip(qp, qpi))
            distinguishable = distinguishable or not same
            records.append(
                {
                    "t": cp["t"],
                    "space": space,
                    "quantum_record": qp,
                    "classical_record": qpi,
                    "identical": same,
                }
            )
    report = DiscriminationReport(
        mode="blackbox",
        config=config.to_dict(),
        num_particles=base_report.num_particles,
        bound=base_report.bound,
        bound_extended=base_report.bound_extended,
        checkpoints=base_report.checkpoints,
        decay=base_report.decay,
        diagnostics={
            **base_report.diagnostics,
            "instrument_resolution": float(res),
            "records": records,
            "distinguishable": distinguishable,
            "resolution_above_bound": res >= base_report.bound,
        },
        criteria={
            **base_report.criteria,
            "indistinguishable_at_resolution": (not distinguishable)
            or res < base_report.bound,
        },
    )
    if out_dir is not None:
        report.save(out_dir)
    return report


# ---------------------------------------------------------------------------
# default desk-scale configurations


def default_theorem1_config() -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "mode": "theorem1",
            "grid": {"bounds": [[-8.0, 8.0], [-8.0, 8.0]], "shape": [256, 256]},
            "potential": {
                "name": "gauss_well",
                "depth": 0.4,
                "width": 3.0,
                "offset": 0.6,
            },
            "packet": {"center": [-1.0, 0.0], "sigma": 1.2, "momentum": [1.0, 0.3]},
            "schedule": [0.0, 1.0],
            "position_partition": {"kind": "half_planes", "axis": 0, "split": 0.0},
            "budget": 17,
            "lambdas": [1.0e2, 1.0e3, 1.0e4],
            "seed": 7,
        }
    )


def default_theorem2_config() -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "mode": "theorem2",
            "grid": {
                "bounds": [[-8.0, 8.0], [-8.0, 8.0], [-8.0, 8.0]],
                "shape": [64, 64, 64],
            },
            "potential": {
                "name": "gauss_well",
                "depth": 1.0,
                "width": 4.0,
                "offset": 3.5,
            },
            "packet": {
                "center": [-1.5, 0.5, 0.0],
                "sigma": 2.0,
                "momentum": [0.3, 0.0, 0.1],
            },
            "schedule": [0.0, 5.0],
            "position_partition": {"kind": "half_planes", "axis": 0, "split": 0.0},
            "momentum_partition": {"kind": "half_spaces", "axis": 0, "split": 0.0},
            "budget": 257,
            "lambdas": [1.0e2, 1.0e3, 1.0e4],
            "seed": 11,
            # a sigma=2 packet in a 16-box keeps ~6e-4 of its mass in the
            # outermost cell layer; the box-leak diagnostic is opened up to
            # match (the effect on region probabilities is ~1e-4, far below
            # the 0.5 theorem bound at N=1)
            "edge_eps": 2.0e-3,
        }
    )
