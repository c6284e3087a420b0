"""Command-line entry points for the pipelines and the property suite."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from scratchsim import classical, diophantine, geometry, scratch
from scratchsim.experiment import (
    ExperimentConfig,
    default_theorem1_config,
    default_theorem2_config,
    run_blackbox,
    run_theorem1,
    run_theorem2,
)
from scratchsim.grid import SpatialGrid
from scratchsim.potentials import GaussianWellPotential


def _load_config(args, default_factory) -> ExperimentConfig:
    if args.config is None:
        return default_factory()
    with open(args.config) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _pipeline_command(args) -> int:
    config = _load_config(args, args.default_factory)
    report = args.runner(config, out_dir=args.out)
    for name, ok in sorted(report.criteria.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"particles N={report.num_particles} bound={report.bound:.6g}")
    return 0 if report.passed else 1


def _cmd_diophantine(args) -> int:
    if args.problem == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.problem) as fh:
            data = json.load(fh)
    problem = diophantine.ApproximationProblem(
        tuple(tuple(g) for g in data["alphas"]),
        tuple(tuple(c) for c in data["constraints"]),
        data["Q"],
    )
    approx = diophantine.solve(problem)
    cert = diophantine.verify(problem, approx)
    out = {
        "q": approx.q,
        "numerators": [list(g) for g in approx.numerators],
        "error_bound": approx.error_bound,
        "max_error": cert.max_error,
        "certificate_ok": cert.ok,
    }
    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    print()
    return 0 if cert.ok else 1


def _check(name: str, ok: bool, results: list) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def _cmd_verify(args) -> int:
    """Reduced property suite: rational approximation certificates, scratch
    structure, constrained motion, and the inverse-timing round trip."""
    rng = np.random.default_rng(args.seed)
    results: list[bool] = []

    trials = 50 if args.fast else 200
    ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        groups = []
        for _ in range(K):
            g = rng.random(n)
            g = g / g.sum()
            g[-1] += 1.0 - g.sum()
            groups.append(tuple(g))
        problem = diophantine.ApproximationProblem(
            tuple(groups), tuple((1, 1) for _ in range(K)), n ** (n * K) + 1
        )
        cert = diophantine.verify(problem, diophantine.solve(problem))
        ok = ok and cert.ok
    _check(f"rational approximation certificates ({trials} random problems)", ok, results)

    base = GaussianWellPotential(depth=0.5, width=2.0, offset=1.5, ndim=3)
    curve = geometry.SegmentCurve([-2.0, -1.0, 0.0], [2.0, 1.0, 0.5])
    lam = 1.0e4
    sp = scratch.ScratchedPotential(base, [curve], lam)
    s = np.linspace(0.0, 1.0, 200)
    pts = curve(s)
    vals, grads = sp.eval(pts)
    gmax = float(np.max(np.linalg.norm(base.value_and_grad(pts)[1], axis=1)))
    _check(
        "plain scratch force-free on curve",
        float(np.max(np.abs(vals))) == 0.0
        and float(np.max(np.linalg.norm(grads, axis=1))) <= 1e-10 * gmax,
        results,
    )
    evs, cos = sp.hessian_on_scratch(0, 0.5)
    u_mid = float(base.value(curve(np.array([0.5])))[0])
    _check(
        "on-curve spectrum (one null direction, transverse 2*lambda*U)",
        abs(evs[0]) <= 1e-6 * evs[-1]
        and np.allclose(evs[1:], 2.0 * lam * u_mid, rtol=0.02)
        and cos >= 0.999,
        results,
    )

    grid = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0), (-8.0, 8.0)), (64, 64, 64))
    schedule = np.array([0.0, 4.0])
    # small transverse kick: exactly on-curve tangential motion feels no
    # transverse force, so the unperturbed deviation carries no scaling
    tangent = curve.deriv(np.array([0.0]))[0]
    kick = np.array([0.0, 0.0, 1.0])
    kick -= (kick @ tangent) / (tangent @ tangent) * tangent
    kick *= 0.02 / np.linalg.norm(kick)
    q0 = curve(np.array([0.0]))
    p0 = 0.25 * curve.deriv(np.array([0.0])) + kick
    devs = []
    for lam_i in (1.0e3, 1.0e4, 1.0e5):
        sp_i = scratch.ScratchedPotential(base, [curve], lam_i)
        dt = classical.stable_timestep(lam_i, 1.5, 1.0, safety=100.0)
        res = classical.integrate(
            classical.ClassicalEnsemble(q0.copy(), p0.copy(), 1.0),
            sp_i,
            schedule,
            dt_max=dt,
            domain=grid,
            curves=[curve],
        )
        devs.append(float(res.max_curve_deviation[0]))
    _check(
        "constrained motion deviation decays with lambda",
        all(b <= 1.05 * a for a, b in zip(devs, devs[1:])),
        results,
    )

    trials = 10 if args.fast else 30
    ok = True
    for _ in range(trials):
        K = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0.0, 5.0, K))
        while np.any(np.diff(times) < 0.2):
            times = np.sort(rng.uniform(0.0, 5.0, K))
        params = np.linspace(0.0, 1.0, K)
        secants = np.diff(params) / np.diff(times)
        speeds = np.array(
            [
                rng.uniform(0.3, 1.5) * secants[max(j - 1, 0) : j + 1].min()
                for j in range(K)
            ]
        )
        cond = scratch.TimingConditions(times, params, speeds)
        vpot = scratch.construct_tangential_potential(curve, cond, 1.0)
        s_hit, sdot_hit = scratch.integrate_lagrange(curve, vpot, cond, 1.0)
        ok = ok and np.max(np.abs(s_hit - params)) < 1e-3
        ok = ok and np.max(np.abs(sdot_hit - speeds) / speeds) < 1e-2
    _check(f"inverse-timing round trip ({trials} random condition sets)", ok, results)

    return 0 if all(results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scratchsim",
        description="classical ensembles in scratched potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, default_factory, runner, doc in (
        ("theorem1", default_theorem1_config, run_theorem1, "two-checkpoint position pipeline"),
        ("theorem2", default_theorem2_config, run_theorem2, "full position-and-momentum pipeline"),
        ("blackbox", default_theorem2_config, run_blackbox, "finite-resolution record comparison"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config (defaults built in)")
        p.add_argument("--out", help="output directory for report.json and CSVs")
        p.set_defaults(func=_pipeline_command, default_factory=default_factory, runner=runner)

    p = sub.add_parser("diophantine", help="solve one approximation problem")
    p.add_argument(
        "--problem",
        required=True,
        help='JSON {"alphas": [[..]], "constraints": [[A,B],..], "Q": int}; "-" for stdin',
    )
    p.set_defaults(func=_cmd_diophantine)

    p = sub.add_parser("verify", help="run the reduced property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true", help="smaller trial counts")
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
