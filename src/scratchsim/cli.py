"""Command-line entry points for the pipelines and the approximation solver."""

from __future__ import annotations

import argparse
import json
import sys

from scratchsim import diophantine
from scratchsim.experiment import (
    ExperimentConfig,
    default_theorem1_config,
    default_theorem2_config,
    run_blackbox,
    run_pipeline,
)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scratchsim",
        description="classical ensembles in scratched potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, default_factory, runner, doc in (
        ("theorem1", default_theorem1_config, run_pipeline, "two-checkpoint position pipeline"),
        ("theorem2", default_theorem2_config, run_pipeline, "full position-and-momentum pipeline"),
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
