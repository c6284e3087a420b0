"""Benchmark of the scratchsim pipelines, run from the root of a checkout.

    python3 bench/run.py --workload t1-desk --seed 1 --seconds 30 --trace 0

Closed loop, one client: pipeline runs follow one another, each in a fresh
interpreter (bench/worker.py) that imports the package from ./src. One
operation is one pipeline run that ends with its report on disk. A run keeps
starting operations until --seconds have passed, and always completes at
least one. Every report is checked (bench/checks.py). All reports of a run,
and of every earlier run of the same code, workload and seed in this
checkout, must be byte-identical.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics, each the median over the run's operations; with
--trace 1 it holds the per-layer metrics of traced operations instead.
End-to-end times are rescaled to the host's reference speed (worker.py
says how); the raw times are kept in the result file.
`--workload all` runs every workload in turn. Result files go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# a run has to end within 180 s; no operation starts that could not finish
# before this many seconds, judged by the longest operation so far
DEADLINE_S = 165.0
EXIT_SETUP = 3  # bench/worker.py: the package could not be set up
# set-up-only workers per run, besides the set-up of every operation, so
# that setup_s is a median of several samples even when one operation fills
# the run
SETUP_SAMPLES = 3

END_TO_END = {"report_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


class SetupError(RuntimeError):
    pass


def _source_digest() -> str:
    """sha256 of every file of the package, so that stored report digests
    are only ever compared between runs of the same code."""
    h = hashlib.sha256()
    src = os.path.join("src", "scratchsim")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def same_as_earlier_runs(name: str, cfg: dict, report: bytes) -> bool:
    """Compare report.json with the one that earlier runs of this code, this
    workload and this config (seed included) wrote, and store its digest if
    there is none."""
    spec = json.dumps(cfg, sort_keys=True)
    key = hashlib.sha256(f"{_source_digest()}|{name}|{spec}".encode()).hexdigest()
    path = os.path.join(OUT, "digests", key)
    digest = hashlib.sha256(report).hexdigest()
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read() == digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(digest)
    os.replace(tmp, path)
    return True


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ns_per_pair", "ns"), ("_ratio", "ratio"), ("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _run_worker(name: str, seed: int, op_dir: str, mode: str, deadline: float):
    """Run one worker; returns (exit code or None if killed, rusage)."""
    os.makedirs(op_dir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), op_dir, mode]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    code = None
    try:
        # wait4 gives the child's own peak RSS; Popen.wait would discard it
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                return code, usage
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
    finally:
        if code is None:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = -9 if code is None else code
    return None, usage


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    cfg = workloads.config(name, seed)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    ops: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    info: dict = {}
    reference = None
    deadline = started + DEADLINE_S
    longest = 0.0
    setups: list[float] = []
    setups_raw: list[float] = []
    try:
        for i in range(SETUP_SAMPLES):
            op_dir = os.path.join(tmp, f"setup{i}")
            code, _ = _run_worker(name, seed, op_dir, "setup", deadline)
            if code != 0:
                raise SetupError(f"{name}: set-up failed (importing scratchsim from ./src, or the config)")
            with open(os.path.join(op_dir, "op.json")) as fh:
                op = json.load(fh)
            setups_raw.append(op["setup_s"])
            setups.append(op["setup_s"] * op["setup_speed"])
        t_start = time.monotonic()
        while attempted == 0 or time.monotonic() - t_start < seconds:
            if attempted and time.monotonic() + longest > deadline:
                break
            op_dir = os.path.join(tmp, f"op{attempted}")
            t_op = time.monotonic()
            code, usage = _run_worker(name, seed, op_dir, "trace" if trace else "run", deadline)
            longest = max(longest, time.monotonic() - t_op)
            attempted += 1
            if code == EXIT_SETUP:
                raise SetupError(f"{name}: set-up failed (importing scratchsim from ./src, or the config)")
            if code != 0:
                failed += 1
                continue
            with open(os.path.join(op_dir, "op.json")) as fh:
                op = json.load(fh)
            op["peak_rss_mib"] = usage.ru_maxrss / 1024.0
            ops.append(op)
            setups_raw.append(op["setup_s"])
            setups.append(op["setup_s"] * op["setup_speed"])
            report_dir = os.path.join(op_dir, "report")
            with open(os.path.join(report_dir, "report.json"), "rb") as fh:
                report = fh.read()
            if reference is None:
                reference = report
                try:
                    problems, info = checks.check_outputs(report_dir, cfg)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                    problems = [f"outputs unreadable: {e!r}"]
                if not same_as_earlier_runs(name, cfg, report):
                    problems.append("report.json differs from earlier runs with this seed")
            elif report != reference:
                problems.append(f"report.json of operation {attempted - 1} differs from the first")
            shutil.rmtree(op_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not ops:
        raise SetupError(f"{name}: all {attempted} operations failed")

    if trace:
        keys = list(ops[0]["layers"])
        metrics = {k: statistics.median(op["layers"][k] for op in ops) for k in keys}
        units = {k: layer_unit(k) for k in keys}
    else:
        metrics = {
            k: statistics.median(op[k] * op["report_speed"] for op in ops) for k in ("report_s", "cpu_s")
        }
        metrics["peak_rss_mib"] = statistics.median(op["peak_rss_mib"] for op in ops)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": cfg,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "problems": problems,
        "reference": info,
        "setup_samples": setups,
        "setup_samples_raw": setups_raw,
        "raw_medians": {
            k: statistics.median(op[k] for op in ops) for k in ("report_s", "cpu_s", "setup_s")
        },
        "operations": ops,
        **result,
    }
    path = os.path.join(OUT, f"{name}.{'layers' if trace else 'result'}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    started = time.monotonic()
    # turn SIGTERM into SystemExit, so that the running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "scratchsim", "__init__.py")):
        print("bench/run.py: run it from the root of a scratchsim checkout (no src/scratchsim here)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), started)
        except SetupError as e:
            print(f"bench/run.py: {e}", file=sys.stderr)
            return 2
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"{name}: {key} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        started = time.monotonic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
