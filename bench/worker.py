"""One benchmark operation: a single pipeline run in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED OP_DIR MODE

Imports scratchsim and builds and validates the workload's ExperimentConfig
(timed as set-up). With MODE "run" or "trace" it then runs the pipeline with
OP_DIR/report as its output directory (timed as the report); "setup" stops
after set-up. Writes the timings, and in "trace" mode the per-layer metrics
and span table, to OP_DIR/op.json.

The host is shared. For seconds to minutes at a time other tenants slow
every instruction of the core this process runs on, by up to a factor of
two, and no clock of the process (wall, CPU, scheduler run time) tells that
time apart. So the worker times a fixed kernel (`calibrate`) before set-up,
between set-up and the pipeline, and after the pipeline, on the same core
and in the same process. A phase's speed factor is CALIBRATION_REF_S over
the mean of the two kernel times around it; bench/run.py multiplies the
phase's times by it.

Exit codes: 0 done, 1 the pipeline raised, 3 set-up failed (the package
could not be imported from ./src or the config was refused).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import workloads

EXIT_PIPELINE = 1
EXIT_SETUP = 3

# the kernel's time on the reference machine when nothing else ran
CALIBRATION_REF_S = 0.15
_CAL_FIELD = np.exp(1j * np.linspace(0.0, 40.0, 256 * 256)).reshape(256, 256)


def calibrate() -> float:
    """Seconds taken by a fixed mix of 256^2 FFTs and a pure-Python loop,
    the two kinds of work the pipelines do."""
    t0 = time.perf_counter()
    a = _CAL_FIELD
    for _ in range(40):
        a = np.fft.ifft2(np.fft.fft2(a))
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def _speed(before: float, after: float) -> float:
    return CALIBRATION_REF_S / (0.5 * (before + after))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    name, seed, op_dir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    cfg = workloads.config(name, seed)
    src = os.path.abspath("src")
    np.fft.ifft2(np.fft.fft2(_CAL_FIELD))  # warm-up: the FFT plan
    cal_setup = calibrate()
    t0 = time.perf_counter()
    try:
        from scratchsim import experiment

        if not os.path.abspath(experiment.__file__).startswith(src + os.sep):
            raise ImportError(f"scratchsim imported from {experiment.__file__}, not {src}")
        config = experiment.ExperimentConfig.from_dict(cfg)
    except Exception:
        traceback.print_exc()
        return EXIT_SETUP
    setup_s = time.perf_counter() - t0
    cal_report = calibrate()
    out = {"setup_s": setup_s, "setup_speed": _speed(cal_setup, cal_report)}
    if mode != "setup":
        try:
            out.update(_run(experiment, config, op_dir, mode == "trace"))
        except Exception:
            traceback.print_exc()
            return EXIT_PIPELINE
        out["report_speed"] = _speed(cal_report, calibrate())
    with open(os.path.join(op_dir, "op.json"), "w") as fh:
        json.dump(out, fh)
    return 0


def _run(experiment, config, op_dir: str, trace: bool) -> dict:
    pipeline = {"theorem1": experiment.run_theorem1, "theorem2": experiment.run_theorem2}[
        config.mode
    ]
    report_dir = os.path.join(op_dir, "report")
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    c0 = _cpu_seconds()
    t1 = time.perf_counter()
    if tracer is None:
        pipeline(config, report_dir)
    else:
        tracer.call(tracing.ROOT, pipeline, config, report_dir)
    out = {"report_s": time.perf_counter() - t1, "cpu_s": _cpu_seconds() - c0}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracer.table()
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
