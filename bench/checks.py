"""Output checks made apart from scratchsim: numpy, math and fractions only.

`check_outputs` reads one pipeline run's output directory and returns the
problems it found (empty when the run is correct) and a few reference
figures for the result file.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

# t=0 probabilities recomputed here and read from the report are both
# midpoint sums of the same packet; they differ only by round-off
ROUND_OFF = 1e-10
SLOPE_TOL = 0.15


def _cell_centres(cfg: dict) -> list[np.ndarray]:
    return [
        lo + (np.arange(n) + 0.5) * (hi - lo) / n
        for (lo, hi), n in zip(cfg["grid"]["bounds"], cfg["grid"]["shape"])
    ]


def _fft_momenta(cfg: dict, hbar: float) -> list[np.ndarray]:
    """p_k = 2 pi hbar k / L for the integer frequencies k of each axis."""
    out = []
    for (lo, hi), n in zip(cfg["grid"]["bounds"], cfg["grid"]["shape"]):
        k = np.arange(n) - n // 2
        out.append(2.0 * np.pi * hbar * k / (hi - lo))
    return out


def _lowest_label_split(axis_values: np.ndarray, weights: np.ndarray, axis: int, split: float):
    """Share of `weights` in region 1 = {coordinate <= split}: the shared
    boundary belongs to the lowest label."""
    marginal = weights.sum(axis=tuple(i for i in range(weights.ndim) if i != axis))
    total = marginal.sum()
    return float(marginal[axis_values <= split].sum() / total)


def packet_probabilities(cfg: dict) -> dict:
    """Region-1 probabilities of the t=0 Gaussian packet, on the grid and in
    the continuum, for the half-plane (position) and half-space (momentum)
    partitions of the workloads."""
    hbar = cfg.get("hbar", 1.0)
    pk = cfg["packet"]
    centre = np.asarray(pk["center"], dtype=float)
    p0 = np.asarray(pk.get("momentum") or np.zeros(centre.size), dtype=float)
    sigma = float(pk["sigma"])
    axes = _cell_centres(cfg)
    mesh = np.meshgrid(*axes, indexing="ij")
    r2 = sum((m - c) ** 2 for m, c in zip(mesh, centre))
    phase = sum(m * p for m, p in zip(mesh, p0)) / hbar
    psi = np.exp(-r2 / (4.0 * sigma**2) + 1j * phase)

    part = cfg["position_partition"]
    ax, split = part["axis"], part["split"]
    out = {
        "position": _lowest_label_split(axes[ax], np.abs(psi) ** 2, ax, split),
        # |psi|^2 is a normal density with standard deviation sigma
        "position_continuum": 0.5 * math.erfc((centre[ax] - split) / (sigma * math.sqrt(2.0))),
    }
    mpart = cfg.get("momentum_partition")
    if mpart is not None:
        # direct discrete Fourier sum, one axis at a time
        momenta = _fft_momenta(cfg, hbar)
        phi = psi
        for i, (x, p) in enumerate(zip(axes, momenta)):
            dft = np.exp(-1j * np.outer(p, x) / hbar)
            phi = np.moveaxis(np.tensordot(dft, phi, axes=([1], [i])), 0, i)
        mx, msplit = mpart["axis"], mpart["split"]
        out["momentum"] = _lowest_label_split(momenta[mx], np.abs(phi) ** 2, mx, msplit)
        # |phi|^2 is normal with standard deviation hbar / (2 sigma)
        spread = hbar / (2.0 * sigma)
        out["momentum_continuum"] = 0.5 * math.erfc((p0[mx] - msplit) / (spread * math.sqrt(2.0)))
    return out


def _groups(report: dict) -> list[tuple[list[float], list[int]]]:
    """(P, counts) per constrained group: every checkpoint's position table,
    then every checkpoint's momentum table when momenta are constrained."""
    cps = report["checkpoints"]
    groups = [(cp["P"], cp["counts"]) for cp in cps]
    if all("P_momentum" in cp for cp in cps):
        groups += [(cp["P_momentum"], cp["counts_momentum"]) for cp in cps]
    return groups


def certificate_problems(report: dict, budget: int) -> list[str]:
    """Counts sum to N, and (N |P_k - a_k/N|)^(n G) Q < 1 in exact arithmetic."""
    problems = []
    N = report["num_particles"]
    groups = _groups(report)
    G = len(groups)
    for g, (probs, counts) in enumerate(groups):
        n = len(probs)
        if sum(counts) != N:
            problems.append(f"group {g}: counts {counts} do not sum to N={N}")
        for k, (p, a) in enumerate(zip(probs, counts)):
            gap = abs(Fraction(p) * N - a)
            if gap ** (n * G) * budget >= 1:
                problems.append(f"group {g} region {k + 1}: certificate fails, |N P - a| = {float(gap):.3e}")
    return problems


def _csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def check_outputs(report_dir: str, cfg: dict) -> tuple[list[str], dict]:
    with open(os.path.join(report_dir, "report.json")) as fh:
        report = json.load(fh)
    problems: list[str] = []
    for key, value in cfg.items():
        if report["config"].get(key) != value:
            problems.append(f"report config {key!r} differs from the workload's")
    failed = [name for name, ok in report["criteria"].items() if not ok]
    if failed or not report["passed"]:
        problems.append(f"pipeline criteria failed: {failed}")

    problems += certificate_problems(report, cfg["budget"])

    ref = packet_probabilities(cfg)
    cp0 = report["checkpoints"][0]
    info = {"t0_" + k: v for k, v in ref.items()}
    for space, key in (("position", "P"), ("momentum", "P_momentum")):
        if key not in cp0:
            continue
        got = cp0[key][0]
        info[f"t0_{space}_report"] = got
        if abs(got - ref[space]) > ROUND_OFF:
            problems.append(f"t=0 {space} P_1 {got!r} != recomputed {ref[space]!r}")

    decay = report["decay"]
    D = len(cfg["grid"]["shape"])
    lams = np.log([row["lambda"] for row in decay])
    slope = float(np.polyfit(lams, np.log([row["l1_potential"] for row in decay]), 1)[0])
    info["l1_slope"] = slope
    if abs(slope + (D - 1) / 2.0) > SLOPE_TOL:
        problems.append(f"l1_potential slope {slope:.3f}, expected {-(D - 1) / 2.0}")
    l2 = [row["l2_wavefunction"] for row in decay]
    if any(b > a for a, b in zip(l2, l2[1:])):
        problems.append(f"l2_wavefunction increases with lambda: {l2}")

    diag = report["diagnostics"]
    drifts = [row["energy_drift"] for row in diag.get("per_lambda", [diag])]
    tol = cfg.get("energy_tol", 1e-6)
    if not all(d < tol for d in drifts):
        problems.append(f"energy drift {drifts} not below {tol}")

    # trajectory.csv: a header and at least one row
    expected = {
        "occupancy.csv": len(cfg["schedule"]) * len(cp0["P"]) + 1,
        "decay.csv": len(decay) + 1,
        "trajectory.csv": None,
    }
    for fname, rows in expected.items():
        path = os.path.join(report_dir, fname)
        got = _csv_rows(path) if os.path.isfile(path) else 0
        if (got < 2) if rows is None else (got != rows):
            problems.append(f"{fname} has {got} lines, expected {rows or 'at least 2'}")
    return problems, info
