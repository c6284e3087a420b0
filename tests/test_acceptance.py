"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion. The criteria cover:
the rational-approximation certificates, both discrimination pipelines at
desk scale, the quantum insensitivity of scratched potentials, the on-curve
structure of the scratch, constrained classical motion, the inverse timing
construction, and byte-level determinism of the reports.
"""

import time

import numpy as np
import pytest

from test_diophantine import exhaustive_min_q, random_problem
from test_scratch import hessian_on_scratch, integrate_lagrange

from scratchsim.classical import initialize_on_scratches, integrate, stable_timestep
from scratchsim.diophantine import solve, verify
from scratchsim.experiment import (
    default_theorem1_config,
    default_theorem2_config,
    run_pipeline,
)
from scratchsim.geometry import SegmentCurve, SplineCurve, catmull_rom_tangents
from scratchsim.grid import SpatialGrid
from scratchsim.potentials import GaussianWellPotential
from scratchsim.quantum import (
    CheckpointSchedule,
    QuantumSystem,
    gaussian_packet,
    propagate,
    scratch_insensitivity,
)
from scratchsim.scratch import (
    ScratchedPotential,
    TimingConditions,
    construct_tangential_potential,
)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _spline3d():
    wp = np.array([[-2.0, -1.0, 0.0], [0.0, 0.5, 0.5], [2.0, -0.5, 1.0]])
    chords = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    knots = np.concatenate([[0.0], np.cumsum(chords) / chords.sum()])
    return SplineCurve(knots, wp, catmull_rom_tangents(knots, wp))


def test_criterion_1_rational_approximation_battery():
    """1000 random problems certify; exhaustive oracle agrees on 50."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    failures = 0
    for i in range(1000):
        # keep a tenth of the problems on denominators up to 3 (smaller n, K
        # so the minimal legal budget stays scannable)
        if i % 10 == 0:
            p = random_problem(rng, n=2, K=int(rng.integers(1, 3)), max_b=3)
        else:
            p = random_problem(rng)
        if not verify(p, solve(p)).ok:
            failures += 1
    oracle_bad = 0
    for _ in range(50):
        p = random_problem(rng, n=int(rng.integers(2, 4)), K=int(rng.integers(1, 3)))
        if solve(p).q != exhaustive_min_q(p):
            oracle_bad += 1
    elapsed = time.time() - t0
    _report(
        "criterion 1: approximation certificates",
        failures == 0 and oracle_bad == 0 and elapsed < 60.0,
        f"failures={failures} oracle_mismatches={oracle_bad} {elapsed:.1f}s",
    )


def test_criterion_2_two_checkpoint_pipeline():
    """Position statistics match within 1/(N * 17^(1/4)) at both checkpoints."""
    t0 = time.time()
    report = run_pipeline(default_theorem1_config())
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    worst = 0.0
    for cp in report.checkpoints:
        worst = max(worst, cp["max_diff"])
        ok = ok and cp["max_diff"] < report.bound
        ok = ok and abs(cp["sum_pi"] - 1.0) < 1e-12
    _report(
        "criterion 2: two-checkpoint position bound",
        ok and report.passed,
        f"N={report.num_particles} max_diff={worst:.4f} bound={report.bound:.4f} {elapsed:.0f}s",
    )


def test_criterion_3_full_pipeline():
    """Position and momentum statistics within 1/(N * 257^(1/8)) throughout."""
    t0 = time.time()
    report = run_pipeline(default_theorem2_config())
    elapsed = time.time() - t0
    ok = elapsed < 1800.0
    worst = 0.0
    for cp in report.checkpoints:
        worst = max(worst, cp["max_diff"], cp["max_diff_momentum"])
        ok = ok and cp["max_diff"] < report.bound
        ok = ok and cp["max_diff_momentum"] < report.bound
        ok = ok and abs(cp["sum_pi"] - 1.0) < 1e-12
        ok = ok and abs(cp["sum_pi_momentum"] - 1.0) < 1e-12
    _report(
        "criterion 3: full position and momentum bounds",
        ok and report.passed,
        f"N={report.num_particles} max_diff={worst:.4f} bound={report.bound:.4f} {elapsed:.0f}s",
    )


def test_criterion_4_quantum_insensitivity():
    """Tube L1 slope -(D-1)/2 and monotone wavefunction convergence."""
    g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (256, 256))
    base = GaussianWellPotential(0.4, 3.0, offset=0.6, ndim=2)
    system = QuantumSystem(1.0, g, base)
    psi0 = gaussian_packet(g, [-1.0, 0.0], 1.2, momentum=[1.0, 0.3])
    schedule = CheckpointSchedule([0.0, 1.0])
    # one straight scratch kept away from the packet's path
    curve = SegmentCurve([-4.0, -3.0], [4.0, -3.0])
    lambdas = [1.0e2, 1.0e3, 1.0e4]
    scratched = [ScratchedPotential(base, [curve], lam=lam) for lam in lambdas]
    reference = propagate(system, psi0, schedule, dt_max=5e-3)[-1]
    rows = scratch_insensitivity(system, scratched, psi0, schedule, reference, dt_max=5e-3)
    l1 = np.array([r["l1_potential"] for r in rows])
    l2 = np.array([r["l2_wavefunction"] for r in rows])
    slopes = np.diff(np.log(l1)) / np.diff(np.log(lambdas))
    ok = bool(np.all(np.abs(slopes + 0.5) < 0.15))
    # monotone decrease with 5% slack; at the largest lambda the tube is
    # narrower than the grid spacing, which only accelerates the decay here
    ok = ok and bool(np.all(l2[1:] <= 1.05 * l2[:-1]))
    ok = ok and l2[-1] < 1e-3
    _report(
        "criterion 4: quantum insensitivity decay",
        ok,
        f"slopes={np.round(slopes, 3).tolist()} final_l2={l2[-1]:.2e}",
    )


def test_criterion_5_scratch_structure():
    """On-curve flatness and transverse Hessian spectrum with doubling."""
    base = GaussianWellPotential(depth=0.5, width=2.0, offset=2.0, ndim=3)
    curve = _spline3d()
    lam = 1.0e3
    sp = ScratchedPotential(base, [curve], lam=lam)
    sp2 = ScratchedPotential(base, [curve], lam=2.0 * lam)

    s = np.linspace(0.0, 1.0, 1000)
    pts = curve(s)
    vals, grads = sp.eval(pts)
    gmax = float(np.max(np.linalg.norm(base.value_and_grad(pts)[1], axis=1)))
    flat_ok = float(np.max(np.abs(vals))) == 0.0 and float(
        np.max(np.linalg.norm(grads, axis=1))
    ) <= 1e-10 * gmax

    rng = np.random.default_rng(17)
    spectrum_ok = True
    for s_i in rng.uniform(0.05, 0.95, 100):
        ev, cos = hessian_on_scratch(sp, 0, float(s_i))
        ev2, _ = hessian_on_scratch(sp2, 0, float(s_i))
        spectrum_ok = spectrum_ok and abs(ev[0]) <= 1e-6 * ev[-1]
        spectrum_ok = spectrum_ok and bool(np.all(ev[1:] > 0))
        spectrum_ok = spectrum_ok and bool(np.allclose(ev2[1:], 2.0 * ev[1:], rtol=0.02))
        spectrum_ok = spectrum_ok and cos >= 0.999
    _report(
        "criterion 5: scratch structure",
        flat_ok and spectrum_ok,
        f"on_curve_flat={flat_ok} spectrum={spectrum_ok}",
    )


def test_criterion_6_constrained_motion():
    """Transverse deviation shrinks as lambda^(-1/2) with conserved energy."""
    base = GaussianWellPotential(0.5, 2.0, center=[0.0, 1.0], offset=1.0, ndim=2)
    curve = SegmentCurve([-2.0, 0.0], [2.0, 0.0])
    g = SpatialGrid(((-8.0, 8.0), (-8.0, 8.0)), (256, 256))
    h = float(np.max(g.spacing))
    schedule = CheckpointSchedule([0.0, 1.0])
    devs, drifts = [], []
    for lam in (1e2, 1e3, 1e4, 1e5):
        sp = ScratchedPotential(base, [curve], lam=lam)
        ens = initialize_on_scratches([curve], 1.0, schedule)
        # a small transverse kick makes the confinement scale visible: exact
        # on-line motion feels no transverse force at all
        ens.momenta[0, 1] += 0.01
        dt = stable_timestep(lam, 1.0, 1.0, safety=200.0)
        res = integrate(ens, sp, schedule, dt_max=dt, domain=g, curves=[curve])
        devs.append(float(res.max_curve_deviation[0]))
        drifts.append(res.energy_drift)
    ok = all(b <= 1.05 * a for a, b in zip(devs, devs[1:]))
    ok = ok and devs[-1] < h / 10.0
    ok = ok and max(drifts) < 1e-6
    _report(
        "criterion 6: constrained motion",
        ok,
        f"devs={['%.2e' % d for d in devs]} h/10={h / 10:.2e} drift={max(drifts):.1e}",
    )


def test_criterion_7_inverse_timing_round_trips():
    """100 random timing sets hit s within 1e-3 and sdot within 1e-2."""
    rng = np.random.default_rng(99)
    curve = _spline3d()
    worst_s, worst_sdot = 0.0, 0.0
    for _ in range(100):
        K = int(rng.integers(2, 5))
        times = np.cumsum(rng.uniform(0.8, 2.0, K))
        params = np.linspace(0.0, 1.0, K)
        secants = np.diff(params) / np.diff(times)
        speeds = np.array(
            [
                rng.uniform(0.3, 1.4) * secants[max(j - 1, 0) : j + 1].min()
                for j in range(K)
            ]
        )
        cond = TimingConditions(times, params, speeds)
        v = construct_tangential_potential(curve, cond, mass=1.0)
        s, sdot = integrate_lagrange(curve, v, cond, mass=1.0)
        worst_s = max(worst_s, float(np.max(np.abs(s - params))))
        worst_sdot = max(worst_sdot, float(np.max(np.abs(sdot - speeds) / speeds)))
    ok = worst_s < 1e-3 and worst_sdot < 1e-2
    _report(
        "criterion 7: inverse timing round trips",
        ok,
        f"worst_s={worst_s:.2e} worst_sdot={worst_sdot:.2e}",
    )


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed reproduce report.json byte for byte."""
    run_pipeline(default_theorem1_config(), out_dir=str(tmp_path / "a"))
    run_pipeline(default_theorem1_config(), out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    _report("criterion 8: deterministic reports", a == b, f"{len(a)} bytes")
