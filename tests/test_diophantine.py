"""Simultaneous rational approximation: certificates, oracle cross-checks."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scratchsim.diophantine import (
    ApproximationProblem,
    DiophantineError,
    RationalApproximation,
    problem_from_probabilities,
    solve,
    verify,
)


def random_problem(rng, n=None, K=None, max_b=1):
    n = n or int(rng.integers(2, 5))
    K = K or int(rng.integers(1, 4))
    groups, constraints = [], []
    for _ in range(K):
        b = int(rng.integers(1, max_b + 1))
        a = int(rng.integers(1, 2 * b + 1))
        g = rng.random(n)
        g = g * (a / b) / g.sum()
        g[-1] += a / b - g.sum()
        groups.append(tuple(g))
        constraints.append((a, b))
    Q = ApproximationProblem.min_budget(n, K, max(abs(b) for _, b in constraints)) + 1
    return ApproximationProblem(tuple(groups), tuple(constraints), Q)


def exhaustive_min_q(problem):
    """Smallest feasible q by direct enumeration of numerators near q*alpha.

    For each group, any numerator satisfying the error bound lies within 2 of
    floor(q * alpha), so the enumeration over the cross product is complete.
    Numerators within 1e-9 of the float bound are judged in exact arithmetic:
    |q alpha - a|^(nK) * Q < 1, each alpha read as the rational its float is.
    """
    thr = problem.error_threshold
    nk = problem.n * problem.num_groups
    for q in range(1, problem.budget + 1):
        ok_all = True
        for g, (A, B) in zip(problem.groups, problem.constraints):
            qa = q * np.asarray(g)
            base = np.floor(qa).astype(np.int64)
            found = False
            for offs in itertools.product(range(-1, 3), repeat=len(g)):
                a = base + np.asarray(offs)
                if B * int(a.sum()) != A * q:
                    continue
                if float(np.max(np.abs(qa - a))) < thr + 1e-9 and all(
                    abs(q * Fraction(x) - int(y)) ** nk * problem.budget < 1
                    for x, y in zip(g, a)
                ):
                    found = True
                    break
            if not found:
                ok_all = False
                break
        if ok_all:
            return q
    return None


class TestValidation:
    def test_group_sum_must_match(self):
        with pytest.raises(DiophantineError):
            ApproximationProblem(((0.3, 0.3),), ((1, 1),), 100)

    def test_budget_floor(self):
        # n = 2, one group, B = 1: budget must exceed 2^2 = 4
        with pytest.raises(DiophantineError):
            ApproximationProblem(((0.5, 0.5),), ((1, 1),), 4)
        ApproximationProblem(((0.5, 0.5),), ((1, 1),), 5)

    def test_zero_denominator(self):
        with pytest.raises(DiophantineError):
            ApproximationProblem(((0.5, 0.5),), ((1, 0),), 100)

    def test_theorem_mode_budgets(self):
        # two groups of two reals: Q must exceed 2^4 = 16
        groups = ((0.25, 0.75), (0.6, 0.4))
        with pytest.raises(DiophantineError):
            ApproximationProblem(groups, ((1, 1), (1, 1)), 16)
        ApproximationProblem(groups, ((1, 1), (1, 1)), 17)


class TestSolve:
    def test_halves_give_q_even(self):
        # alpha = (1/2, 1/2): exact at any even q; smallest is 2
        p = ApproximationProblem(((0.5, 0.5),), ((1, 1),), 5)
        r = solve(p)
        assert r.q == 2
        assert r.numerators == ((1, 1),)
        assert verify(p, r).ok

    def test_exact_rationals_recovered(self):
        # q = 1 already clears the threshold 5^(-1/2) for (1/3, 2/3); the
        # smallest certifying denominator is returned, not the exact one
        p = ApproximationProblem(((1 / 3, 2 / 3),), ((1, 1),), 5)
        r = solve(p)
        assert r.q == 1
        assert r.numerators == ((0, 1),)
        assert verify(p, r).ok
        # a tighter budget forces the exact denominator
        p = ApproximationProblem(((1 / 3, 2 / 3),), ((1, 1),), 500)
        assert solve(p).q == 3

    def test_constraint_is_exact_integer_identity(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, n=3, K=2)
        r = solve(p)
        for grp, (A, B) in zip(r.numerators, p.constraints):
            assert B * sum(grp) == A * r.q

    def test_zero_numerators_reported(self):
        p = ApproximationProblem(((0.999, 0.001),), ((1, 1),), 5)
        r = solve(p)
        assert (1, 2) in r.zero_numerators

    def test_random_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            p = random_problem(rng)
            r = solve(p)
            cert = verify(p, r)
            assert cert.ok, (p, r, cert)

    def test_small_rational_denominators(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_problem(rng, n=2, K=1, max_b=3)
            assert verify(p, solve(p)).ok

    def test_exhaustive_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_problem(rng, n=int(rng.integers(2, 4)), K=int(rng.integers(1, 3)))
            r = solve(p)
            assert r.q == exhaustive_min_q(p)


class TestVerify:
    def test_rejects_wrong_numerators(self):
        p = ApproximationProblem(((0.5, 0.5),), ((1, 1),), 5)
        r = solve(p)
        bad = type(r)(
            q=r.q,
            numerators=((2, 0),),
            error_bound=r.error_bound,
        )
        assert not verify(p, bad).ok


    def test_bound_is_checked_exactly(self):
        # Q = 10^6 and nK = 2, q = 11: |11 alpha - 4| >= 1e-3 in exact
        # arithmetic, while the float error |alpha - 4/11| rounds below the
        # float bound 1/11000
        alpha = 0.36372727272727273
        assert abs(11 * Fraction(alpha) - 4) >= Fraction(1, 1000)
        p = ApproximationProblem(((alpha, 1.0 - alpha),), ((1, 1),), 10**6)
        cand = RationalApproximation(q=11, numerators=((4, 7),), error_bound=float(p.bound(11)))
        cert = verify(p, cand)
        assert cert.max_error < cert.error_bound
        assert not cert.bound_holds and not cert.ok


    @pytest.mark.parametrize(
        "alpha, budget, groups, rejected",
        [
            # Q = 36 and nK = 4: alpha is 1/36^(1/4) rounded up, so q = 1
            # with numerators (0, 1) fails exactly
            (float(np.nextafter(1.0 / 36**0.25, 0.0)), 36, 2, 1),
            # the double nearest 3 alpha lies within the float bound of 1,
            # while |3 alpha - 1| >= 1e-3 = Q^(-1/2) exactly
            (0.33366666666666667, 10**6, 1, 3),
        ],
    )
    def test_solve_accepts_only_exact_certificates(self, alpha, budget, groups, rejected):
        p = ApproximationProblem(((alpha, 1.0 - alpha),) * groups, ((1, 1),) * groups, budget)
        r = solve(p)
        assert r.q != rejected
        assert verify(p, r).ok


    @pytest.mark.parametrize(
        "alphas, smallest",
        [
            # 5 alpha = 1.01 in floating point, exactly |5 alpha - 1| < 1e-2
            ((0.20199999999999999, 0.798), 5),
            # 91 alpha rounds onto the float bound, exactly it lies below it
            ((0.89, 0.10999999999999999), 91),
        ],
    )
    def test_smallest_exact_q_when_q_alpha_rounds_up(self, alphas, smallest):
        # Q = 10^4 and nK = 2: the bound is |q alpha - a| < 1e-2
        p = ApproximationProblem((alphas,), ((1, 1),), 10**4)
        r = solve(p)
        assert r.q == smallest == exhaustive_min_q(p)
        assert verify(p, r).ok


class TestCertificateProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        K=st.integers(1, 3),
        max_b=st.integers(1, 2),
    )
    def test_identities(self, seed, n, K, max_b):
        p = random_problem(np.random.default_rng(seed), n=n, K=K, max_b=max_b)
        r = solve(p)
        assert verify(p, r).ok
        nk = p.n * p.num_groups
        assert 0 < r.q <= p.budget
        for g, grp, (A, B) in zip(p.groups, r.numerators, p.constraints):
            assert B * sum(grp) == A * r.q
            for alpha, a in zip(g, grp):
                assert abs(r.q * Fraction(alpha) - a) ** nk * p.budget < 1
        zeros = {
            (i + 1, j + 1) for i, grp in enumerate(r.numerators) for j, a in enumerate(grp) if a == 0
        }
        assert set(r.zero_numerators) == zeros
        assert r.error_bound == verify(p, r).error_bound == float(p.bound(r.q))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_deterministic_per_seed(self, seed):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            n, K = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            p = problem_from_probabilities([rng.random(n) for _ in range(K)], n ** (n * K) + 1)
            r = solve(p)
            runs.append((p, r, verify(p, r)))
        assert runs[0] == runs[1]


class TestProblemFromProbabilities:
    def test_renormalizes(self):
        groups = [np.array([0.5, 0.2, 0.3000001])]
        p = problem_from_probabilities(groups, 3**3 + 1)
        assert abs(sum(p.groups[0]) - 1.0) == 0.0

    def test_full_pipeline_shape(self):
        rng = np.random.default_rng(1)
        gs = [rng.random(2) for _ in range(4)]
        p = problem_from_probabilities(gs, 257)
        assert p.num_groups == 4 and p.n == 2
        assert verify(p, solve(p)).ok
