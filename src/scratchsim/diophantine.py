"""Simultaneous rational approximation with exact group-sum constraints.

Given K groups of n reals alpha_j^(r) whose group sums are rationals
A^(r)/B^(r), and a budget Q > (n * max_r |B^(r)|)^(nK), finds a common
denominator q <= Q and integer numerators a_j^(r) with

    max |alpha_j^(r) - a_j^(r)/q| < 1 / (q * Q^(1/(nK)))
    sum_j a_j^(r) / q == A^(r)/B^(r)   (exact integer identity)

Existence follows from the Dirichlet approximation theorem; the search
scans q = 1..Q and returns the smallest denominator that certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class DiophantineError(ValueError):
    pass


@dataclass(frozen=True)
class ApproximationProblem:
    """K groups of n reals with per-group rational sum constraints."""

    groups: tuple[tuple[float, ...], ...]
    constraints: tuple[tuple[int, int], ...]  # (A, B) per group, B != 0
    budget: int  # Q

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(float(a) for a in g) for g in self.groups)
        )
        object.__setattr__(
            self, "constraints", tuple((int(a), int(b)) for a, b in self.constraints)
        )
        object.__setattr__(self, "budget", int(self.budget))
        if len(self.groups) == 0:
            raise DiophantineError("need at least one group")
        n = len(self.groups[0])
        if n == 0 or any(len(g) != n for g in self.groups):
            raise DiophantineError("all groups must share the same nonzero length")
        if len(self.constraints) != len(self.groups):
            raise DiophantineError("one (A, B) constraint per group required")
        for _, b in self.constraints:
            if b == 0:
                raise DiophantineError("constraint denominator B must be nonzero")
        for g, (a, b) in zip(self.groups, self.constraints):
            if abs(sum(g) - a / b) >= 1e-12:
                raise DiophantineError(
                    f"group sum {sum(g)} deviates from {a}/{b} by more than 1e-12"
                )
        if self.budget <= self.min_budget(n, len(self.groups), self.max_b):
            raise DiophantineError(
                f"budget Q={self.budget} must exceed "
                f"(n*max|B|)^(nK) = {self.min_budget(n, len(self.groups), self.max_b)}"
            )

    @property
    def n(self) -> int:
        return len(self.groups[0])

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def max_b(self) -> int:
        return max(abs(b) for _, b in self.constraints)

    @staticmethod
    def min_budget(n: int, num_groups: int, max_b: int = 1) -> int:
        return (n * max_b) ** (n * num_groups)

    @property
    def error_threshold(self) -> float:
        """Per-component bound on |q*alpha - a|: Q^(-1/(nK))."""
        return float(self.budget) ** (-1.0 / (self.n * self.num_groups))

    def bound(self, q: int) -> np.longdouble:
        """The certified bound 1/(q * Q^(1/(nK))) for denominator q, in
        extended precision: every report and certificate states this value,
        rounded to a double."""
        exponent = np.longdouble(1.0) / (self.n * self.num_groups)
        return 1.0 / (np.longdouble(q) * np.longdouble(self.budget) ** exponent)


@dataclass(frozen=True)
class RationalApproximation:
    q: int
    numerators: tuple[tuple[int, ...], ...]
    error_bound: float  # certified value 1/(q * Q^(1/(nK))), `problem.bound(q)`
    repair_penalty: float = 0.0  # total |q*alpha - a| added by constraint repair
    zero_numerators: tuple[tuple[int, int], ...] = ()  # (group, index) with a == 0


@dataclass(frozen=True)
class CertificateReport:
    q_in_range: bool
    bound_holds: bool
    constraints_hold: bool
    max_error: float
    error_bound: float

    @property
    def ok(self) -> bool:
        return self.q_in_range and self.bound_holds and self.constraints_hold


def _repair_group(qa: np.ndarray, a: np.ndarray, deficit: int) -> np.ndarray:
    """Add `deficit` unit steps to the numerators, each step on the entry whose
    |q*alpha - a| grows the least. Greedy is min-max optimal since the per-entry
    penalty is convex in the number of units moved."""
    a = a.copy()
    step = 1 if deficit > 0 else -1
    for _ in range(abs(deficit)):
        cand = np.abs(qa - (a + step))
        a[np.argmin(cand)] += step
    return a


def _prefilter(problem: ApproximationProblem) -> float:
    """`error_threshold` widened by 1e-12 of itself, past the rounding of
    Q^(-1/(nK)) in floating point."""
    return problem.error_threshold * (1.0 + 1e-12)


def _errors_below(qa: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|qa - a| less one ulp of qa: qa is q * alpha rounded to within half
    an ulp and a is an integer, so this is at most the exact |q alpha - a|.
    A float prefilter on it passes every q that certifies exactly."""
    return np.abs(qa - a) - np.spacing(np.abs(qa))


def _candidate_for_q(problem: ApproximationProblem, q: int):
    """Best integer numerators for denominator q, or None if they fail the
    float prefilter or the constraints cannot hold."""
    thr = _prefilter(problem)
    numerators = []
    penalty = 0.0
    for g, (A, B) in zip(problem.groups, problem.constraints):
        qa = q * np.asarray(g)
        a = np.rint(qa).astype(np.int64)
        # Exact constraint: B * sum(a) == A * q, adjusted in integer steps.
        residual = A * q - B * int(a.sum())
        if residual % B != 0:
            return None
        deficit = residual // B
        if deficit != 0:
            before = float(np.abs(qa - a).sum())
            a = _repair_group(qa, a, int(deficit))
            penalty += float(np.abs(qa - a).sum()) - before
        if float(np.max(_errors_below(qa, a))) >= thr:
            return None
        numerators.append(tuple(int(x) for x in a))
    return numerators, penalty


def _bound_holds(problem: ApproximationProblem, q: int, numerators) -> bool:
    """Whether every |alpha - a/q| < 1/(q * Q^(1/(nK))), in exact arithmetic:
    each alpha is read as the rational its float is, and the bound holds iff
    |q alpha - a|^(nK) * Q < 1."""
    nk = problem.n * problem.num_groups
    return all(
        abs(q * Fraction(alpha) - a) ** nk * problem.budget < 1
        for g, grp in zip(problem.groups, numerators)
        for alpha, a in zip(g, grp)
    )


def solve(problem: ApproximationProblem) -> RationalApproximation:
    """Smallest q in [1, Q] whose rounded (and constraint-repaired) numerators
    satisfy both lemma conclusions.

    The scan is vectorized in blocks, and its floating-point bound only
    prefilters, widened so that it passes every q that certifies exactly
    (`_prefilter`, `_errors_below`): a q is accepted only once its
    numerators pass the bound in exact arithmetic (`_bound_holds`, which
    `verify` checks too) and the group sums hold as integer identities.
    """
    thr = _prefilter(problem)
    alphas = np.concatenate([np.asarray(g) for g in problem.groups])
    block = 4096
    for start in range(1, problem.budget + 1, block):
        qs = np.arange(start, min(start + block, problem.budget + 1), dtype=np.float64)
        qa = qs[:, None] * alphas[None, :]
        # Rounding minimizes each |q*alpha - a|, and constraint repair can only
        # grow errors, so q is infeasible unless every rounded error clears the
        # threshold already.
        err = _errors_below(qa, np.rint(qa))
        plausible = np.max(err, axis=1) < thr
        for q in qs[plausible].astype(int):
            got = _candidate_for_q(problem, int(q))
            if got is None:
                continue
            numerators, penalty = got
            if not _bound_holds(problem, int(q), numerators):
                continue
            _check_exact_constraints(problem, int(q), numerators)
            zeros = tuple(
                (r + 1, j + 1)
                for r, grp in enumerate(numerators)
                for j, a in enumerate(grp)
                if a == 0
            )
            return RationalApproximation(
                q=int(q),
                numerators=tuple(tuple(grp) for grp in numerators),
                error_bound=float(problem.bound(int(q))),
                repair_penalty=penalty,
                zero_numerators=zeros,
            )
    raise DiophantineError(
        "no denominator q <= Q certifies; the lemma guarantees existence, "
        "so a precondition must be violated"
    )


def _check_exact_constraints(problem, q: int, numerators) -> None:
    for grp, (A, B) in zip(numerators, problem.constraints):
        if B * sum(grp) != A * q:
            raise DiophantineError("internal error: repaired constraint not exact")


def verify(problem: ApproximationProblem, cand: RationalApproximation) -> CertificateReport:
    """Independently re-check both lemma conclusions and q <= Q.

    The bound is checked in exact arithmetic (`_bound_holds`). `max_error`
    is the largest |alpha - a/q| in floating point, for the report.
    """
    q = cand.q
    q_in_range = 0 < q <= problem.budget
    max_err = 0.0
    for g, grp in zip(problem.groups, cand.numerators):
        for alpha, a in zip(g, grp):
            max_err = max(max_err, abs(alpha - a / q))
    bound_holds = _bound_holds(problem, q, cand.numerators)
    constraints_hold = all(
        B * sum(grp) == A * q
        for grp, (A, B) in zip(cand.numerators, problem.constraints)
    )
    return CertificateReport(
        q_in_range=q_in_range,
        bound_holds=bound_holds,
        constraints_hold=constraints_hold,
        max_error=max_err,
        error_bound=float(problem.bound(q)),
    )


def problem_from_probabilities(
    prob_groups: list[np.ndarray], budget: int
) -> ApproximationProblem:
    """Build a problem from probability vectors summing (renormalized) to 1."""
    groups = []
    for g in prob_groups:
        g = np.asarray(g, dtype=float)
        g = g / g.sum()
        # Nudge the last entry so the float sum is exactly 1.
        g[-1] += 1.0 - g.sum()
        groups.append(tuple(float(x) for x in g))
    constraints = tuple((1, 1) for _ in groups)
    return ApproximationProblem(tuple(groups), constraints, budget)
