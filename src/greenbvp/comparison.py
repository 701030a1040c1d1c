"""Nonhomogeneous solves via the Green integral and comparison principles.

u(t) = integral of G(t, s) sigma(s) ds is evaluated by composite Simpson
quadrature on the kernel grid, with the s-integral split at s = t because the
kernel is continuous but not smooth across the diagonal.  The comparison
checks verify the pointwise kernel dominations and the solution inequalities
that follow from a constant-sign premise kernel on the doubled interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .expressions import ExprAst, compile_expr, parse_expression
from .greens import KERNEL_CODES, BCKind, GreensEvaluator, kernel_problem, kernel_source
from .operators import LinearOperator
from .signscan import NONNEGATIVE, NONPOSITIVE, THEOREM_TAGS, ZERO_ON_GRID, _classify

__all__ = [
    "SampledSolution",
    "HypothesisError",
    "solve_bvp",
    "check_kernel_domination",
    "check_solution_comparison",
    "THEOREM_TAGS",
]

SLACK_REL = 1e-9

# Points per side of the grid on which check_kernel_domination compares kernels.
DOMINATION_GRID = 41

# solve_bvp's grid must be odd and at least this, so that every split panel
# keeps at least fourth-order accuracy.
MIN_SOLVE_GRID = 41


class HypothesisError(ValueError):
    """The source pair violates the hypothesis of the requested case."""


@dataclass
class SampledSolution:
    kind: BCKind
    ts: np.ndarray
    values: np.ndarray
    source: str


def _as_expr(sigma) -> ExprAst:
    if isinstance(sigma, str):
        return parse_expression(sigma)
    return sigma


def _samples(f, ts: np.ndarray, lam: float, name: str) -> np.ndarray:
    """The source f at the points ts, of shape ts.shape; non-finite samples
    and a division by zero are refused, naming the source."""
    try:
        with np.errstate(all="ignore"):
            values = np.broadcast_to(np.asarray(f(ts, lam), dtype=float), ts.shape)
    except ZeroDivisionError:
        values = np.nan
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: non-finite values or a division by zero")
    return values


def _simpson_weights(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Weight, in steps, of the local node k of a composite rule over n
    uniform subintervals, 0 off [0, n]: Simpson, after a 3/8 rule on the
    first three subintervals for odd n >= 3; the two-node weights of
    Simpson's rule for n = 1, whose midpoint term solve_bvp adds."""
    odd = n % 2 == 1
    # node j of the Simpson part's p subintervals
    j, p = np.where(odd, k - 3, k), np.where(odd, n - 3, n)
    simpson = np.where((j == 0) | (j == p), 1.0, np.where(j % 2 == 1, 4.0, 2.0)) / 3.0
    weights = np.where((p >= 2) & (0 <= j) & (j <= p), simpson, 0.0)
    eighths = np.where(k % 3 == 0, 3.0, 9.0) / 8.0
    weights += np.where(odd & (n >= 3) & (0 <= k) & (k <= 3), eighths, 0.0)
    return weights + np.where((n == 1) & (0 <= k) & (k <= 1), 1.0 / 6.0, 0.0)


def solve_bvp(G: GreensEvaluator, sigma, m: int = 81) -> SampledSolution:
    """Solution samples u(t_i) of L[lam] u = sigma under the kernel's
    boundary conditions, by Simpson quadrature split at the diagonal; m must
    be odd and at least MIN_SOLVE_GRID.

    Row i integrates G(t_i, s) sigma(s) over [0, t_i] (i subintervals) and
    over [t_i, T] (m - 1 - i subintervals), each by _simpson_weights; the
    two one-subinterval rows take the midpoint term of Simpson's rule from
    one more kernel evaluation.  A sum that overflows is refused with a
    FloatingPointError naming the kernel's family.
    """
    if m < MIN_SOLVE_GRID or m % 2 == 0:
        raise ValueError(f"quadrature grid must be odd and at least {MIN_SOLVE_GRID}")
    expr = _as_expr(sigma)
    f = compile_expr(expr)
    lam = G.problem.lam
    ts = np.linspace(0.0, G.length, m)
    sig = _samples(f, ts, lam, "sigma")
    i, j = np.arange(m)[:, None], np.arange(m)
    weights = _simpson_weights(i, j) + _simpson_weights(m - 1 - i, j - i)
    grid = G.eval_grid(ts, ts)
    # the midpoints of [t_0, t_1] for row 1 and of [t_(m-2), t_(m-1)] for row m - 2
    rows, mids = np.array([1, m - 2]), 0.5 * (ts[[0, m - 2]] + ts[[1, m - 1]])
    gm = np.diagonal(G.eval_grid(ts[rows], mids))
    sig_mids = _samples(f, mids, lam, "sigma")
    with np.errstate(over="ignore", invalid="ignore"):
        values = (weights * grid) @ sig
        values[rows] += (4.0 / 6.0) * gm * sig_mids
        values *= ts[1] - ts[0]
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{G.problem.kind.value} solution not finite: "
                                 "the Green integral of the source overflows")
    source = sigma if isinstance(sigma, str) else "<expr>"
    return SampledSolution(G.problem.kind, ts, values, source)


@dataclass
class DominationRow:
    tag: str
    premise: str
    applicable: bool
    passed: bool
    worst_violation: float
    location: tuple[float, float]


def _check_pointwise(diff: np.ndarray, ts: np.ndarray, scale: float):
    """diff >= -slack everywhere; returns (passed, worst, location)."""
    slack = SLACK_REL * scale
    i, j = np.unravel_index(np.argmin(diff), diff.shape)
    worst = float(diff[i, j])
    return bool(worst >= -slack), worst, (float(ts[i]), float(ts[j]))


def check_kernel_domination(op: LinearOperator, lam: float) -> list[DominationRow]:
    """The pointwise kernel dominations implied by a constant-sign premise:
    premise >= 0 gives A >= |B|, premise <= 0 gives A <= -|B| on the base
    square, for the pairs (N, D), (N, M1) and (M2, D)."""
    kernel = kernel_source(lam)
    ts = np.linspace(0.0, op.length, DOMINATION_GRID)
    rows = []
    for tag, (premise, primary, secondary) in THEOREM_TAGS.items():
        premise_class = _classify(kernel, *kernel_problem(op, premise))[0]
        name = f"{tag}: {KERNEL_CODES[premise][1].value}[2T] {premise_class}"
        if premise_class not in (NONNEGATIVE, NONPOSITIVE):
            rows.append(DominationRow(name, premise_class, False, True, 0.0, (0.0, 0.0)))
            continue
        A = kernel(*kernel_problem(op, primary)).eval_grid(ts, ts)
        B = kernel(*kernel_problem(op, secondary)).eval_grid(ts, ts)
        scale = max(np.abs(A).max(), np.abs(B).max())
        if premise_class == NONNEGATIVE:
            diff = A - np.abs(B)
        else:
            diff = -np.abs(B) - A
        passed, worst, loc = _check_pointwise(diff, ts, scale)
        rows.append(DominationRow(name, premise_class, True, passed, worst, loc))
    return rows


@dataclass
class ComparisonReport:
    tag: str
    case: int
    applicable: bool
    premise: str
    passed: bool
    conclusions: list[dict]
    primary: SampledSolution | None = None
    secondary: SampledSolution | None = None
    # the kernels the check built (greens.kernel_source of its lambda), for
    # callers that solve more problems of the same operator
    kernel: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {"tag": self.tag, "case": self.case, "applicable": self.applicable,
                "premise": self.premise, "pass": self.passed,
                "conclusions": self.conclusions}


# case -> (sign the premise kernel needs, the sources' hypothesis, whether
#          samples (s1, s2) meet it within a bar, the conclusions as (name,
#          slack of the samples (u1, u2), nonnegative where the conclusion holds))
_CASES = {
    1: (NONNEGATIVE, "|sigma2| <= sigma1",
        lambda s1, s2, tol: np.all(np.abs(s2) <= s1 + tol),
        [("|u2| <= u1", lambda u1, u2: u1 - np.abs(u2))]),
    2: (NONPOSITIVE, "0 <= sigma2 <= sigma1",
        lambda s1, s2, tol: np.all(s2 >= -tol) and np.all(s2 <= s1 + tol),
        [("u1 <= 0", lambda u1, u2: -u1), ("u1 <= u2", lambda u1, u2: u2 - u1)]),
    3: (NONPOSITIVE, "sigma1 <= sigma2 <= 0",
        lambda s1, s2, tol: np.all(s2 <= tol) and np.all(s1 <= s2 + tol),
        [("u1 >= 0", lambda u1, u2: u1), ("u2 <= u1", lambda u1, u2: u1 - u2)]),
}


def check_solution_comparison(tag: str, case: int, op: LinearOperator, lam: float,
                              sigma1, sigma2, m: int = 81) -> ComparisonReport:
    """One case of a comparison theorem (THEOREM_TAGS): the premise sign,
    source hypothesis and conclusions on u1 (primary) and u2 (secondary)
    are the case's row of _CASES.  The hypothesis is verified on the
    quadrature grid and violations are rejected before solving; a premise
    kernel of the wrong sign yields a not-applicable report.
    """
    if tag not in THEOREM_TAGS:
        raise ValueError(f"unknown theorem tag {tag!r}; expected one of {list(THEOREM_TAGS)}")
    if case not in _CASES:
        raise ValueError("case must be 1, 2 or 3")
    premise, primary, secondary = THEOREM_TAGS[tag]
    required, hypothesis, holds, conclusions = _CASES[case]

    f1 = compile_expr(_as_expr(sigma1))
    f2 = compile_expr(_as_expr(sigma2))
    ts = np.linspace(0.0, op.length, m)
    s1 = _samples(f1, ts, lam, "sigma1")
    s2 = _samples(f2, ts, lam, "sigma2")
    htol = 1e-12 * max(1.0, np.abs(s1).max(), np.abs(s2).max())
    if not holds(s1, s2, htol):
        raise HypothesisError(f"case {case} needs {hypothesis} on the interval")

    kernel = kernel_source(lam)
    premise_class = _classify(kernel, *kernel_problem(op, premise))[0]
    if premise_class not in (required, ZERO_ON_GRID):
        report = ComparisonReport(tag, case, False, premise_class, True, [])
        report.kernel = kernel
        return report

    u1 = solve_bvp(kernel(*kernel_problem(op, primary)), sigma1, m)
    u2 = solve_bvp(kernel(*kernel_problem(op, secondary)), sigma2, m)
    scale = max(np.abs(u1.values).max(), np.abs(u2.values).max(), 1e-300)
    slack = SLACK_REL * scale
    rows = []
    for name, slack_of in conclusions:
        diff = slack_of(u1.values, u2.values)
        worst = float(diff.min())
        rows.append({"conclusion": name, "worst_slack": worst,
                     "location": float(ts[int(np.argmin(diff))]), "pass": bool(worst >= -slack)})
    passed = all(c["pass"] for c in rows)
    report = ComparisonReport(tag, case, True, premise_class, passed, rows, u1, u2)
    report.kernel = kernel
    return report
