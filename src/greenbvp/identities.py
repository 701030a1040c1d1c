"""Numerical verification of the kernel decomposition and connecting identities.

Every check reports the sup-norm residual of one identity over a tensor grid
on the base square, together with the location of the worst point.  The
doubled- and quadrupled-interval kernels are evaluated at the reflected and
shifted arguments the formulas prescribe; lambda values at which any involved
problem is nearly resonant are skipped rather than failed, since the
identities presuppose nonresonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import BCKind, GreensEvaluator, ProblemSpec, ResonantProblemError, build_greens
from .integrate import DEFAULT_TOL
from .operators import LinearOperator, extend_to_double, extend_to_quadruple, reflect

__all__ = [
    "IdentityReport",
    "check_symmetry",
    "check_decomposition",
    "check_connecting",
    "check_mixed_reflection",
    "check_slope_constancy",
    "run_identities",
    "DECOMPOSITION_TAGS",
    "CONNECTING_TAGS",
    "ALL_TAGS",
]

# Identities presuppose nonresonance; kernels whose resonance margin (the
# smallest singular value of the boundary functionals on the orthonormal
# solution graph, independent of the segment count) is within two orders of
# the build refusal threshold are skipped, not failed.
SKIP_MARGIN = 1e-8
DEFAULT_GRID = 41
DEFAULT_TOLERANCE = 1e-6


@dataclass
class IdentityReport:
    tag: str
    lam: float
    m: int
    residual: float
    location: tuple[float, float]
    passed: bool
    tol: float
    skipped: bool = False
    reason: str = ""

    def to_row(self) -> dict:
        return {
            "tag": self.tag,
            "lambda": self.lam,
            "m": self.m,
            "residual": self.residual,
            "location": list(self.location),
            "pass": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
        }


def _report(tag, lam, m, diff, ts, ss, tol) -> IdentityReport:
    i, j = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
    residual = float(np.abs(diff[i, j]))
    return IdentityReport(tag, lam, m, residual, (float(ts[i]), float(ss[j])),
                          residual <= tol, tol)


def check_symmetry(G2T: GreensEvaluator, m: int = DEFAULT_GRID,
                   tol: float = 1e-7) -> IdentityReport:
    """Residual of G(t,s) = G(L-t, L-s) over the full square of an
    extended-interval kernel under a reflection-closed boundary family."""
    L = G2T.length
    ts = np.linspace(0.0, L, m)
    diff = G2T.eval_grid(ts, ts) - G2T.eval_grid(L - ts, L - ts)
    tag = f"symmetry-{G2T.problem.kind.value}"
    return _report(tag, G2T.problem.lam, m, diff, ts, ts, tol)


# tag -> (base kernel, big kernel, interval factor, signed argument transforms)
# transforms give the t argument passed to the big kernel; T is the base length.
DECOMPOSITION_TAGS = {
    "N-P2T": ("N", "P2T", 2, [(+1, "t"), (+1, "2T-t")]),
    "D-P2T": ("D", "P2T", 2, [(+1, "t"), (-1, "2T-t")]),
    "N-N2T": ("N", "N2T", 2, [(+1, "t"), (+1, "2T-t")]),
    "D-D2T": ("D", "D2T", 2, [(+1, "t"), (-1, "2T-t")]),
    "M1-A2T": ("M1", "A2T", 2, [(+1, "t"), (-1, "2T-t")]),
    "M2-A2T": ("M2", "A2T", 2, [(+1, "t"), (+1, "2T-t")]),
    "M1-N2T": ("M1", "N2T", 2, [(+1, "t"), (-1, "2T-t")]),
    "M2-D2T": ("M2", "D2T", 2, [(+1, "t"), (+1, "2T-t")]),
    "N-P4T": ("N", "P4T", 4, [(+1, "t"), (+1, "4T-t"), (+1, "2T-t"), (+1, "2T+t")]),
    "D-P4T": ("D", "P4T", 4, [(+1, "t"), (-1, "4T-t"), (-1, "2T-t"), (+1, "2T+t")]),
    "M1-P4T": ("M1", "P4T", 4, [(+1, "t"), (+1, "4T-t"), (-1, "2T-t"), (-1, "2T+t")]),
    "M2-P4T": ("M2", "P4T", 4, [(+1, "t"), (-1, "4T-t"), (+1, "2T-t"), (-1, "2T+t")]),
}

# tag -> (big kernel, base pair, has reflected companion)
# direct:    big(t, s)      = (sum of base pair) / divisor
# reflected: big(2T - t, s) = (difference of base pair) / divisor
CONNECTING_TAGS = {
    "P2T-ND": ("P2T", ("N", "D"), 2, True),
    "A2T-M2M1": ("A2T", ("M2", "M1"), 2, True),
    "N2T-NM1": ("N2T", ("N", "M1"), 2, True),
    "D2T-M2D": ("D2T", ("M2", "D"), 2, True),
    "P4T-QUARTER": ("P4T", ("N", "D", "M1", "M2"), 4, False),
}


def _transformed(ts: np.ndarray, expr: str, T: float) -> np.ndarray:
    if expr == "t":
        return ts
    if expr == "2T-t":
        return 2 * T - ts
    if expr == "4T-t":
        return 4 * T - ts
    if expr == "2T+t":
        return 2 * T + ts
    raise ValueError(f"unknown transform {expr!r}")


def check_decomposition(tag: str, base: GreensEvaluator, big: GreensEvaluator,
                        m: int = DEFAULT_GRID, tol: float = DEFAULT_TOLERANCE) -> IdentityReport:
    """Residual of base(t,s) = signed combination of big-kernel values on I x I."""
    if tag not in DECOMPOSITION_TAGS:
        raise ValueError(f"unknown decomposition tag {tag!r}")
    _, _, factor, terms = DECOMPOSITION_TAGS[tag]
    T = base.length
    if abs(big.length - factor * T) > 1e-9 * max(1.0, T):
        raise ValueError(
            f"mismatched intervals for {tag}: base length {T}, big length {big.length} "
            f"(expected factor {factor})")
    ts = np.linspace(0.0, T, m)
    combo = np.zeros((m, m))
    for sign, expr in terms:
        combo += sign * big.eval_grid(_transformed(ts, expr, T), ts)
    diff = base.eval_grid(ts, ts) - combo
    return _report(tag, base.problem.lam, m, diff, ts, ts, tol)


def check_connecting(tag: str, base_list: list[GreensEvaluator], big: GreensEvaluator,
                     m: int = DEFAULT_GRID, tol: float = DEFAULT_TOLERANCE) -> IdentityReport:
    """Residual of the averaged connecting relation, including the companion
    at the reflected argument where the formula provides one."""
    if tag not in CONNECTING_TAGS:
        raise ValueError(f"unknown connecting tag {tag!r}")
    _, pair, divisor, has_reflected = CONNECTING_TAGS[tag]
    if len(base_list) != len(pair):
        raise ValueError(f"{tag} needs {len(pair)} base kernels, got {len(base_list)}")
    T = base_list[0].length
    if abs(big.length - (2 if divisor == 2 else 4) * T) > 1e-9 * max(1.0, T):
        raise ValueError(f"mismatched intervals for {tag}")
    ts = np.linspace(0.0, T, m)
    bases = [G.eval_grid(ts, ts) for G in base_list]
    direct = big.eval_grid(ts, ts) - sum(bases) / divisor
    diff = np.abs(direct)
    if has_reflected:
        reflected = big.eval_grid(2 * T - ts, ts) - (bases[0] - bases[1]) / divisor
        diff = np.maximum(diff, np.abs(reflected))
    return _report(tag, big.problem.lam, m, diff, ts, ts, tol)


def check_mixed_reflection(op: LinearOperator, lam: float, m: int = DEFAULT_GRID,
                           tol: float = DEFAULT_TOLERANCE,
                           build_tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Residuals of the two mixed-problem reflection identities:
    G_M1(T-t, T-s) equals the mixed-2 kernel of the reflected operator
    (and vice versa)."""
    ref = reflect(op)
    T = op.length
    GM1 = build_greens(ProblemSpec(op, BCKind.MIXED1, lam), tol=build_tol)
    GM2 = build_greens(ProblemSpec(op, BCKind.MIXED2, lam), tol=build_tol)
    GM1r = build_greens(ProblemSpec(ref, BCKind.MIXED1, lam), tol=build_tol)
    GM2r = build_greens(ProblemSpec(ref, BCKind.MIXED2, lam), tol=build_tol)
    ts = np.linspace(0.0, T, m)
    reports = []
    diff = GM1.eval_grid(T - ts, T - ts) - GM2r.eval_grid(ts, ts)
    reports.append(_report("M1-reflection", lam, m, diff, ts, ts, tol))
    diff = GM2.eval_grid(T - ts, T - ts) - GM1r.eval_grid(ts, ts)
    reports.append(_report("M2-reflection", lam, m, diff, ts, ts, tol))
    return reports


def check_slope_constancy(G: GreensEvaluator, m: int = DEFAULT_GRID,
                          tol: float = 1e-7) -> IdentityReport:
    """Residual of the slope-one property of constant-coefficient periodic
    kernels: G(t,s) = G(t-s, 0) for s <= t and G(L+t-s, 0) otherwise."""
    L = G.length
    ts = np.linspace(0.0, L, m)
    values = G.eval_grid(ts, ts)
    taus = ts[:, None] - ts[None, :]
    taus = np.where(taus >= 0, taus, L + taus)
    flat = np.unique(np.round(taus.ravel(), 14))
    col = G.eval_grid(flat, np.array([0.0]))[:, 0]
    lookup = dict(zip(flat, col))
    ref = np.vectorize(lambda x: lookup[round(x, 14)])(taus)
    return _report("slope-one", G.problem.lam, m, values - ref, ts, ts, tol)


ALL_TAGS = (list(DECOMPOSITION_TAGS) + list(CONNECTING_TAGS)
            + ["symmetry", "mixed-reflection", "slope-one"])

_BASE_KINDS = {"N": BCKind.NEUMANN, "D": BCKind.DIRICHLET,
               "M1": BCKind.MIXED1, "M2": BCKind.MIXED2}
_BIG_KINDS = {"P2T": BCKind.PERIODIC, "A2T": BCKind.ANTIPERIODIC,
              "N2T": BCKind.NEUMANN, "D2T": BCKind.DIRICHLET}


def run_identities(op: LinearOperator, lam: float, tags=None, m: int = DEFAULT_GRID,
                   tol: float = DEFAULT_TOLERANCE, build_tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Run the requested identity checks (default: all applicable) for the
    base operator at one lambda, sharing kernel builds across identities.

    Problems that fail to build or whose resonance margin (the smallest
    singular value of the boundary functionals on the orthonormal solution
    graph, which does not depend on the segment count) falls below
    SKIP_MARGIN are treated as resonant: identities touching them produce
    skipped reports.
    """
    tags = list(tags) if tags else list(ALL_TAGS)
    op2 = extend_to_double(op)
    op4 = extend_to_quadruple(op)

    cache: dict[str, GreensEvaluator | None] = {}

    def kernel(code: str) -> GreensEvaluator | None:
        if code in cache:
            return cache[code]
        if code in _BASE_KINDS:
            problem = ProblemSpec(op, _BASE_KINDS[code], lam)
        elif code in _BIG_KINDS:
            problem = ProblemSpec(op2, _BIG_KINDS[code], lam)
        else:
            problem = ProblemSpec(op4, BCKind.PERIODIC, lam)
        try:
            G = build_greens(problem, tol=build_tol)
        except ResonantProblemError:
            cache[code] = None
            return None
        cache[code] = None if G.resonance_margin < SKIP_MARGIN else G
        return cache[code]

    def skip(tag, codes):
        missing = [c for c in codes if kernel(c) is None]
        if missing:
            return IdentityReport(tag, lam, m, 0.0, (0.0, 0.0), True, tol,
                                  skipped=True,
                                  reason=f"resonant: {', '.join(missing)}")
        return None

    reports = []
    for tag in tags:
        if tag in DECOMPOSITION_TAGS:
            base_code, big_code, _, _ = DECOMPOSITION_TAGS[tag]
            row = skip(tag, [base_code, big_code])
            reports.append(row or check_decomposition(tag, kernel(base_code),
                                                      kernel(big_code), m, tol))
        elif tag in CONNECTING_TAGS:
            big_code, pair, _, _ = CONNECTING_TAGS[tag]
            row = skip(tag, [big_code, *pair])
            reports.append(row or check_connecting(tag, [kernel(c) for c in pair],
                                                   kernel(big_code), m, tol))
        elif tag == "symmetry":
            for code in ("P2T", "A2T", "N2T", "D2T"):
                row = skip(f"symmetry-{code.lower()}", [code])
                reports.append(row or check_symmetry(kernel(code), m, tol=max(tol, 1e-7)))
        elif tag == "mixed-reflection":
            try:
                reports.extend(check_mixed_reflection(op, lam, m, tol, build_tol))
            except Exception as exc:  # resonance in the reflected problems
                reports.append(IdentityReport("mixed-reflection", lam, m, 0.0,
                                              (0.0, 0.0), True, tol, skipped=True,
                                              reason=str(exc)))
        elif tag == "slope-one":
            if not all(op2.is_t_constant_on(lo, hi) for lo, hi in
                       zip(op2.breakpoints()[:-1], op2.breakpoints()[1:])):
                reports.append(IdentityReport("slope-one", lam, m, 0.0, (0.0, 0.0),
                                              True, tol, skipped=True,
                                              reason="variable coefficients"))
                continue
            row = skip("slope-one", ["P2T"])
            reports.append(row or check_slope_constancy(kernel("P2T"), m, tol=max(tol, 1e-7)))
        else:
            raise ValueError(f"unknown identity tag {tag!r}")
    return reports
