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

from .greens import BCKind, GreensEvaluator, ResonantProblemError, kernel_problem, kernel_source
from .operators import LinearOperator, extend_to_double, reflect

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
# The bar of the decomposition, connecting and mixed-reflection identities;
# symmetry and slope-one compare one kernel with itself and use SELF_TOLERANCE.
# Each is relative to the largest |value| of the kernel grids a row evaluates,
# where that exceeds 1: near resonance kernels grow large (_report).
DEFAULT_TOLERANCE = 1e-6
SELF_TOLERANCE = 1e-7


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
            "tol": self.tol,
        }


def _grid(length: float, m: int) -> np.ndarray:
    """The m uniform points of [0, length] on which a check samples; a grid
    of fewer than 2 points checks nothing and is refused."""
    if m < 2:
        raise ValueError(f"identity grid size m must be at least 2, got {m}")
    return np.linspace(0.0, length, m)


def _report(tag, lam, m, diff, ts, tol, grids) -> IdentityReport:
    """The worst point of diff on ts x ts; the bar is tol times the largest
    |value| of the row's kernel grids, where that exceeds 1."""
    i, j = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
    residual = float(np.abs(diff[i, j]))
    bar = tol * max(1.0, *(float(np.abs(g).max()) for g in grids))
    return IdentityReport(tag, lam, m, residual, (float(ts[i]), float(ts[j])),
                          residual <= bar, bar)


def check_symmetry(G2T: GreensEvaluator, m: int = DEFAULT_GRID) -> IdentityReport:
    """Residual of G(t,s) = G(L-t, L-s) over the full square of an
    extended-interval kernel under a reflection-closed boundary family."""
    L = G2T.length
    ts = _grid(L, m)
    grids = [G2T.eval_grid(ts, ts), G2T.eval_grid(L - ts, L - ts)]
    tag = f"symmetry-{G2T.problem.kind.value}"
    return _report(tag, G2T.problem.lam, m, grids[0] - grids[1], ts, SELF_TOLERANCE, grids)


# tag -> (base kernel, big kernel, signed images (sign, a, b)): base(t, s) is
# the sum of sign * big(a*T + b*t, s) over the images, T the base length and
# the big interval as many times T as there are images.
DECOMPOSITION_TAGS = {
    "N-P2T": ("N", "P2T", [(+1, 0, 1), (+1, 2, -1)]),
    "D-P2T": ("D", "P2T", [(+1, 0, 1), (-1, 2, -1)]),
    "N-N2T": ("N", "N2T", [(+1, 0, 1), (+1, 2, -1)]),
    "D-D2T": ("D", "D2T", [(+1, 0, 1), (-1, 2, -1)]),
    "M1-A2T": ("M1", "A2T", [(+1, 0, 1), (-1, 2, -1)]),
    "M2-A2T": ("M2", "A2T", [(+1, 0, 1), (+1, 2, -1)]),
    "M1-N2T": ("M1", "N2T", [(+1, 0, 1), (-1, 2, -1)]),
    "M2-D2T": ("M2", "D2T", [(+1, 0, 1), (+1, 2, -1)]),
    "N-P4T": ("N", "P4T", [(+1, 0, 1), (+1, 4, -1), (+1, 2, -1), (+1, 2, 1)]),
    "D-P4T": ("D", "P4T", [(+1, 0, 1), (-1, 4, -1), (-1, 2, -1), (+1, 2, 1)]),
    "M1-P4T": ("M1", "P4T", [(+1, 0, 1), (+1, 4, -1), (-1, 2, -1), (-1, 2, 1)]),
    "M2-P4T": ("M2", "P4T", [(+1, 0, 1), (-1, 4, -1), (+1, 2, -1), (-1, 2, 1)]),
}

# tag -> (big kernel, base kernels, has reflected companion), the big interval
# as many times T as there are base kernels: big(t, s) is their mean, and the
# companion big(2T - t, s) half the difference of a base pair
CONNECTING_TAGS = {
    "P2T-ND": ("P2T", ("N", "D"), True),
    "A2T-M2M1": ("A2T", ("M2", "M1"), True),
    "N2T-NM1": ("N2T", ("N", "M1"), True),
    "D2T-M2D": ("D2T", ("M2", "D"), True),
    "P4T-QUARTER": ("P4T", ("N", "D", "M1", "M2"), False),
}


def _base_length(tag: str, base: GreensEvaluator, big: GreensEvaluator, factor: int) -> float:
    """The base length T, once the big kernel's interval is factor * T."""
    T = base.length
    if abs(big.length - factor * T) > 1e-9 * max(1.0, T):
        raise ValueError(f"mismatched intervals for {tag}: base length {T}, "
                         f"big length {big.length} (expected factor {factor})")
    return T


def check_decomposition(tag: str, base: GreensEvaluator, big: GreensEvaluator,
                        m: int = DEFAULT_GRID) -> IdentityReport:
    """Residual of base(t,s) = sum of sign * big(a*T + b*t, s) over the
    tag's images (DECOMPOSITION_TAGS) on I x I."""
    if tag not in DECOMPOSITION_TAGS:
        raise ValueError(f"unknown decomposition tag {tag!r}")
    terms = DECOMPOSITION_TAGS[tag][2]
    T = _base_length(tag, base, big, len(terms))
    ts = _grid(T, m)
    grids = [big.eval_grid(ts if (a, b) == (0, 1) else a * T + b * ts, ts)
             for _, a, b in terms]
    combo = sum(sign * grid for (sign, _, _), grid in zip(terms, grids))
    grids.append(base.eval_grid(ts, ts))
    return _report(tag, base.problem.lam, m, grids[-1] - combo, ts, DEFAULT_TOLERANCE, grids)


def check_connecting(tag: str, base_list: list[GreensEvaluator], big: GreensEvaluator,
                     m: int = DEFAULT_GRID) -> IdentityReport:
    """Residual of the averaged connecting relation, including the companion
    at the reflected argument where the formula provides one."""
    if tag not in CONNECTING_TAGS:
        raise ValueError(f"unknown connecting tag {tag!r}")
    _, pair, has_reflected = CONNECTING_TAGS[tag]
    if len(base_list) != len(pair):
        raise ValueError(f"{tag} needs {len(pair)} base kernels, got {len(base_list)}")
    T = _base_length(tag, base_list[0], big, len(pair))
    ts = _grid(T, m)
    bases = [G.eval_grid(ts, ts) for G in base_list]
    grids = bases + [big.eval_grid(ts, ts)]
    diff = np.abs(grids[-1] - sum(bases) / len(pair))
    if has_reflected:
        grids.append(big.eval_grid(2 * T - ts, ts))
        diff = np.maximum(diff, np.abs(grids[-1] - (bases[0] - bases[1]) / len(pair)))
    return _report(tag, big.problem.lam, m, diff, ts, DEFAULT_TOLERANCE, grids)


def check_mixed_reflection(G: GreensEvaluator, G_reflected: GreensEvaluator,
                           m: int = DEFAULT_GRID) -> IdentityReport:
    """Residual of a mixed-problem reflection identity: G(T-t, T-s) equals
    G_reflected(t, s), where G is the M1 (M2) kernel of an operator and
    G_reflected the M2 (M1) kernel of its reflection (operators.reflect)."""
    tag = {BCKind.MIXED1: "M1-reflection", BCKind.MIXED2: "M2-reflection"}.get(G.problem.kind)
    if tag is None:
        raise ValueError(f"mixed reflection needs an M1 or M2 kernel, got {G.problem.kind.value}")
    T = G.length
    ts = _grid(T, m)
    grids = [G.eval_grid(T - ts, T - ts), G_reflected.eval_grid(ts, ts)]
    return _report(tag, G.problem.lam, m, grids[0] - grids[1], ts, DEFAULT_TOLERANCE, grids)


def check_slope_constancy(G: GreensEvaluator, m: int = DEFAULT_GRID) -> IdentityReport:
    """Residual of the slope-one property of constant-coefficient periodic
    kernels: G(t,s) = G(t-s, 0) for s <= t and G(L+t-s, 0) otherwise."""
    L = G.length
    ts = _grid(L, m)
    values = G.eval_grid(ts, ts)
    taus = ts[:, None] - ts[None, :]
    taus = np.where(taus >= 0, taus, L + taus)
    flat, inverse = np.unique(np.round(taus, 14), return_inverse=True)
    ref = G.eval_grid(flat, np.array([0.0]))[inverse.ravel(), 0].reshape(taus.shape)
    return _report("slope-one", G.problem.lam, m, values - ref, ts, SELF_TOLERANCE,
                   [values, ref])


ALL_TAGS = (list(DECOMPOSITION_TAGS) + list(CONNECTING_TAGS)
            + ["symmetry", "mixed-reflection", "slope-one"])


def run_identities(op: LinearOperator, lam: float, tags=None,
                   m: int = DEFAULT_GRID) -> list[IdentityReport]:
    """Run the requested identity checks (default: all applicable) for the
    base operator at one lambda, sharing kernel builds across identities;
    every row that is not skipped comes from its public check.
    The base operator alone is integrated (its extensions and reflection
    derive their systems from it, integrate._system), and the kernels of
    each operator share its system and grid factors (greens.kernel_source).

    Problems refused as resonant or whose resonance margin (the smallest
    singular value of the boundary functionals on the orthonormal solution
    graph, which does not depend on the segment count) falls below
    SKIP_MARGIN are treated as resonant: identities touching them produce
    skipped reports.  Any other error propagates.
    """
    _grid(op.length, m)  # refuses m < 2 before any kernel is built
    tags = list(tags) if tags else list(ALL_TAGS)
    op2 = extend_to_double(op)
    kernels = kernel_source(lam)
    reflected = {}  # the mixed problems of reflect(op), once mixed-reflection asks

    def kernel(code: str) -> GreensEvaluator | None:
        try:
            G = kernels(*(reflected.get(code) or kernel_problem(op, code)))
        except ResonantProblemError:
            return None
        return None if G.resonance_margin < SKIP_MARGIN else G

    def skip(tag, codes, tol=DEFAULT_TOLERANCE):
        missing = [c for c in codes if kernel(c) is None]
        if missing:
            return IdentityReport(tag, lam, m, 0.0, (0.0, 0.0), True, tol,
                                  skipped=True,
                                  reason=f"resonant: {', '.join(missing)}")
        return None

    reports = []
    for tag in tags:
        if tag in DECOMPOSITION_TAGS:
            base_code, big_code, _ = DECOMPOSITION_TAGS[tag]
            row = skip(tag, [base_code, big_code])
            reports.append(row or check_decomposition(tag, kernel(base_code),
                                                      kernel(big_code), m))
        elif tag in CONNECTING_TAGS:
            big_code, pair, _ = CONNECTING_TAGS[tag]
            row = skip(tag, [big_code, *pair])
            reports.append(row or check_connecting(tag, [kernel(c) for c in pair],
                                                   kernel(big_code), m))
        elif tag == "symmetry":
            for code in ("P2T", "A2T", "N2T", "D2T"):
                row = skip(f"symmetry-{code.lower()}", [code], SELF_TOLERANCE)
                reports.append(row or check_symmetry(kernel(code), m))
        elif tag == "mixed-reflection":
            ref = reflect(op)
            reflected.update({"reflected M1": (ref, BCKind.MIXED1),
                              "reflected M2": (ref, BCKind.MIXED2)})
            row = skip(tag, ["M1", "M2", "reflected M1", "reflected M2"])
            reports.extend([row] if row else
                           [check_mixed_reflection(kernel("M1"), kernel("reflected M2"), m),
                            check_mixed_reflection(kernel("M2"), kernel("reflected M1"), m)])
        elif tag == "slope-one":
            if not all(op2.is_t_constant_on(lo, hi) for lo, hi in
                       zip(op2.breakpoints()[:-1], op2.breakpoints()[1:])):
                reports.append(IdentityReport("slope-one", lam, m, 0.0, (0.0, 0.0),
                                              True, SELF_TOLERANCE, skipped=True,
                                              reason="variable coefficients"))
                continue
            row = skip("slope-one", ["P2T"], SELF_TOLERANCE)
            reports.append(row or check_slope_constancy(kernel("P2T"), m))
        else:
            raise ValueError(f"unknown identity tag {tag!r}")
    return reports
