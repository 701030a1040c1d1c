"""Eigenvalue location and spectral identity verification.

Eigenvalues are the zeros of the characteristic function det(C W) of
char_det_scan: the boundary functionals C on an orthonormal basis W of the
solution graph, the same matrix whose smallest singular value is a kernel's
resonance margin.  A scan over a lambda window finds sign-change brackets
(refined by bisection plus a short secant polish) and also dips of |det|
that touch zero without a sign change; the latter are flagged as suspected
even-multiplicity roots, which really occur (periodic and antiperiodic
problems carry double eigenvalues inherited from two two-point problems at
once).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .greens import BCKind, ProblemSpec, boundary_matrix, char_det_scan
from .integrate import DEFAULT_TOL, integrate_fundamental
from .operators import LinearOperator, extend_to_double, extend_to_quadruple, reflect

__all__ = [
    "EigenvalueHit",
    "Spectrum",
    "MultiplicityError",
    "find_eigenvalues",
    "eigenfunction_at",
    "principal_eigenvalue",
    "verify_spectrum_unions",
    "verify_first_eigenvalue_relations",
]

NULL_SPACE_TOL = 1e-6    # singular value regarded as part of the null space

# The characteristic function is det(C W) / ||C||_2^d on an orthonormal
# solution-graph basis W: its magnitude is bounded by the smallest singular
# value, which is at most one, for every problem and lambda (no exponential
# growth or decay with |lambda|), so root and dip detection use absolute
# thresholds.
EXACT_HIT_TOL = 1e-9      # scan value counted as sitting exactly on a root
DIP_PREFILTER_TOL = 1e-2  # parabola-vertex depth that triggers a dip refinement
DIP_CONFIRM_TOL = 1e-6    # refined dip depth accepted as a double root
ENDPOINT_TOL = 1e-6       # endpoint treated as nearly resonant


class MultiplicityError(ValueError):
    """The null space at this lambda has dimension >= 2."""


@dataclass(frozen=True)
class EigenvalueHit:
    lam: float
    sign_changes: int | None
    bracket_width: float
    even_multiplicity: bool = False


@dataclass
class Spectrum:
    kind: BCKind
    window: tuple[float, float]
    eigenvalues: list[EigenvalueHit] = field(default_factory=list)

    def lams(self) -> list[float]:
        return [e.lam for e in self.eigenvalues]

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "window": list(self.window),
            "eigenvalues": [
                {"lambda": e.lam, "sign_changes": e.sign_changes,
                 "even_multiplicity": e.even_multiplicity}
                for e in self.eigenvalues
            ],
        }


def _refine_brackets(det_batch, brackets, lam_tol):
    """Bisect all brackets in lockstep (one batched determinant sweep per
    iteration), then a short secant polish, also batched."""
    if not brackets:
        return []
    a = np.array([b[0] for b in brackets])
    b = np.array([b2[1] for b2 in brackets])
    fa = np.array([b3[2] for b3 in brackets])
    while np.max(b - a) > lam_tol:
        mid = 0.5 * (a + b)
        fm = det_batch(mid)
        same = np.sign(fm) == np.sign(fa)
        a = np.where(same, mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same, b, mid)
    x0, x1 = a.copy(), b.copy()
    f0, f1 = fa, det_batch(b)
    best_x = 0.5 * (a + b)
    best_f = det_batch(best_x)
    for _ in range(3):
        denom = f1 - f0
        with np.errstate(divide="ignore", invalid="ignore"):
            x2 = x1 - f1 * (x1 - x0) / denom
        bad = ~np.isfinite(x2) | (x2 < a) | (x2 > b)
        x2 = np.where(bad, best_x, x2)
        f2 = det_batch(x2)
        better = np.abs(f2) < np.abs(best_f)
        best_x = np.where(better, x2, best_x)
        best_f = np.where(better, f2, best_f)
        x0, f0, x1, f1 = x1, f1, x2, f2
    widths = np.maximum(b - a, lam_tol)
    return [(float(x), float(w)) for x, w in zip(best_x, widths)]


def _parabola_vertex(f0, f1, f2):
    """Vertex value of the parabola through three equally spaced samples;
    None when the samples are not convex."""
    curv = f0 - 2 * f1 + f2
    if curv <= 0:
        return None
    return f1 - (f2 - f0) ** 2 / (8 * curv)


def find_eigenvalues(op: LinearOperator, kind: BCKind, window, scan_step: float | None = None,
                     lam_tol: float = 1e-6, tol: float = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues in the window located to lam_tol.

    Sign changes of the characteristic function det(C W) (char_det_scan)
    bracket simple (odd-multiplicity) roots; dips of |det| that fall below
    DIP_CONFIRM_TOL without a sign change are refined and flagged as
    suspected even-multiplicity roots.  Resonant window endpoints are shrunk
    inward with a warning.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    width = hi - lo
    step = float(scan_step) if scan_step else width / 400.0
    if step <= 0:
        raise ValueError("scan_step must be positive")
    npts = max(5, int(np.ceil(width / step)) + 1)
    grid = np.linspace(lo, hi, npts)
    dets = char_det_scan(op, kind, grid, tol)
    absdet = np.abs(dets)

    # nearly resonant endpoints: drop them (shrinking the window) and warn
    start, stop = 0, len(grid)
    if absdet[0] <= ENDPOINT_TOL:
        warnings.warn(f"window endpoint {grid[0]:.6g} is nearly resonant; shrinking")
        start = 1
    if absdet[-1] <= ENDPOINT_TOL:
        warnings.warn(f"window endpoint {grid[-1]:.6g} is nearly resonant; shrinking")
        stop = len(grid) - 1
    grid, dets, absdet = grid[start:stop], dets[start:stop], absdet[start:stop]

    def det_fn(x):
        return float(char_det_scan(op, kind, [x], tol)[0])

    def det_batch(xs):
        return char_det_scan(op, kind, xs, tol)

    roots: list[tuple[float, float, bool]] = []  # (lam, bracket_width, even_mult)

    exact = absdet <= EXACT_HIT_TOL
    for i in np.nonzero(exact)[0]:
        left = dets[i - 1] if i > 0 else None
        right = dets[i + 1] if i + 1 < len(dets) else None
        even = left is not None and right is not None and np.sign(left) == np.sign(right)
        roots.append((float(grid[i]), 0.0, bool(even)))

    signs = np.sign(dets)
    brackets = []
    for i in range(len(grid) - 1):
        if exact[i] or exact[i + 1]:
            continue
        if signs[i] * signs[i + 1] < 0:
            brackets.append((grid[i], grid[i + 1], dets[i]))
    for x, w in _refine_brackets(det_batch, brackets, lam_tol):
        roots.append((x, max(w, lam_tol), False))

    for i in range(1, len(grid) - 1):
        if exact[i - 1] or exact[i] or exact[i + 1]:
            continue
        if not (absdet[i] < absdet[i - 1] and absdet[i] < absdet[i + 1]
                and signs[i - 1] == signs[i + 1] and signs[i - 1] != 0):
            continue
        vertex = _parabola_vertex(absdet[i - 1], absdet[i], absdet[i + 1])
        if vertex is None or vertex > DIP_PREFILTER_TOL:
            continue
        res = minimize_scalar(lambda x: abs(det_fn(x)), bounds=(grid[i - 1], grid[i + 1]),
                              method="bounded", options={"xatol": lam_tol / 10})
        if res.fun > DIP_CONFIRM_TOL:
            continue
        x = float(res.x)
        delta = max(4 * lam_tol, step * 1e-3)
        dm, dp = det_fn(x - delta), det_fn(x + delta)
        if (np.sign(dm) != np.sign(dp) and abs(dm) > DIP_CONFIRM_TOL
                and abs(dp) > DIP_CONFIRM_TOL):
            # a pair of close simple roots hiding inside one scan cell
            close = [(a, b, fa) for a, b, fa, fb in (
                (x - delta, x + delta, dm, dp),
                (grid[i - 1], x - delta, dets[i - 1], dm),
                (x + delta, grid[i + 1], dp, dets[i + 1])) if np.sign(fa) != np.sign(fb)]
            for r, w in _refine_brackets(det_batch, close, lam_tol):
                roots.append((r, w, False))
        else:
            roots.append((x, lam_tol, True))

    # deduplicate within 10 * lam_tol, preferring the narrower bracket
    roots.sort()
    merged: list[tuple[float, float, bool]] = []
    for r in roots:
        if merged and abs(r[0] - merged[-1][0]) <= 10 * lam_tol:
            if r[1] < merged[-1][1]:
                merged[-1] = r
            continue
        merged.append(r)

    hits = []
    for lam, wdt, even in merged:
        changes = None
        if not even:
            try:
                _, _, changes = eigenfunction_at(op, kind, lam, tol=tol)
            except MultiplicityError:
                even = True
        hits.append(EigenvalueHit(lam, changes, wdt, even))
    return Spectrum(kind=kind, window=(lo, hi), eigenvalues=hits)


def _null_space(op: LinearOperator, kind: BCKind, lam_star: float, tol: float):
    """SVD of the boundary matrix C[:, :d] + C[:, d:] Phi(T), whose null
    vectors are the coefficients of the eigenfunctions on the fundamental
    columns."""
    fs = integrate_fundamental(op, lam_star, tol=tol, dense=True)
    _, svals, vt = np.linalg.svd(boundary_matrix(ProblemSpec(op, kind, lam_star), fs))
    return fs, svals, vt


def eigenfunction_at(op: LinearOperator, kind: BCKind, lam_star: float,
                     tol: float = DEFAULT_TOL, npts: int = 401):
    """Eigenfunction samples at lam_star: (ts, values, interior sign changes).

    The coefficient vector is the smallest singular direction of the
    boundary matrix; values are normalized to max-abs 1 and sign changes
    counted ignoring |u| < 1e-6.  Raises MultiplicityError when the null
    space has dimension >= 2.
    """
    fs, svals, vt = _null_space(op, kind, lam_star, tol)
    scale = max(svals[0], 1e-300)
    if svals[-1] / scale > 1e-4:
        warnings.warn(f"lambda={lam_star:.8g} does not look like an eigenvalue "
                      f"(relative smallest singular value {svals[-1] / scale:.3e})")
    if len(svals) >= 2 and svals[-2] / scale < NULL_SPACE_TOL:
        raise MultiplicityError(
            f"null space dimension >= 2 at lambda={lam_star:.8g} "
            f"(singular values {svals[-2]:.2e}, {svals[-1]:.2e})")
    ts = np.linspace(0.0, op.length, npts)
    u = fs.phi(ts)[:, 0, :] @ vt[-1]
    u = u / np.abs(u).max()
    return ts, u, count_sign_changes(u)


def count_sign_changes(u: np.ndarray, ignore_below: float = 1e-6) -> int:
    sig = u[np.abs(u) > ignore_below]
    if sig.size == 0:
        return 0
    s = np.sign(sig)
    return int(np.sum(s[:-1] != s[1:]))


def _constant_sign_combination(op, kind, lam_star, tol) -> bool:
    """At a double root, search the 2-dim null space for a constant-sign
    eigenfunction by minimizing the smaller of the two sign masses."""
    fs, svals, vt = _null_space(op, kind, lam_star, tol)
    scale = max(svals[0], 1e-300)
    if svals[-1] / scale > 1e-4:
        return False
    if len(svals) < 2 or svals[-2] / scale > 1e-3:
        _, u, changes = eigenfunction_at(op, kind, lam_star, tol)
        return changes == 0
    ts = np.linspace(0.0, op.length, 401)
    rows = fs.phi(ts)[:, 0, :]
    u1, u2 = rows @ vt[-1], rows @ vt[-2]

    def violation(theta):
        u = np.cos(theta) * u1 + np.sin(theta) * u2
        u = u / np.abs(u).max()
        return min(max(u.max(), 0.0), max(-u.min(), 0.0))

    thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
    vals = np.array([violation(th) for th in thetas])
    k = int(np.argmin(vals))
    lo = thetas[k] - np.pi / 256
    hi = thetas[k] + np.pi / 256
    res = minimize_scalar(violation, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return min(res.fun, vals[k]) < 1e-5


def principal_eigenvalue(op: LinearOperator, kind: BCKind, window,
                         scan_step: float | None = None, lam_tol: float = 1e-6,
                         tol: float = DEFAULT_TOL) -> float:
    """The eigenvalue in the window whose eigenfunction has no interior sign
    change; when several qualify the largest is returned with a warning."""
    spec = find_eigenvalues(op, kind, window, scan_step=scan_step, lam_tol=lam_tol, tol=tol)
    candidates = [e.lam for e in spec.eigenvalues if e.sign_changes == 0]
    for e in spec.eigenvalues:
        if e.even_multiplicity and _constant_sign_combination(op, kind, e.lam, tol):
            candidates.append(e.lam)
    if not candidates:
        raise ValueError(f"no constant-sign eigenvalue of the {kind.value} problem "
                         f"in window {tuple(window)}")
    if len(candidates) > 1:
        warnings.warn(f"several constant-sign eigenvalues in window: {sorted(candidates)}; "
                      "returning the largest")
    return max(candidates)


@dataclass
class UnionCheck:
    tag: str
    left: list[float]
    right: list[float]
    unmatched: list[float]
    passed: bool

    def to_row(self) -> dict:
        return {"tag": self.tag, "left": self.left, "right": self.right,
                "unmatched": self.unmatched, "pass": self.passed}


def _match_sets(a: list[float], b: list[float], tol: float) -> list[float]:
    """Symmetric difference of two eigenvalue sets at tolerance tol."""
    unmatched = []
    for x in a:
        if not any(abs(x - y) <= tol for y in b):
            unmatched.append(x)
    for y in b:
        if not any(abs(y - x) <= tol for x in a):
            unmatched.append(y)
    return unmatched


def _is_reflection_symmetric(op: LinearOperator) -> bool:
    """a_k(t) == (-1)^k a_k(L - t) sampled on a grid."""
    from .operators import coeff_values
    ts = np.linspace(0.0, op.length, 257)
    ref = reflect(op)
    for k in range(op.order):
        a = coeff_values(op, k, ts)
        b = coeff_values(ref, k, ts)
        scale = max(1.0, np.abs(a).max())
        if np.abs(a - b).max() > 1e-10 * scale:
            return False
    return True


def verify_spectrum_unions(op: LinearOperator, window, lam_tol: float = 1e-6,
                           scan_step: float | None = None,
                           tol: float = DEFAULT_TOL) -> list[UnionCheck]:
    """Check the spectral union identities on the window.

    The doubled-interval problems carry each shared eigenvalue of two
    two-point problems as a double root, so flagged even-multiplicity hits
    participate in the matching like ordinary eigenvalues.
    """
    op2 = extend_to_double(op)
    op4 = extend_to_quadruple(op)
    opr = reflect(op)

    def lams(o, kind):
        return find_eigenvalues(o, kind, window, scan_step=scan_step,
                                lam_tol=lam_tol, tol=tol).lams()

    N, D = lams(op, BCKind.NEUMANN), lams(op, BCKind.DIRICHLET)
    M1, M2 = lams(op, BCKind.MIXED1), lams(op, BCKind.MIXED2)
    P2, A2 = lams(op2, BCKind.PERIODIC), lams(op2, BCKind.ANTIPERIODIC)
    N2, D2 = lams(op2, BCKind.NEUMANN), lams(op2, BCKind.DIRICHLET)
    P4 = lams(op4, BCKind.PERIODIC)
    M1r, M2r = lams(opr, BCKind.MIXED1), lams(opr, BCKind.MIXED2)

    match_tol = 10 * lam_tol

    def union(*sets):
        vals: list[float] = []
        for s in sets:
            for x in s:
                if not any(abs(x - y) <= match_tol for y in vals):
                    vals.append(x)
        return sorted(vals)

    checks = []
    for tag, left, right in [
        ("N+D=P2T", union(N, D), sorted(P2)),
        ("N+M1=N2T", union(N, M1), sorted(N2)),
        ("D+M2=D2T", union(D, M2), sorted(D2)),
        ("M1+M2=A2T", union(M1, M2), sorted(A2)),
        ("N+D+M1+M2=P4T", union(N, D, M1, M2), sorted(P4)),
        ("M1=M2-reflected", sorted(M1), sorted(M2r)),
        ("M2=M1-reflected", sorted(M2), sorted(M1r)),
    ]:
        unmatched = _match_sets(left, right, match_tol)
        checks.append(UnionCheck(tag, left, right, unmatched, not unmatched))
    if _is_reflection_symmetric(op):
        unmatched = _match_sets(sorted(M1), sorted(M2), match_tol)
        checks.append(UnionCheck("M1=M2 (reflection-symmetric coefficients)",
                                 sorted(M1), sorted(M2), unmatched, not unmatched))
    return checks


@dataclass
class FirstEigenvalueReport:
    principals: dict
    equalities: list[dict]
    orderings: list[dict]

    @property
    def all_passed(self) -> bool:
        return all(row["pass"] for row in self.equalities)

    def to_json(self) -> dict:
        return {"principals": self.principals, "equalities": self.equalities,
                "orderings": self.orderings}


def verify_first_eigenvalue_relations(op: LinearOperator, window,
                                      lam_tol: float = 1e-6,
                                      scan_step: float | None = None,
                                      tol: float = DEFAULT_TOL) -> FirstEigenvalueReport:
    """Verify the first-eigenvalue equalities across the nine problems and
    report (without asserting) the order of the base principals.

    Checked as equalities: principal of N[T] = P[2T] = N[2T] = P[4T] and
    principal of M2[T] = D[2T]; plus membership of the A[2T] principal in
    {M1[T], M2[T]}.  The strict-order directions are reported only.
    """
    op2 = extend_to_double(op)
    op4 = extend_to_quadruple(op)

    def princ(o, kind):
        return principal_eigenvalue(o, kind, window, scan_step=scan_step,
                                    lam_tol=lam_tol, tol=tol)

    principals = {
        "N[T]": princ(op, BCKind.NEUMANN),
        "D[T]": princ(op, BCKind.DIRICHLET),
        "M1[T]": princ(op, BCKind.MIXED1),
        "M2[T]": princ(op, BCKind.MIXED2),
        "P[2T]": princ(op2, BCKind.PERIODIC),
        "A[2T]": princ(op2, BCKind.ANTIPERIODIC),
        "N[2T]": princ(op2, BCKind.NEUMANN),
        "D[2T]": princ(op2, BCKind.DIRICHLET),
        "P[4T]": princ(op4, BCKind.PERIODIC),
    }
    match_tol = 10 * lam_tol
    equalities = []
    for tag, a, b in [
        ("N[T]=P[2T]", "N[T]", "P[2T]"),
        ("N[T]=N[2T]", "N[T]", "N[2T]"),
        ("N[T]=P[4T]", "N[T]", "P[4T]"),
        ("M2[T]=D[2T]", "M2[T]", "D[2T]"),
    ]:
        diff = abs(principals[a] - principals[b])
        equalities.append({"tag": tag, "values": [principals[a], principals[b]],
                           "diff": diff, "pass": diff <= match_tol})
    a2 = principals["A[2T]"]
    member = min(abs(a2 - principals["M1[T]"]), abs(a2 - principals["M2[T]"]))
    equalities.append({
        "tag": "A[2T] in {M1[T], M2[T]}",
        "values": [a2, principals["M1[T]"], principals["M2[T]"]],
        "diff": member,
        "pass": member <= match_tol,
    })

    orderings = []
    base = principals["N[T]"]
    for other in ("D[T]", "M1[T]", "M2[T]"):
        v = principals[other]
        rel = "=" if abs(base - v) <= match_tol else ("<" if base < v else ">")
        orderings.append({"tag": f"N[T] vs {other}", "values": [base, v], "relation": rel})
    return FirstEigenvalueReport(principals, equalities, orderings)
