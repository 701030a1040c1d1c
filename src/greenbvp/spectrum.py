"""Eigenvalue location and spectral identity verification.

Eigenvalues are the zeros of the characteristic function det(C W) of
char_det_scan: the boundary functionals C on an orthonormal basis W of the
solution graph, the same matrix whose smallest singular value is a kernel's
resonance margin.  A scan over a lambda window finds sign-change brackets,
narrowed by the safeguarded regula falsi that sign_interval shares and read
at the false-position point of the final bracket.  Where |det| dips between
scan points of one sign, the roots near the dip are counted by the argument
principle (det is entire in lambda): the dip is zoomed, SECTIONS uniform
cells a round, until it shows a sign change or closes on a root of even
multiplicity, which really occur (periodic and antiperiodic problems carry
double eigenvalues inherited from two two-point problems at once).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .greens import (KERNEL_CODES, BCKind, _BlockReduction, _boundary_coeffs, _boundary_norm,
                     char_det_scan, kernel_problem)
from .integrate import integrate_fundamental
from .operators import LinearOperator, coeff_values, reflect

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

# Thresholds on the singular values sigma_1 <= sigma_2 <= ... <= 1 of the
# graph matrix M = C W / ||C||_2 at a root (see _null_functions).
NOT_EIGENVALUE_TOL = 1e-4  # sigma_1 above: no eigenvalue (warning)
DOUBLE_ROOT_TOL = 1e-6     # sigma_2 below: the null space is two-dimensional
SIMPLE_SIGN_TOL = 1e-3     # sigma_2 above: one eigenfunction decides constant sign
OFF_ROOT = 1e-12           # relative step off a root where sigma_2 is unresolved

# Eigenfunctions are sampled at this many uniform points; sign changes are
# counted among the samples above SIGN_FLOOR in magnitude (max-abs 1).
EIGENFUNCTION_POINTS = 401
SIGN_FLOOR = 1e-6

# At a double root, the angles of the null-function samples must leave a gap
# of at least pi - SIGN_ANGLE_TOL for a constant-sign combination: at the
# largest sample an angle short of pi by delta is a sign violation of about
# delta times the maximum.
SIGN_ANGLE_TOL = 1e-5

# Intervals of the half perimeter of a root-count box, first and at most.
COUNT_NODES = 32
COUNT_NODES_MAX = 2048

# The bracket width to which find_eigenvalues locates eigenvalues unless told
# otherwise, as principal_eigenvalue and the verifiers do; two eigenvalues
# within MATCH_TOL of each other count as equal.
LAM_TOL = 1e-6
MATCH_TOL = 10 * LAM_TOL

# The most lambda points one scan may take.  The scan integrates them as one
# batch whose memory grows as points times segments (integrate.MAX_BATCH_BYTES
# bounds that product): at this bound u'' on [0, 1] over (0, 50) takes about
# 100 MB, and u'''' + (t-2)^4 u on [0, 2] over (-50, 0) about 240 MB.
MAX_SCAN_POINTS = 100_000

# Uniform cells per round of the dip zoom and of sign_interval's
# changed-problem scan: a lambda batch costs about as much as a single lambda.
SECTIONS = 16


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


def splittable(a, b, lam_tol):
    """Brackets wider than lam_tol whose midpoint lies strictly inside them.
    Below the float spacing at a root the midpoint collapses onto an end
    and no further point would shrink the bracket."""
    mid = 0.5 * (a + b)
    return (np.abs(b - a) > lam_tol) & (np.minimum(a, b) < mid) & (mid < np.maximum(a, b))


def _bracketed_roots(probe, a, b, fa, fb, tol):
    """Roots of f in brackets (a, b) with ends on its two sides and values
    fa, fb there (NaN where unknown), narrowed in lockstep to width tol by
    Illinois regula falsi, which bisects where an end value is unknown or two
    rounds did not halve the bracket and never proposes a point within tol / 2
    of an end (Dekker).  probe(x) returns points (k, p) about the proposals,
    f there and whether each lies on a's side; the bracket becomes the first
    cell from a whose right end does not.  Returns the false-position points
    of the final brackets from unhalved end values (else midpoints), a and b."""
    ends, f = np.array([a, b], dtype=float).T, np.array([fa, fb], dtype=float).T
    g, moved = f.copy(), np.zeros(ends.shape, bool)  # Illinois-halved f, ends moved last
    last = np.full((2, len(ends)), np.inf)  # bracket widths one and two rounds ago
    while (live := splittable(*ends.T, tol)).any():
        (A, B), (ga, gb) = ends[live].T, g[live].T
        lo, hi, mid = np.minimum(A, B), np.maximum(A, B), 0.5 * (A + B)
        with np.errstate(all="ignore"):
            x = B - gb * (B - A) / (gb - ga)
        x = np.where((hi - lo <= last[1, live] / 2) & (lo < x) & (x < hi), x, mid)
        last[:, live] = hi - lo, last[0, live]
        pts, fp, near = probe(np.clip(x, lo + tol / 2, hi - tol / 2))
        # the points in order from a; the next bracket ends at the first off a's side
        rows, order = np.arange(len(A))[:, None], np.argsort(abs(pts - A[:, None]), axis=1)
        xs = np.concatenate([A[:, None], pts[rows, order], B[:, None]], axis=1)
        fs = np.concatenate([f[live, :1], fp[rows, order], f[live, 1:]], axis=1)
        j = 1 + np.argmin(np.pad(near[rows, order], ((0, 0), (0, 1))), axis=1)
        cell = j[:, None] - [1, 0]
        now = cell != [0, xs.shape[1] - 1]  # the ends this round moves
        twice = (now == moved[live]).all(axis=1) & (now.sum(axis=1) == 1)
        ends[live], f[live], moved[live] = xs[rows, cell], fs[rows, cell], now
        g[live] = np.where(now, f[live], np.where(twice, 0.5, 1.0)[:, None] * g[live])
    (a, b), (fa, fb) = ends.T, f.T
    with np.errstate(all="ignore"):
        x = a - fa * (b - a) / (fb - fa)
    return np.where((np.minimum(a, b) <= x) & (x <= np.maximum(a, b)), x, 0.5 * (a + b)), a, b


def _refine_brackets(det_batch, brackets, lam_tol):
    """(root, width) of each bracket (a, b, det at a, det at b) by
    _bracketed_roots, det evaluated at each proposal and lam_tol / 2 either
    side of it in one batch; the width is at least lam_tol."""
    ends = np.array(brackets, dtype=float).reshape(-1, 4)
    ends[ends[:, 2] < 0] = ends[ends[:, 2] < 0][:, [1, 0, 3, 2]]  # det > 0 at each a

    def probe(x):
        pts = x[:, None] + lam_tol / 2 * np.array([-1.0, 0.0, 1.0])
        f = det_batch(pts.ravel()).reshape(pts.shape)
        return pts, f, f > 0

    roots, a, b = _bracketed_roots(probe, *ends.T, lam_tol)
    return [(float(x), float(w)) for x, w in zip(roots, np.maximum(abs(b - a), lam_tol))]


def _root_counts(det_batch, a, b) -> np.ndarray:
    """Roots of det in the square boxes [a, b] x [-h, h], h = (b - a) / 2, by
    the argument principle.  det(conj z) = conj det(z), so the count is the
    change of arg det along the upper half of the perimeter (b, b + ih,
    a + ih, a) over pi.  All boxes share one batched call per round; their
    nodes double until every phase step is below pi / 2."""
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]

    def det_on_path(s):
        # s in [0, 4]: right half side on [0, 1], top on [1, 3], left on [3, 4]
        z = (b + (a - b) * np.clip((s - 1) / 2, 0, 1)
             + 0.5j * (b - a) * np.minimum(np.minimum(s, 4 - s), 1))
        return det_batch(z.ravel()).reshape(z.shape)

    s = np.linspace(0, 4, COUNT_NODES + 1)
    f = det_on_path(s)
    while True:
        steps = np.angle(f[:, 1:] * f[:, :-1].conj())
        if np.abs(steps).max() < np.pi / 2 or len(s) > COUNT_NODES_MAX:
            return np.rint(steps.sum(axis=1) / np.pi).astype(int)
        s = np.linspace(0, 4, 2 * len(s) - 1)
        f = np.insert(f, np.arange(1, f.shape[1]), det_on_path(s[1::2]), axis=1)


def _dip_roots(det_batch, a, b, fa, fb, lam_tol):
    """(sign-change brackets, flagged roots) in dip cells [a, b] whose ends
    share a sign.  Cells that hold roots are zoomed in lockstep, one batched
    sweep of SECTIONS uniform cells per round keeping the two around the
    smallest |det|, until the probes change sign or the cell is narrower
    than lam_tol / 10 (or a few float spacings).  Then a nonzero count (even,
    as the ends share a sign) is one flagged root; zero is a non-real pair
    or a near miss."""
    keep = _root_counts(det_batch, a, b) != 0
    a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
    brackets, narrow = [], []
    while True:
        floor = SECTIONS * np.spacing(np.maximum(abs(a), abs(b)))
        live = splittable(a, b, np.maximum(lam_tol / 10, floor))
        narrow += zip(a[~live], b[~live])
        if not live.any():
            break
        x = np.linspace(a[live], b[live], SECTIONS + 1, axis=-1)
        f = det_batch(x[:, 1:-1].ravel()).reshape(len(x), SECTIONS - 1)
        f = np.concatenate([fa[live, None], f, fb[live, None]], axis=1)
        flip = np.sign(f[:, :-1]) * np.sign(f[:, 1:]) < 0
        r, j = np.nonzero(flip)
        brackets += zip(x[r, j], x[r, j + 1], f[r, j], f[r, j + 1])
        rows = np.nonzero(~flip.any(axis=1))[0]
        j = 1 + np.argmin(np.abs(f[rows, 1:-1]), axis=1)
        a, b, fa, fb = x[rows, j - 1], x[rows, j + 1], f[rows, j - 1], f[rows, j + 1]
    if not narrow:
        return brackets, []
    a, b = np.array(narrow).T
    counts = _root_counts(det_batch, a, b)
    return brackets, [(float(0.5 * (lo + hi)), float(max(hi - lo, lam_tol)), True)
                      for lo, hi, c in zip(a, b, counts) if c]


def find_eigenvalues(op: LinearOperator, kind: BCKind, window, scan_step: float | None = None,
                     lam_tol: float = LAM_TOL) -> Spectrum:
    """All eigenvalues in the window located to lam_tol.

    Sign changes of the characteristic function det(C W) (char_det_scan)
    bracket simple (odd-multiplicity) roots.  A dip cell, a local minimum of
    |det| between two scan points of its sign, holds an even number of roots
    (counted by the argument principle, see _dip_roots): it yields brackets
    or roots flagged as suspected even multiplicity.  Nothing else decides:
    a scan point where det is exactly 0.0 (as constant coefficients give at
    lambda = 0) is a root of width 0, a window end included.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    width = hi - lo
    step = width / 400.0 if scan_step is None else float(scan_step)
    if not step > 0:
        raise ValueError("scan_step must be positive")
    cells = np.ceil(width / step)
    if not cells < MAX_SCAN_POINTS:
        raise ValueError(f"the scan needs {cells + 1:.3g} points, more than "
                         f"MAX_SCAN_POINTS = {MAX_SCAN_POINTS}")
    npts = max(5, int(cells) + 1)
    grid = np.linspace(lo, hi, npts)
    dets = char_det_scan(op, kind, grid)
    absdet = np.abs(dets)

    def det_batch(xs):
        return char_det_scan(op, kind, xs)

    roots: list[tuple[float, float, bool]] = []  # (lam, bracket_width, even_mult)
    signs = np.sign(dets)
    exact = dets == 0
    for i in np.nonzero(exact)[0]:
        even = 0 < i < len(dets) - 1 and signs[i - 1] == signs[i + 1]
        roots.append((float(grid[i]), 0.0, bool(even)))

    # an exact hit has sign 0, so it ends no bracket and makes no dip
    cut = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    brackets = list(zip(grid[cut], grid[cut + 1], dets[cut], dets[cut + 1]))
    dip = 1 + np.nonzero((absdet[1:-1] < absdet[:-2]) & (absdet[1:-1] < absdet[2:])
                         & (signs[:-2] == signs[1:-1]) & (signs[1:-1] == signs[2:]))[0]
    if dip.size:
        zoomed, doubles = _dip_roots(det_batch, grid[dip - 1], grid[dip + 1],
                                     dets[dip - 1], dets[dip + 1], lam_tol)
        brackets += zoomed
        roots += doubles
    roots += [(x, w, False) for x, w in _refine_brackets(det_batch, brackets, lam_tol)]

    # deduplicate within 10 * lam_tol, preferring the narrower bracket
    merged: list[tuple[float, float, bool]] = []
    for r in sorted(roots):
        if merged and abs(r[0] - merged[-1][0]) <= 10 * lam_tol:
            merged[-1] = min(merged[-1], r, key=lambda e: e[1])
        else:
            merged.append(r)

    hits = []
    for lam, wdt, even in merged:
        changes = None
        if not even:
            try:
                _, _, changes = eigenfunction_at(op, kind, lam)
            except MultiplicityError:
                even = True
        hits.append(EigenvalueHit(lam, changes, wdt, even))
    return Spectrum(kind=kind, window=(lo, hi), eigenvalues=hits)


def _null_functions(op: LinearOperator, kind: BCKind, lam_star: float, ts):
    """The singular values sigma_1 <= ... <= sigma_d of M at lam_star and,
    column j for sigma_(j+1), the values at ts of the solutions M maps to
    them, from local Phi and their node states, which the block reduction
    (greens._BlockReduction) gives as H v for the node states H of the d
    solutions with C [H_0; H_N] = I and v a right singular vector of its end
    states Z = [H_0; H_N]: Z is W S for the orthonormal graph basis W, so
    sigma(M) = 1 / (||C||_2 sigma(Z)).

    The SVD of the end states reads sigma_2 to about eps * sigma_2 / sigma_1
    relative.  Where the block system is exactly singular, or sigma_1 is too small
    for SIMPLE_SIGN_TOL to be resolved, lam_star is moved off by OFF_ROOT
    (absolute below |lam_star| = 1): that keeps double roots double.
    """
    C = _boundary_coeffs(kind, op.n)
    norm_c = _boundary_norm(kind, op.n)
    for lam in (lam_star, lam_star + OFF_ROOT * max(abs(lam_star), 1.0)):
        system = integrate_fundamental(op, lam)
        try:
            reduction = _BlockReduction(C, system.segments[:, 0])
        except np.linalg.LinAlgError:
            continue
        fs = system
        _, sz, vt = np.linalg.svd(reduction.end_states)
        if norm_c * sz[0] * np.finfo(float).eps * SIMPLE_SIGN_TOL <= 1.0:
            break
    states = reduction.homogeneous() @ (vt.T / sz)  # each with unit end states [y(0); y(T)]
    seg = fs.segment_index(ts)
    rows = fs.local_phi(seg, ts)[:, 0, 0]
    return 1.0 / (norm_c * sz), np.einsum("nj,njk->nk", rows, states[seg])


def eigenfunction_at(op: LinearOperator, kind: BCKind, lam_star: float):
    """Eigenfunction samples at EIGENFUNCTION_POINTS points: (ts, values,
    interior sign changes).

    The eigenfunction is the solution of sigma_1(M) (_null_functions),
    normalized to max-abs 1; sign changes are counted ignoring |u| <=
    SIGN_FLOOR.
    Warns when sigma_1 > NOT_EIGENVALUE_TOL; raises MultiplicityError when
    sigma_2 < DOUBLE_ROOT_TOL (null space of dimension >= 2).
    """
    ts = np.linspace(0.0, op.length, EIGENFUNCTION_POINTS)
    svals, values = _null_functions(op, kind, lam_star, ts)
    if svals[0] > NOT_EIGENVALUE_TOL:
        warnings.warn(f"lambda={lam_star:.8g} does not look like an eigenvalue "
                      f"(smallest singular value {svals[0]:.3e})")
    if svals[1] < DOUBLE_ROOT_TOL:
        raise MultiplicityError(
            f"null space dimension >= 2 at lambda={lam_star:.8g} "
            f"(singular values {svals[0]:.2e}, {svals[1]:.2e})")
    u = values[:, 0] / np.abs(values[:, 0]).max()
    return ts, u, count_sign_changes(u)


def count_sign_changes(u: np.ndarray) -> int:
    sig = u[np.abs(u) > SIGN_FLOOR]
    if sig.size == 0:
        return 0
    s = np.sign(sig)
    return int(np.sum(s[:-1] != s[1:]))


def _constant_sign_combination(op, kind, lam_star) -> bool:
    """At a double root, whether some combination cos(theta) u1 + sin(theta) u2
    of the two null functions has constant sign.  At each t the theta that
    make it nonnegative form the half circle centred at the angle of
    (u1(t), u2(t)), so the half circles meet exactly when the angles of the
    samples above SIGN_FLOOR leave a gap of at least pi."""
    ts = np.linspace(0.0, op.length, EIGENFUNCTION_POINTS)
    svals, values = _null_functions(op, kind, lam_star, ts)
    if svals[0] > NOT_EIGENVALUE_TOL:
        return False
    u1, u2 = values[:, :2].T
    if svals[1] > SIMPLE_SIGN_TOL:
        return count_sign_changes(u1 / np.abs(u1).max()) == 0
    r = np.hypot(u1, u2)
    angles = np.sort(np.arctan2(u2, u1)[r > SIGN_FLOOR * r.max()])
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    return gaps.max() >= np.pi - SIGN_ANGLE_TOL


def principal_eigenvalue(op: LinearOperator, kind: BCKind, window) -> float:
    """The eigenvalue in the window whose eigenfunction has no interior sign
    change; when several qualify the largest is returned with a warning."""
    spec = find_eigenvalues(op, kind, window)
    candidates = [e.lam for e in spec.eigenvalues if e.sign_changes == 0 or (
        e.even_multiplicity and _constant_sign_combination(op, kind, e.lam))]
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


def _match_sets(a: list[float], b: list[float], tol: float) -> list[float]:
    """Symmetric difference of two eigenvalue sets at tolerance tol."""
    return ([x for x in a if not any(abs(x - y) <= tol for y in b)]
            + [y for y in b if not any(abs(y - x) <= tol for x in a)])


def _is_reflection_symmetric(op: LinearOperator, ref: LinearOperator) -> bool:
    """a_k(t) == (-1)^k a_k(L - t) sampled on a grid; ref is reflect(op)."""
    ts = np.linspace(0.0, op.length, 257)
    for k in range(op.order):
        a = coeff_values(op, k, ts)
        b = coeff_values(ref, k, ts)
        scale = max(1.0, np.abs(a).max())
        if np.abs(a - b).max() > 1e-10 * scale:
            return False
    return True


def verify_spectrum_unions(op: LinearOperator, window) -> list[UnionCheck]:
    """Check the spectral union identities on the window.

    The doubled-interval problems carry each shared eigenvalue of two
    two-point problems as a double root, so flagged even-multiplicity hits
    participate in the matching like ordinary eigenvalues.
    """
    opr = reflect(op)

    def lams(o, kind):
        return find_eigenvalues(o, kind, window).lams()

    found = {code: lams(*kernel_problem(op, code)) for code in KERNEL_CODES}
    N, D, M1, M2 = found["N"], found["D"], found["M1"], found["M2"]
    M1r, M2r = lams(opr, BCKind.MIXED1), lams(opr, BCKind.MIXED2)

    def union(*sets):
        vals: list[float] = []
        for x in (y for s in sets for y in s):
            if not any(abs(x - y) <= MATCH_TOL for y in vals):
                vals.append(x)
        return sorted(vals)

    checks = []
    for tag, left, right in [
        ("N+D=P2T", union(N, D), sorted(found["P2T"])),
        ("N+M1=N2T", union(N, M1), sorted(found["N2T"])),
        ("D+M2=D2T", union(D, M2), sorted(found["D2T"])),
        ("M1+M2=A2T", union(M1, M2), sorted(found["A2T"])),
        ("N+D+M1+M2=P4T", union(N, D, M1, M2), sorted(found["P4T"])),
        ("M1=M2-reflected", sorted(M1), sorted(M2r)),
        ("M2=M1-reflected", sorted(M2), sorted(M1r)),
    ]:
        unmatched = _match_sets(left, right, MATCH_TOL)
        checks.append(UnionCheck(tag, left, right, unmatched, not unmatched))
    if _is_reflection_symmetric(op, opr):
        unmatched = _match_sets(sorted(M1), sorted(M2), MATCH_TOL)
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


def verify_first_eigenvalue_relations(op: LinearOperator, window) -> FirstEigenvalueReport:
    """Verify the first-eigenvalue equalities across the nine problems and
    report (without asserting) the order of the base principals.

    Checked as equalities: principal of N[T] = P[2T] = N[2T] = P[4T] and
    principal of M2[T] = D[2T]; plus membership of the A[2T] principal in
    {M1[T], M2[T]}.  The strict-order directions are reported only.
    """
    principals = {}
    for code in KERNEL_CODES:
        o, kind = kernel_problem(op, code)
        # the key names the code's interval: N -> N[T], P2T -> P[2T]
        key = f"{code[:-2]}[{code[-2:]}]" if code.endswith("T") else f"{code}[T]"
        principals[key] = principal_eigenvalue(o, kind, window)
    equalities = []
    for tag, a, b in [
        ("N[T]=P[2T]", "N[T]", "P[2T]"),
        ("N[T]=N[2T]", "N[T]", "N[2T]"),
        ("N[T]=P[4T]", "N[T]", "P[4T]"),
        ("M2[T]=D[2T]", "M2[T]", "D[2T]"),
    ]:
        diff = abs(principals[a] - principals[b])
        equalities.append({"tag": tag, "values": [principals[a], principals[b]],
                           "diff": diff, "pass": diff <= MATCH_TOL})
    a2 = principals["A[2T]"]
    member = min(abs(a2 - principals["M1[T]"]), abs(a2 - principals["M2[T]"]))
    equalities.append({
        "tag": "A[2T] in {M1[T], M2[T]}",
        "values": [a2, principals["M1[T]"], principals["M2[T]"]],
        "diff": member,
        "pass": member <= MATCH_TOL,
    })

    orderings = []
    base = principals["N[T]"]
    for other in ("D[T]", "M1[T]", "M2[T]"):
        v = principals[other]
        rel = "=" if abs(base - v) <= MATCH_TOL else ("<" if base < v else ">")
        orderings.append({"tag": f"N[T] vs {other}", "values": [base, v], "relation": rel})
    return FirstEigenvalueReport(principals, equalities, orderings)
