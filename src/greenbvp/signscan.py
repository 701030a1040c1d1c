"""Sign classification of kernels and constant-sign lambda intervals.

A kernel is classified on a uniform grid augmented with geometrically spaced
near-boundary points: constant-sign intervals typically end where the kernel
develops a zero at the boundary of the square, and the first violations past
the endpoint live in thin strips or corners (scaling like t*s) that a uniform
grid resolves far too late.  Values inside a relative zero band count as
zero.  On a side where the kernel vanishes by a boundary row, its first
normal derivative carries the sign instead, and at a corner of two such
sides its mixed derivative.  The interval search walks outward from the
principal eigenvalue until the classification flips.  A flip at a corner or
an edge of the square ends at an eigenvalue of a problem with one boundary
row changed, found by a characteristic-function search; any other flip is
located by 16-section: one batched integration per round, whose members
give the kernels of a binary search.
"""

from __future__ import annotations

import contextvars
import functools
import importlib.resources
import json
from dataclasses import dataclass, field

import numpy as np

from .greens import BCKind, ProblemSpec, ResonantProblemError, build_greens, GreensEvaluator, \
    _boundary_coeffs, _char_dets, _corner_problem, _vanishing_ends, kernel_source, kernel_table
from .integrate import integrate_fundamental_batch
from .operators import LinearOperator
from .spectrum import SECTIONS, _k_section, dyadic_points, principal_eigenvalue, splittable

__all__ = [
    "NONNEGATIVE",
    "NONPOSITIVE",
    "SIGN_CHANGING",
    "ZERO_ON_GRID",
    "SignReport",
    "SignIntervalResult",
    "SignSearchError",
    "classify_sign",
    "classify_problem",
    "sign_interval",
    "verify_sign_corollary",
    "reproduce_counterexamples",
    "sweep_extrema",
    "resolve_kernel",
]

NONNEGATIVE = "nonnegative"
NONPOSITIVE = "nonpositive"
SIGN_CHANGING = "sign-changing"
ZERO_ON_GRID = "identically-zero-on-grid"

# Relative offsets of the extra near-boundary sample points.
_EDGE_OFFSETS = (1e-4, 3e-4, 1e-3, 3e-3)

# Kernel values within ZERO_BAND * max|G| count as zero.
ZERO_BAND = 1e-9

# sign_interval locates the threshold to this width in lambda.
THRESHOLD_TOL = 1e-4

# The eigenvalue of a changed problem is located to this width, so that the
# checks THRESHOLD_TOL either side of it fall on either side of the root.
EIGEN_TOL = THRESHOLD_TOL / 10

# Points per side of the uniform grid of each sweep_extrema row.
SWEEP_GRID = 41


class SignSearchError(RuntimeError):
    """No constant-sign region adjacent to the principal eigenvalue."""


@dataclass
class SignReport:
    classification: str
    grid_size: int
    min_value: float
    argmin: tuple[float, float]
    max_value: float
    argmax: tuple[float, float]
    zero_band: float
    # "positive" / "negative" -> (region, (t, s)) of each sign found: the
    # corner, edge or interior sample that shows it, corners and edges first
    sites: dict


_SIGN_REGIONS = ("corner", "edge", "interior")

def _sample_points(length: float, m: int) -> np.ndarray:
    pts = set(np.linspace(0.0, length, m))
    for rel in _EDGE_OFFSETS:
        pts.add(rel * length)
        pts.add((1.0 - rel) * length)
    return np.array(sorted(pts))


def _scaled(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """values / scale, 0 where the scale is 0."""
    return values / np.where(scale > 0, scale, 1.0)


def classify_sign(G: GreensEvaluator, m: int = 101) -> SignReport:
    """Classify the kernel sign on its square.

    Values within ZERO_BAND * max|G| count as zero.  On a side where G
    vanishes by a boundary row (greens._vanishing_ends), the sign is that of
    the inward first normal derivative, relative to its own maximum on that
    side, and at a corner of two such sides that of the mixed derivative
    d_t d_s G, relative to the sides' maxima over the length: a lobe that
    grows from such a corner is seen however small it still is.  One
    adaptive refinement pass doubles the resolution inside cells whose
    corners off those sides touch the zero band, which is where a
    developing sign change can hide.
    """
    if m < 41:
        raise ValueError("classification grid must have at least 41 points per side")
    pts = _sample_points(G.length, m)
    values = G.eval_grid(pts, pts)
    scale = float(np.abs(values).max())
    if scale == 0.0:
        zero = (0.0, 0.0)
        return SignReport(ZERO_ON_GRID, m, 0.0, zero, 0.0, zero, ZERO_BAND, {})
    band = ZERO_BAND * scale
    last = len(pts) - 1
    lines = [last * end for end in _vanishing_ends(G.problem.kind)]

    ambiguous = np.abs(values) <= band
    ambiguous[lines] = ambiguous[:, lines] = False
    cell = ambiguous[:-1, :-1] | ambiguous[1:, :-1] | ambiguous[:-1, 1:] | ambiguous[1:, 1:]
    ts = ss = pts
    if cell.any():
        # the tensor grid (pts + mid_t) x (pts + mid_s), mid_t and mid_s the
        # midpoints of the flagged cells' rows and columns; pts x pts is known
        mids = 0.5 * (pts[:-1] + pts[1:])
        mid_t, mid_s = mids[cell.any(axis=1)], mids[cell.any(axis=0)]
        ts, ss = np.concatenate([pts, mid_t]), np.concatenate([pts, mid_s])
        values = np.block([[values, G.eval_grid(pts, mid_s)],
                           [G.eval_grid(mid_t, pts), G.eval_grid(mid_t, mid_s)]])

    i, j = np.unravel_index(np.argmin(values), values.shape)
    vmin, argmin = float(values[i, j]), (float(ts[i]), float(ss[j]))
    i, j = np.unravel_index(np.argmax(values), values.shape)
    vmax, argmax = float(values[i, j]), (float(ts[i]), float(ss[j]))

    # the sign of each sample, and its size relative to its own scale
    lead = values / scale
    pos, neg = values > band, values < -band
    if lines:
        ends = G._factor(pts)[lines]
        inward = np.where(ends.pts == 0.0, 1.0, -1.0)
        dt = inward[:, None] * G.eval_grid(ends, ss, component=1)
        ds = inward * G._grid(ts, ends, 0, 1)
        top_t, top_s = np.abs(dt).max(axis=1), np.abs(ds).max(axis=0)
        side_t, side_s = _scaled(dt, top_t[:, None]), _scaled(ds, top_s)
        lead[lines], lead[:, lines] = side_t, side_s
        corners = _scaled(np.outer(inward, inward) * G._grid(ends, ends, 1, 1),
                          np.maximum.outer(top_t, top_s) / G.length)
        if G.d == 2:
            # a second-order kernel's first derivatives jump on the diagonal:
            # G ~ c min(t, s) at a diagonal corner, where one side's derivative
            # is c and the other's, taken on the branch t >= s, is 0
            diag = np.equal.outer(lines, lines)
            corners[diag] = (side_t[:, lines] + side_s[lines])[diag]
        lead[np.ix_(lines, lines)] = corners
        for k in (lines, (slice(None), lines)):
            pos[k], neg[k] = lead[k] > ZERO_BAND, lead[k] < -ZERO_BAND

    edge = np.zeros(values.shape, dtype=bool)
    edge[[0, last]] = edge[:, [0, last]] = True
    corner = np.zeros_like(edge)
    corner[np.ix_([0, last], [0, last])] = True
    sites = {}
    for name, found in (("positive", pos), ("negative", neg)):
        for region, where in zip(_SIGN_REGIONS, (corner, edge, ~edge)):
            if (found & where).any():
                i, j = np.unravel_index(np.argmax(np.where(found & where, np.abs(lead), -1.0)),
                                        values.shape)
                sites[name] = (region, (float(ts[i]), float(ss[j])))
                break

    has_pos, has_neg = "positive" in sites, "negative" in sites
    if has_pos and has_neg:
        classification = SIGN_CHANGING
    elif has_pos:
        classification = NONNEGATIVE
    elif has_neg:
        classification = NONPOSITIVE
    else:
        classification = ZERO_ON_GRID
    return SignReport(classification, m, vmin, argmin, vmax, argmax, ZERO_BAND, sites)


def _classify(kernel, op: LinearOperator, kind: BCKind,
              m: int = 101) -> tuple[str, SignReport | None]:
    """(classification, report) of the kernel(op, kind) of a kernel source;
    ('resonant', None) when that kernel does not exist."""
    try:
        G = kernel(op, kind)
    except ResonantProblemError:
        return "resonant", None
    report = classify_sign(G, m=m)
    return report.classification, report


# the report of the last classify_problem call (None if resonant): sign_interval
# reads where its first bad probe flipped off it
_LAST_REPORT: contextvars.ContextVar[SignReport | None] = contextvars.ContextVar("last_report",
                                                                                default=None)


def classify_problem(op: LinearOperator, kind: BCKind, lam: float, m: int = 101) -> str:
    """Classification string for one problem; 'resonant' when G does not exist."""
    classification, report = _classify(lambda o, k: build_greens(ProblemSpec(o, k, lam)),
                                       op, kind, m)
    _LAST_REPORT.set(report)
    return classification


# principal eigenvalues per (operator, kind, window) while
# reproduce_counterexamples runs; None outside it
_PRINCIPALS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("principals",
                                                                         default=None)


def _principal(op: LinearOperator, kind: BCKind, window) -> float:
    memo = _PRINCIPALS.get()
    if memo is None:
        return principal_eigenvalue(op, kind, window)
    key = (op, kind, tuple(map(float, window)))
    if key not in memo:
        memo[key] = principal_eigenvalue(op, kind, window)
    return memo[key]


@dataclass
class SignIntervalResult:
    kind: BCKind
    side: str                      # "nonpositive-below-principal" | "nonnegative-above-principal"
    lam_lo: float
    lam_hi: float
    endpoint_status: str           # "threshold-found" | "window-exhausted"
    lam_tol: float
    principal: float
    flip: str | None               # where the first bad probe shows the wrong sign: "corner",
                                   # "edge", "interior" or "resonant"; None if no probe flipped
    changed_row: str | None        # "old -> new": the boundary row changed in the problem whose
                                   # eigenvalue is the threshold; None where 16-section found it
    bracket: tuple[float, float] | None  # (constant-sign, flipped) lambdas checked last

    def threshold(self) -> float:
        """The detected endpoint away from the principal eigenvalue."""
        return self.lam_lo if self.side.startswith("nonpositive") else self.lam_hi

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "side": self.side,
            "interval": [self.lam_lo, self.lam_hi],
            "endpoint_status": self.endpoint_status,
            "lam_tol": self.lam_tol,
            "principal": self.principal,
            "flip": self.flip,
            "changed_row": self.changed_row,
            "bracket": None if self.bracket is None else list(self.bracket),
        }


_SIDES = {
    "neg": "nonpositive-below-principal",
    "pos": "nonnegative-above-principal",
}


def _row_name(row: np.ndarray, d: int) -> str:
    """A boundary row as text: u'(0), or u'''(0) - u'''(T)."""
    terms = []
    for i in np.flatnonzero(row):
        end, order = divmod(int(i), d)
        sign = (" - " if row[i] < 0 else " + ") if terms else ""
        terms.append(sign + "u" + "'" * order + ("(0)", "(T)")[end])
    return "".join(terms)


def _site_corners(region: str, point: tuple[float, float], length: float) -> list:
    """The corners (t_end, s_end) of the square, 0 left and 1 right, that a
    flip site points to: a corner itself, or both ends of an edge."""
    if region not in ("corner", "edge"):
        return []
    ends = [(int(x > 0.0),) if x in (0.0, length) else (0, 1) for x in point]
    return [(t, s) for t in ends[0] for s in ends[1]]


def sign_interval(op: LinearOperator, kind: BCKind, side: str,
                  search_window=None, m: int = 101,
                  principal_window=None) -> SignIntervalResult:
    """Maximal constant-sign lambda interval abutting the principal eigenvalue.

    Scans outward from the principal eigenvalue in steps of one percent of
    the window width until the classification flips (to sign-changing,
    the opposite sign, or a resonance).  Where the first bad probe shows the
    wrong sign at a corner or an edge of the square, the threshold is an
    eigenvalue of a problem with one boundary row changed
    (greens._corner_problem), the one nearest the last good probe: one
    lambda batch of characteristic functions brackets it, the k-section of
    find_eigenvalues locates it to EIGEN_TOL, and one classification
    THRESHOLD_TOL inside it and one outside, integrated as one batch,
    confirm it.  Otherwise (an interior flip, a resonance, or no confirmed
    candidate) the flip is located to THRESHOLD_TOL by 16-section: each
    round integrates its 15 dyadic probes as one lambda batch and
    classifies at most four of them.
    """
    side = _SIDES.get(side)
    if side is None:
        raise ValueError("side must be 'neg' or 'pos'")
    want = NONPOSITIVE if side.startswith("nonpositive") else NONNEGATIVE
    direction = -1.0 if side.startswith("nonpositive") else +1.0

    if principal_window is None:
        principal_window = search_window if search_window is not None else (-60.0, 10.0)
    principal = _principal(op, kind, principal_window)
    if search_window is None:
        search_window = (principal - 500.0, principal + 500.0)
    lo_w, hi_w = float(search_window[0]), float(search_window[1])
    if not lo_w <= principal <= hi_w:
        raise ValueError("principal eigenvalue lies outside the search window")
    step = (hi_w - lo_w) / 100.0

    accepted = (want, ZERO_ON_GRID)

    def ok(lam: float) -> bool:
        return classify_problem(op, kind, lam, m=m) in accepted

    def ok_member(fs) -> bool:
        try:
            G = GreensEvaluator(ProblemSpec(op, kind, fs.lam), fs)
        except ResonantProblemError:
            return False
        return classify_sign(G, m=m).classification in accepted

    def bisect(good: float, bad: float) -> tuple[float, tuple[float, float]]:
        # the binary search visits the lambdas bisection would visit
        while splittable(good, bad, THRESHOLD_TOL):
            x = dyadic_points(good, bad)
            fs = integrate_fundamental_batch(op, x[1:-1], dense=True)
            lo, hi = 0, SECTIONS
            while hi - lo > 1 and abs(x[hi] - x[lo]) > THRESHOLD_TOL:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if ok_member(fs.member(mid - 1)) else (lo, mid)
            good, bad = x[lo], x[hi]
        return float(0.5 * (good + bad)), (float(good), float(bad))

    def eigen_threshold(good: float, bad: float, site):
        """(threshold, checked bracket, changed row) from the changed
        problems of the corners the site points to, or of every corner if
        none of those has an eigenvalue between the probes (the walk may
        have stepped over a resonance); None if no eigenvalue is confirmed."""
        corners = _site_corners(*site, op.length) if site else []
        problems = [(*p, (t, s)) for t in (0, 1) for s in (0, 1)
                    if (p := _corner_problem(kind, op.n, t, s)) is not None]
        x = dyadic_points(good, bad)
        dets = _char_dets(op, np.array([p[0] for p in problems]), x)
        flips = np.sign(dets[:, 1:]) != np.sign(dets[:, :1])
        first = flips.argmax(axis=1)
        roots = [p for p in np.argsort(first, kind="stable") if flips[p].any()]
        for p in [p for p in roots if problems[p][2] in corners] or roots:
            C, row, _ = problems[p]
            i = first[p]
            a, b, _ = _k_section(lambda lams: _char_dets(op, C, lams),
                                 [(x[i], x[i + 1], dets[p, i])], EIGEN_TOL)
            root = float(0.5 * (a[0] + b[0]))
            bracket = (root - direction * THRESHOLD_TOL, root + direction * THRESHOLD_TOL)
            fs = integrate_fundamental_batch(op, bracket, dense=True)
            if ok_member(fs.member(0)) and not ok_member(fs.member(1)):
                base = _boundary_coeffs(kind, op.n)[row]
                changed = f"{_row_name(base, op.order)} -> {_row_name(C[row], op.order)}"
                return root, bracket, changed
        return None

    def flip(good: float, bad: float):
        """(threshold, flip site, changed row, checked bracket) between the
        last good probe and the bad one, the last classify_problem call."""
        report = _LAST_REPORT.get()
        wrong = "positive" if want == NONPOSITIVE else "negative"
        site = report.sites.get(wrong) if report is not None else None
        region = "resonant" if report is None else site[0] if site else "interior"
        found = eigen_threshold(good, bad, site) or (*bisect(good, bad), None)
        threshold, bracket, changed = found
        return threshold, region, changed, bracket

    good = principal
    probe = principal
    status = "threshold-found"
    region = changed = bracket = None
    while True:
        probe = probe + direction * step
        if probe < lo_w or probe > hi_w:
            status = "window-exhausted"
            probe = lo_w if direction < 0 else hi_w
            if probe == good or ok(probe):
                found = probe
                break
            # flip sits between the last good probe and the window edge
            found, region, changed, bracket = flip(good, probe)
            status = "threshold-found"
            break
        if ok(probe):
            good = probe
            continue
        found, region, changed, bracket = flip(good, probe)
        break

    if status == "threshold-found" and abs(found - principal) <= 2 * THRESHOLD_TOL:
        raise SignSearchError(
            f"no {want} region adjacent to the principal eigenvalue "
            f"{principal:.8g} of the {kind.value} problem")
    lam_lo, lam_hi = (found, principal) if direction < 0 else (principal, found)
    return SignIntervalResult(kind, side, lam_lo, lam_hi, status, THRESHOLD_TOL, principal,
                              region, changed, bracket)


_COROLLARY_CASES = [
    ("P2T<=0 => N<=0", "P2T", NONPOSITIVE, "N"),
    ("P2T>=0 => N>=0", "P2T", NONNEGATIVE, "N"),
    ("N2T<=0 => N<=0", "N2T", NONPOSITIVE, "N"),
    ("N2T>=0 => N>=0", "N2T", NONNEGATIVE, "N"),
    ("D2T<=0 => M2<=0", "D2T", NONPOSITIVE, "M2"),
    ("D2T>=0 => M2>=0", "D2T", NONNEGATIVE, "M2"),
]


def resolve_kernel(op: LinearOperator, code: str) -> tuple[LinearOperator, BCKind]:
    """One entry of greens.kernel_table; an unknown code is refused."""
    table = kernel_table(op)
    if code not in table:
        raise ValueError(f"unknown kernel code {code!r}")
    return table[code]


def verify_sign_corollary(op: LinearOperator, lam_samples) -> list[dict]:
    """For each lambda where a premise kernel has constant sign, assert the
    implied sign of the conclusion kernel; violating rows carry the location
    of the offending extremum."""
    rows = []
    table = kernel_table(op)
    for lam in lam_samples:
        kernel = kernel_source(lam)

        @functools.cache
        def classify(code):
            return _classify(kernel, *table[code])

        for tag, premise_code, premise_sign, conclusion_code in _COROLLARY_CASES:
            premise = classify(premise_code)[0]
            if premise != premise_sign:
                rows.append({"tag": tag, "lambda": lam, "applicable": False,
                             "premise": premise, "conclusion": None, "pass": True})
                continue
            conclusion, report = classify(conclusion_code)
            ok = conclusion in (premise_sign, ZERO_ON_GRID)
            row = {"tag": tag, "lambda": lam, "applicable": True,
                   "premise": premise, "conclusion": conclusion, "pass": ok}
            wrong = "negative" if premise_sign == NONNEGATIVE else "positive"
            if not ok and report is not None and wrong in report.sites:
                row["violation_location"] = list(report.sites[wrong][1])
            rows.append(row)
    return rows


def sweep_extrema(op: LinearOperator, kind: BCKind, lams) -> list[tuple[float, float, float]]:
    """Rows (lambda, min G, max G) for plotting; resonant lambdas give NaN."""
    rows = []
    for lam in np.atleast_1d(np.asarray(lams, dtype=float)):
        try:
            G = build_greens(ProblemSpec(op, kind, float(lam)))
        except ResonantProblemError:
            rows.append((float(lam), float("nan"), float("nan")))
            continue
        g = G.sample_grid(SWEEP_GRID)
        rows.append((float(lam), float(g.min()), float(g.max())))
    return rows


def _load_fixtures() -> dict:
    text = importlib.resources.files("greenbvp").joinpath("data/paper_examples.json").read_text()
    return json.loads(text)


def _operator_from_fixture(spec: dict) -> LinearOperator:
    return LinearOperator.from_exprs(spec["n"], spec["T"], spec["coefficients"])


@dataclass
class ReproductionReport:
    rows: list[dict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.rows)


def reproduce_counterexamples(fixtures: dict | None = None,
                              m: int = 101) -> ReproductionReport:
    """Run the fixed scenario list: sign classifications at the quoted
    lambdas and the threshold searches, each row pass/fail."""
    data = fixtures if fixtures is not None else _load_fixtures()
    report = ReproductionReport()
    # the threshold rows of one problem share its principal eigenvalue
    token = _PRINCIPALS.set({})
    try:
        _reproduce(data, m, report)
    finally:
        _PRINCIPALS.reset(token)
    return report


def _reproduce(data: dict, m: int, report: ReproductionReport) -> None:
    """The rows of reproduce_counterexamples, appended to report."""
    # kernels of one lambda share their fundamental systems across scenarios
    sources = {}
    for scenario in data.get("classification_scenarios", []):
        op = _operator_from_fixture(scenario["operator"])
        lam = float(scenario["lambda"])
        kernel = sources.setdefault(lam, kernel_source(lam))
        for code, expected in scenario["expected"].items():
            observed = _classify(kernel, *resolve_kernel(op, code), m=m)[0]
            report.rows.append({
                "scenario": scenario["name"],
                "lambda": lam,
                "kernel": code,
                "expected": expected,
                "observed": observed,
                "pass": observed == expected,
            })

    for row in data.get("thresholds", []):
        op = _operator_from_fixture(row["operator"])
        o, kind = resolve_kernel(op, row["kernel"])
        expected = float(row["value"])
        rel_tol = float(row.get("rel_tol", 1e-2))
        pw = tuple(row["principal_window"])
        if row["type"] == "principal":
            observed = _principal(o, kind, pw)
        else:
            side = "neg" if row["type"] == "nonpositive" else "pos"
            result = sign_interval(o, kind, side, principal_window=pw, m=m)
            observed = result.threshold()
        rel = abs(observed - expected) / abs(expected)
        report.rows.append({
            "scenario": row["name"],
            "lambda": expected,
            "kernel": row["kernel"],
            "expected": expected,
            "observed": observed,
            "pass": rel <= rel_tol,
        })
