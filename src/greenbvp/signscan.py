"""Sign classification of kernels and constant-sign lambda intervals.

A kernel is classified on a uniform grid augmented with geometrically spaced
near-boundary points: constant-sign intervals typically end where the kernel
develops a zero at the boundary of the square, and the first violations past
the endpoint live in thin strips or corners (scaling like t*s) that a uniform
grid resolves far too late.  Values inside a relative zero band count as
zero, since kernels legitimately vanish along boundary lines.  The interval
search walks outward from the principal eigenvalue until the classification
flips and then locates the flip point by 16-section: one batched integration
per round, whose members give the kernels of a binary search.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import dataclass, field

import numpy as np

from .greens import BCKind, ProblemSpec, ResonantProblemError, build_greens, GreensEvaluator, \
    kernel_source, kernel_table
from .integrate import integrate_fundamental_batch
from .operators import LinearOperator
from .spectrum import SECTIONS, dyadic_points, principal_eigenvalue, splittable

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


def _sample_points(length: float, m: int) -> np.ndarray:
    pts = set(np.linspace(0.0, length, m))
    for rel in _EDGE_OFFSETS:
        pts.add(rel * length)
        pts.add((1.0 - rel) * length)
    return np.array(sorted(pts))


def classify_sign(G: GreensEvaluator, m: int = 101) -> SignReport:
    """Classify the kernel sign on its square.

    Values within ZERO_BAND * max|G| count as zero.  One adaptive refinement
    pass doubles the resolution inside cells whose corners touch the zero
    band, which is where a developing sign change can hide.
    """
    if m < 41:
        raise ValueError("classification grid must have at least 41 points per side")
    pts = _sample_points(G.length, m)
    values = G.eval_grid(pts, pts)
    scale = float(np.abs(values).max())
    if scale == 0.0:
        zero = (0.0, 0.0)
        return SignReport(ZERO_ON_GRID, m, 0.0, zero, 0.0, zero, ZERO_BAND)
    band = ZERO_BAND * scale

    ambiguous = np.abs(values) <= band
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

    has_pos = vmax > band
    has_neg = vmin < -band
    if has_pos and has_neg:
        classification = SIGN_CHANGING
    elif has_pos:
        classification = NONNEGATIVE
    elif has_neg:
        classification = NONPOSITIVE
    else:
        classification = ZERO_ON_GRID
    return SignReport(classification, m, vmin, argmin, vmax, argmax, ZERO_BAND)


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


def classify_problem(op: LinearOperator, kind: BCKind, lam: float, m: int = 101) -> str:
    """Classification string for one problem; 'resonant' when G does not exist."""
    return _classify(lambda o, k: build_greens(ProblemSpec(o, k, lam)), op, kind, m)[0]


@dataclass
class SignIntervalResult:
    kind: BCKind
    side: str                      # "nonpositive-below-principal" | "nonnegative-above-principal"
    lam_lo: float
    lam_hi: float
    endpoint_status: str           # "threshold-found" | "window-exhausted"
    lam_tol: float
    principal: float

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
        }


_SIDES = {
    "neg": "nonpositive-below-principal",
    "pos": "nonnegative-above-principal",
}


def sign_interval(op: LinearOperator, kind: BCKind, side: str,
                  search_window=None, m: int = 101,
                  principal_window=None) -> SignIntervalResult:
    """Maximal constant-sign lambda interval abutting the principal eigenvalue.

    Scans outward from the principal eigenvalue in steps of one percent of
    the window width until the classification flips (to sign-changing,
    the opposite sign, or a resonance), then locates the flip to THRESHOLD_TOL by
    16-section: each round integrates its 15 dyadic probes as one lambda
    batch and classifies at most four of them.
    """
    side = _SIDES.get(side)
    if side is None:
        raise ValueError("side must be 'neg' or 'pos'")
    want = NONPOSITIVE if side.startswith("nonpositive") else NONNEGATIVE
    direction = -1.0 if side.startswith("nonpositive") else +1.0

    if principal_window is None:
        principal_window = search_window if search_window is not None else (-60.0, 10.0)
    principal = principal_eigenvalue(op, kind, principal_window)
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

    def flip(good: float, bad: float) -> float:
        # the binary search visits the lambdas bisection would visit
        while splittable(good, bad, THRESHOLD_TOL):
            x = dyadic_points(good, bad)
            fs = integrate_fundamental_batch(op, x[1:-1], dense=True)
            lo, hi = 0, SECTIONS
            while hi - lo > 1 and abs(x[hi] - x[lo]) > THRESHOLD_TOL:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if ok_member(fs.member(mid - 1)) else (lo, mid)
            good, bad = x[lo], x[hi]
        return float(0.5 * (good + bad))

    good = principal
    probe = principal
    status = "threshold-found"
    while True:
        probe = probe + direction * step
        if probe < lo_w or probe > hi_w:
            status = "window-exhausted"
            probe = lo_w if direction < 0 else hi_w
            if probe == good or ok(probe):
                found = probe
                break
            # flip sits between the last good probe and the window edge
            found = flip(good, probe)
            status = "threshold-found"
            break
        if ok(probe):
            good = probe
            continue
        found = flip(good, probe)
        break

    if status == "threshold-found" and abs(found - principal) <= 2 * THRESHOLD_TOL:
        raise SignSearchError(
            f"no {want} region adjacent to the principal eigenvalue "
            f"{principal:.8g} of the {kind.value} problem")
    lam_lo, lam_hi = (found, principal) if direction < 0 else (principal, found)
    return SignIntervalResult(kind, side, lam_lo, lam_hi, status, THRESHOLD_TOL, principal)


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
            if not ok and report is not None:
                row["violation_location"] = list(
                    report.argmin if premise_sign == NONNEGATIVE else report.argmax)
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
            observed = principal_eigenvalue(o, kind, pw)
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
    return report
