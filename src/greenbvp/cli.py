"""Command line interface: config ingestion, dispatch, CSV/JSON emission.

Exit codes: 0 success, 1 verification failure, 2 configuration or parse
error, 3 resonance or numerical failure.  Error messages go to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys

import numpy as np

from .comparison import MIN_SOLVE_GRID, HypothesisError, check_solution_comparison, solve_bvp
from .expressions import ParseError, parse_expression
from .greens import BCKind, ProblemSpec, ResonantProblemError, build_greens, kernel_problem
from .identities import ALL_TAGS, run_identities
from .integrate import IntegrationError
from .operators import LinearOperator, extend_to_double, extend_to_quadruple
from .signscan import SignSearchError, reproduce_counterexamples, sign_interval, sweep_extrema
from .spectrum import find_eigenvalues, principal_eigenvalue

__all__ = ["main", "load_config"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# The largest --grid (points per side of a kernel grid, or of the compare
# solution grid) and --sweep-points accepted; larger values are refused before
# anything is allocated.  At these bounds green and verify take about 15 s and
# at most 350 MB, and a sweep about 15 s.  The least --grid is 2 for green and
# verify, and MIN_SOLVE_GRID (odd) for compare.
MAX_GRID = 2001
MAX_SWEEP_POINTS = 10_001


class ConfigError(ValueError):
    pass


def _finite_number(raw: dict, key: str, default=None) -> float:
    """The config field key as a float; it must be a finite JSON number."""
    value = raw.get(key, default)
    # the comparison is exact for integers past the float range, and false for NaN
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field {key!r} must be a finite number")
    return float(value)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and inf exit 2, naming the flag."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def load_config(path: str) -> dict:
    """Read and validate a ProblemConfig JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key in ("n", "T", "coefficients", "kind"):
        if key not in raw:
            raise ConfigError(f"config is missing required field {key!r}")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("field 'n' must be a positive integer")
    T = _finite_number(raw, "T")
    if not T > 0:
        raise ConfigError("field 'T' must be positive")
    coeffs = raw["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != 2 * n:
        raise ConfigError(f"'coefficients' must list exactly {2 * n} expressions")
    asts = []
    for i, text in enumerate(coeffs):
        if not isinstance(text, str):
            raise ConfigError(f"coefficient a_{i} must be an expression string, not {text!r}")
        try:
            ast = parse_expression(text)
        except ParseError as exc:
            raise ConfigError(f"coefficient a_{i} {text!r}: {exc}") from exc
        asts.append(ast)
    kind = BCKind.from_name(str(raw["kind"]))
    lam = _finite_number(raw, "lambda", 0.0)
    extension = str(raw.get("extension", "none")).lower()
    if extension not in ("none", "double", "quadruple"):
        raise ConfigError("'extension' must be one of none, double, quadruple")

    op = LinearOperator.from_exprs(n, T, asts)
    if extension == "double":
        op = extend_to_double(op)
    elif extension == "quadruple":
        op = extend_to_quadruple(op)
    return {"operator": op, "kind": kind, "lambda": lam, "extension": extension}


def _size(value: int, least: int, bound: int, flag: str) -> int:
    if value < least:
        raise ConfigError(f"{flag} {value} is below the least of {least}")
    if value > bound:
        raise ConfigError(f"{flag} {value} is above the bound of {bound}")
    return value


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit_json(payload: dict, out: str | None):
    payload = {"generated_at": _timestamp(), **payload}
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cmd_green(args) -> int:
    m = _size(args.grid, 2, MAX_GRID, "--grid")
    cfg = load_config(args.config)
    problem = ProblemSpec(cfg["operator"], cfg["kind"], cfg["lambda"])
    G = build_greens(problem)
    pts = np.linspace(0.0, G.length, m)
    grid = G.sample_grid(m)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("t,s,value\n")
        for i, t in enumerate(pts):
            for j, s in enumerate(pts):
                fh.write(f"{_fmt(t)},{_fmt(s)},{_fmt(grid[i, j])}\n")
    print(f"wrote {m}x{m} kernel grid to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    m = _size(args.grid, 2, MAX_GRID, "--grid")
    cfg = load_config(args.config)
    lams = args.lam if args.lam else [cfg["lambda"]]
    tags = None if args.identity == "all" else [args.identity]
    rows = []
    failed = False
    for lam in lams:
        for report in run_identities(cfg["operator"], lam, tags=tags, m=m):
            rows.append(report.to_row())
            if not report.passed and not report.skipped:
                failed = True
    _emit_json({"identities": rows}, args.out)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    spec = find_eigenvalues(cfg["operator"], cfg["kind"], tuple(args.window),
                            scan_step=args.scan_step)
    _emit_json(spec.to_json(), args.out)
    return EXIT_OK


def _cmd_sign_intervals(args) -> int:
    points = _size(args.sweep_points, 0, MAX_SWEEP_POINTS, "--sweep-points")
    cfg = load_config(args.config)
    window = tuple(args.window) if args.window else None
    principal = principal_eigenvalue(cfg["operator"], cfg["kind"],
                                     tuple(args.principal_window or window or (-60.0, 10.0)))
    result = sign_interval(cfg["operator"], cfg["kind"], args.side, principal, window)
    payload = result.to_json()
    if args.sweep:
        lo, hi = result.lam_lo - 1.0, result.lam_hi + 1.0
        lams = np.linspace(lo, hi, points)
        rows = sweep_extrema(cfg["operator"], cfg["kind"], lams)
        with open(args.sweep, "w", encoding="utf-8") as fh:
            fh.write("lambda,min,max\n")
            for lam, mn, mx in rows:
                fh.write(f"{_fmt(lam)},{_fmt(mn)},{_fmt(mx)}\n")
        payload["sweep_csv"] = args.sweep
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if _size(args.grid, MIN_SOLVE_GRID, MAX_GRID, "--grid") % 2 == 0:
        raise ConfigError(f"--grid {args.grid} must be odd")
    cfg = load_config(args.config)
    tag, _, case_text = args.case.partition("-")
    tag = tag.upper()
    try:
        case = int(case_text)
    except ValueError:
        raise ConfigError(f"--case must look like ND-1, NM1-2, M2D-3; got {args.case!r}")
    report = check_solution_comparison(tag, case, cfg["operator"], cfg["lambda"],
                                       args.sigma1, args.sigma2, m=args.grid)
    if args.out:
        _write_solution_csv(args.out, cfg["operator"], report.kernel, args.sigma1, args.sigma2,
                            args.grid)
    _emit_json(report.to_json(), None)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _write_solution_csv(path: str, op: LinearOperator, kernel, sigma1: str, sigma2: str, m: int):
    """Solutions of the four base problems of op, from the kernel source of
    the comparison check (greens.kernel_source): sigma1 drives the dominating
    problems (N, M2) and sigma2 the dominated ones (D, M1)."""
    columns = {}
    for code, sigma in (("N", sigma1), ("D", sigma2), ("M1", sigma2), ("M2", sigma1)):
        try:
            sol = solve_bvp(kernel(*kernel_problem(op, code)), sigma, m)
            columns[code] = sol.values
            ts = sol.ts
        except ResonantProblemError:
            columns[code] = None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"u_{code}" for code in columns]) + "\n")
        for i, t in enumerate(ts):
            cells = [_fmt(t)]
            for values in columns.values():
                cells.append(_fmt(values[i]) if values is not None else "")
            fh.write(",".join(cells) + "\n")


def _cmd_paper_examples(args) -> int:
    report = reproduce_counterexamples()
    width = max(len(r["scenario"]) for r in report.rows) + 2
    for r in report.rows:
        status = "PASS" if r["pass"] else "FAIL"
        if isinstance(r["expected"], float):
            detail = (f"expected={r['expected']:.6g} observed={r['observed']:.6g} "
                      f"rel={abs(r['observed'] - r['expected']) / abs(r['expected']):.2e}")
        else:
            detail = f"kernel={r['kernel']:5s} expected={r['expected']:15s} observed={r['observed']}"
        print(f"{status}  {r['scenario']:<{width}s} {detail}")
    total = len(report.rows)
    good = sum(1 for r in report.rows if r["pass"])
    print(f"{good}/{total} scenario rows passed")
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenbvp",
        description="Green's functions of even-order boundary value problems: "
                    "kernels, identities, spectra, sign intervals, comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="export a kernel grid as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("verify", help="check decomposition/connecting identities")
    p.add_argument("--config", required=True)
    p.add_argument("--identity", default="all",
                   help="identity tag or 'all' (tags: %s)" % ", ".join(ALL_TAGS))
    p.add_argument("--lambda", dest="lam", type=_finite_float, nargs="*",
                   help="lambda values (default: the config's lambda)")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="locate eigenvalues in a lambda window")
    p.add_argument("--config", required=True)
    p.add_argument("--window", type=_finite_float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--scan-step", type=_finite_float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sign-intervals", help="maximal constant-sign lambda interval")
    p.add_argument("--config", required=True)
    p.add_argument("--side", required=True, choices=["pos", "neg"])
    p.add_argument("--window", type=_finite_float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--principal-window", type=_finite_float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--sweep", help="also write a (lambda, min G, max G) CSV sweep")
    p.add_argument("--sweep-points", type=int, default=41)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sign_intervals)

    p = sub.add_parser("compare", help="comparison principle for two sources")
    p.add_argument("--config", required=True)
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.add_argument("--case", required=True, help="theorem-case, e.g. ND-1, NM1-2, M2D-3")
    p.add_argument("--grid", type=int, default=81)
    p.add_argument("--out", help="CSV of (t, u_N, u_D, u_M1, u_M2)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("paper-examples", help="run the full reproduction suite")
    p.set_defaults(func=_cmd_paper_examples)
    # argparse reads only -digits and -digits.digits as negative numbers, and
    # any other word after a dash as a flag: -1e3 is a value too
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, HypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResonantProblemError, IntegrationError, SignSearchError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
