"""Seeded inputs, tasks and answer checks for the four benchmark workloads.

``make_inputs(workload, seed)`` turns a seed into plain data (the same seed
always gives the same data); ``build_tasks`` turns that data into the calls
the program receives.  Each task returns an ``Outcome``; the harness counts
every outcome, so one failing task never stops a pass.

Workloads (see BENCHMARK.json for why each was chosen):

- reproduce: the 32 rows of the bundled paper-examples fixture, one row per
  task, in a seeded order.
- kernels: ``run_identities`` at m=101 on seeded operators and shifts, plus
  three solution-comparison runs at the acceptance settings.
- stiff: constant-coefficient kernels at large |lambda| placed midway between
  neighbouring closed-form eigenvalues, each built and sampled on 101^2, in a
  seeded order.
"""

from __future__ import annotations

import importlib
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("reproduce", "kernels", "stiff")

STIFF_GRID = 101
STIFF_LAM_RANGE = (1e3, 4e6)  # |lambda|; the largest u'' block system has 667 segments
STIFF_STRATA = 40
CLOSED_FORM_TOL = 1e-9       # u'' kernel against its closed form, relative to max|G|
SYMMETRY_TOL = 1e-10         # fourth-order G(t,s) - G(s,t), relative to max|G|

# Operator families u'''' + c*w(t) u around the acceptance operators
# (t-2)^4 on T=2 and t(t-3) on T=1.5.  The ranges are narrow so the work per
# task stays nearly the same for every seed.
FAMILIES = {
    "quartic": {"c": (0.8, 1.2), "T": (1.9, 2.0)},
    "parabolic": {"c": (0.8, 1.2), "T": (1.45, 1.55)},
}


class ProgramMissing(RuntimeError):
    """The checkout does not hold the greenbvp sources."""


_program = None


def import_program() -> SimpleNamespace:
    """Import greenbvp from this checkout's src/ (never an installed copy)."""
    global _program
    if _program is not None:
        return _program
    if not (SRC / "greenbvp" / "__init__.py").is_file():
        raise ProgramMissing(f"no greenbvp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("expressions", "operators", "integrate", "greens", "spectrum",
             "signscan", "identities", "comparison")
    mods = {name: importlib.import_module(f"greenbvp.{name}") for name in names}
    pkg = importlib.import_module("greenbvp")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"greenbvp was imported from {pkg.__file__}, not {SRC}")
    _program = SimpleNamespace(package=pkg, **mods)
    return _program


def load_fixtures() -> dict:
    gb = import_program()
    text = importlib.resources.files(gb.package).joinpath("data/paper_examples.json").read_text()
    return json.loads(text)


@dataclass
class Outcome:
    status: str          # "ok" | "wrong" | "refused" | "error"
    detail: str = ""


OK = Outcome("ok")


@dataclass
class Task:
    label: str
    run: Callable[[], Outcome]


# -- seeded inputs -----------------------------------------------------------

def _family_operator(rng, family: str) -> dict:
    c = float(rng.uniform(*FAMILIES[family]["c"]))
    T = float(rng.uniform(*FAMILIES[family]["T"]))
    return {"family": family, "c": round(c, 6), "T": round(T, 6)}


def stiff_lams(kind: str) -> list[float]:
    """The |lambda| at the centre of each of STIFF_STRATA equal slices of the
    log range, plus the top of the range, each moved midway between the
    neighbouring closed-form eigenvalues.  The set is fixed, so every seed
    gives the same pass cost, peak memory and refusals (ROADMAP item 3);
    the seed only orders the tasks."""
    lo, hi = (math.log10(x) for x in STIFF_LAM_RANGE)
    width = (hi - lo) / STIFF_STRATA
    mags = [10 ** (lo + width * (i + 0.5)) for i in range(STIFF_STRATA)]
    return [stiff_midpoint(kind, m) for m in mags + [STIFF_LAM_RANGE[1]]]


def stiff_midpoint(kind: str, mag: float) -> float:
    """Midpoint between the eigenvalues that bracket a shift of size mag.

    u'' Dirichlet on [0,1]: eigenvalues (k pi)^2 for lambda > 0.
    u'''' Neumann on [0,1]: -(k pi)^4; u'''' periodic: -(2 k pi)^4.
    """
    if kind == "u2-dirichlet":
        k = math.floor(math.sqrt(mag) / math.pi)
        return 0.5 * ((k * math.pi) ** 2 + ((k + 1) * math.pi) ** 2)
    step = math.pi if kind == "u4-neumann" else 2 * math.pi
    k = math.floor(mag ** 0.25 / step)
    return -0.5 * ((k * step) ** 4 + ((k + 1) * step) ** 4)


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's task inputs as plain data; depends only on (workload, seed)."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    if workload == "reproduce":
        data = load_fixtures()
        rows = [{"row": "classification", "scenario": i, "kernel": code}
                for i, sc in enumerate(data["classification_scenarios"])
                for code in sc["expected"]]
        rows += [{"row": "threshold", "index": j} for j in range(len(data["thresholds"]))]
        return [rows[i] for i in rng.permutation(len(rows))]
    if workload == "kernels":
        strata = np.linspace(-3.0, 6.0, 7)
        order = rng.permutation(6)
        out = []
        for i, s in enumerate(order):
            op = _family_operator(rng, ("quartic", "parabolic")[i % 2])
            lam = float(rng.uniform(strata[s], strata[s + 1]))
            out.append({"task": "identities", "operator": op, "lam": round(lam, 6)})
        for case in (1, 2, 3):
            setups = [key for key in COMPARISON_SETUPS if key[1] == case]
            tag = setups[rng.integers(len(setups))][0]
            pair = COMPARISON_PAIRS[case][rng.integers(3)]
            out.append({"task": "comparison", "tag": tag, "case": case,
                        "sigma1": pair[0], "sigma2": pair[1]})
        return out
    if workload == "stiff":
        specs = [{"kind": kind, "lam": lam} for kind in STIFF_KINDS for lam in stiff_lams(kind)]
        return [specs[i] for i in rng.permutation(len(specs))]
    raise ValueError(f"unknown workload {workload!r}")


# -- tasks ---------------------------------------------------------------------

def _operator(gb, spec: dict):
    c, T = spec["c"], spec["T"]
    weight = f"{c}*(t-{T})^4" if spec["family"] == "quartic" else f"{c}*t*(t-{2 * T})"
    return gb.operators.LinearOperator.from_exprs(2, T, [weight, "0", "0", "0"])


def _reproduce_tasks(gb, inputs):
    data = load_fixtures()

    def classification(spec):
        scenario = data["classification_scenarios"][spec["scenario"]]
        expected = scenario["expected"][spec["kernel"]]
        one = {"classification_scenarios": [dict(scenario, expected={spec["kernel"]: expected})],
               "thresholds": []}

        def run():
            row = gb.signscan.reproduce_counterexamples(one, m=101).rows[0]
            if row["observed"] == expected:
                return OK
            return Outcome("wrong", f"observed {row['observed']}, expected {expected}")

        return Task(f"{scenario['name']} {spec['kernel']}", run)

    def threshold(spec):
        row = data["thresholds"][spec["index"]]
        one = {"classification_scenarios": [], "thresholds": [row]}
        expected, rel_tol = float(row["value"]), float(row.get("rel_tol", 1e-2))

        def run():
            observed = gb.signscan.reproduce_counterexamples(one, m=101).rows[0]["observed"]
            rel = abs(observed - expected) / abs(expected)
            if rel <= rel_tol:
                return OK
            return Outcome("wrong", f"{row['name']}={observed:.6g}, rel error {rel:.2e}")

        return Task(row["name"], run)

    return [classification(s) if s["row"] == "classification" else threshold(s)
            for s in inputs]


# acceptance criterion 9: (tag, case) -> (operator T, weight, lambda)
COMPARISON_SETUPS = {
    ("ND", 1): (2.0, "(t-2)^4", 2.0),
    ("ND", 2): (1.5, "0", -3.0),
    ("ND", 3): (1.5, "0", -3.0),
    ("NM1", 1): (1.5, "0", 1.0),
    ("NM1", 2): (1.5, "0", -0.2),
    ("NM1", 3): (1.5, "0", -0.2),
    ("M2D", 1): (1.0, "0", -1.0),
    ("M2D", 2): (1.0, "0", -10.0),
    ("M2D", 3): (1.0, "0", -10.0),
}
COMPARISON_PAIRS = {
    1: [("2", "sin(3*t)"), ("1 + t^2/4", "cos(2*t)"), ("3", "t")],
    2: [("1", "t/2"), ("2", "1"), ("1 + t", "t/2")],
    3: [("0-1", "0-t/3"), ("0-2", "0-1"), ("0-1-t", "0-t/2")],
}
# identity runs skip slope-one for variable coefficients by design; any other
# skip means a kernel was judged resonant and counts as a failure
ALLOWED_SKIP = "variable coefficients"


def _kernels_tasks(gb, inputs):
    tasks = []
    for spec in inputs:
        if spec["task"] == "identities":
            op, lam = _operator(gb, spec["operator"]), spec["lam"]

            def run(op=op, lam=lam):
                reports = gb.identities.run_identities(op, lam, m=101)
                skipped = [r for r in reports if r.skipped and r.reason != ALLOWED_SKIP]
                if skipped:
                    return Outcome("refused", "; ".join(f"{r.tag}: {r.reason}" for r in skipped))
                bad = [r for r in reports if not r.skipped and not r.passed]
                if bad:
                    return Outcome("wrong", "; ".join(f"{r.tag} residual {r.residual:.2e}"
                                                      for r in bad))
                return OK

            family = spec["operator"]["family"]
            tasks.append(Task(f"identities {family} lam={lam:.4g}", run))
        else:
            T, weight, lam = COMPARISON_SETUPS[(spec["tag"], spec["case"])]
            op = gb.operators.LinearOperator.from_exprs(2, T, [weight, "0", "0", "0"])

            def run(op=op, lam=lam, spec=spec):
                rep = gb.comparison.check_solution_comparison(
                    spec["tag"], spec["case"], op, lam, spec["sigma1"], spec["sigma2"], m=81)
                if not rep.applicable:
                    return Outcome("wrong", f"premise {rep.premise} not satisfied")
                if not rep.passed:
                    return Outcome("wrong", json.dumps(rep.conclusions))
                return OK

            tasks.append(Task(f"comparison {spec['tag']}-{spec['case']}", run))
    return tasks


STIFF_KINDS = ("u2-dirichlet", "u4-neumann", "u4-periodic")


def string_kernel(lam: float, pts: np.ndarray) -> np.ndarray:
    """Closed-form kernel of u'' + lam u with u(0) = u(1) = 0, lam > 0."""
    w = math.sqrt(lam)
    lo = np.minimum.outer(pts, pts)
    hi = np.maximum.outer(pts, pts)
    return np.sin(w * lo) * np.sin(w * (hi - 1.0)) / (w * math.sin(w))


def _stiff_tasks(gb, inputs):
    LinearOperator, BCKind = gb.operators.LinearOperator, gb.greens.BCKind
    ops = {
        "u2-dirichlet": (LinearOperator.from_exprs(1, 1.0, ["0", "0"]), BCKind.DIRICHLET),
        "u4-neumann": (LinearOperator.from_exprs(2, 1.0, ["0"] * 4), BCKind.NEUMANN),
        "u4-periodic": (LinearOperator.from_exprs(2, 1.0, ["0"] * 4), BCKind.PERIODIC),
    }
    tasks = []
    for spec in inputs:
        op, kind = ops[spec["kind"]]
        lam = spec["lam"]

        def run(op=op, kind=kind, lam=lam, name=spec["kind"]):
            G = gb.greens.build_greens(gb.greens.ProblemSpec(op, kind, lam))
            values = G.sample_grid(STIFF_GRID)
            scale = float(np.abs(values).max())
            if name == "u2-dirichlet":
                pts = np.linspace(0.0, 1.0, STIFF_GRID)
                err = float(np.abs(values - string_kernel(lam, pts)).max()) / scale
                bar = CLOSED_FORM_TOL
            else:
                err = float(np.abs(values - values.T).max()) / scale
                bar = SYMMETRY_TOL
            if err <= bar:
                return OK
            return Outcome("wrong", f"relative error {err:.2e} > {bar:.0e}")

        tasks.append(Task(f"{spec['kind']} lam={lam:.6g}", run))
    return tasks


def build_tasks(workload: str, inputs: list[dict]) -> list[Task]:
    gb = import_program()
    make = {"reproduce": _reproduce_tasks, "kernels": _kernels_tasks,
            "stiff": _stiff_tasks}[workload]
    return make(gb, inputs)


def setup(workload: str, seed: int) -> list[Task]:
    """Everything a fresh process does before the first task: import the
    program, load the fixtures and generate the seeded inputs."""
    import_program()
    load_fixtures()
    return build_tasks(workload, make_inputs(workload, seed))
