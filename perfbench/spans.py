"""Span recorder that measures greenbvp's layers from outside the package.

The recorder replaces the public functions each module is called through
with thin wrappers, at every ``greenbvp`` module attribute that binds them,
so callers that imported a function by name are traced as well.  Each call
becomes a span (name, start, end, parent, task id) kept in memory; the
counts a layer reports are read from the arguments and return values of the
wrapped calls.  ``uninstall`` puts every original object back, so untraced
runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name).  A dotted attribute names a method that is
# patched on its class; the others are patched at every greenbvp module
# attribute bound to the same function object.
TRACED = [
    ("greenbvp.integrate", "integrate_fundamental", "integrate"),
    ("greenbvp.integrate", "integrate_fundamental_batch", "integrate"),
    ("greenbvp.greens", "build_greens", "greens.build"),
    ("greenbvp.greens", "char_det_scan", "greens.scan"),
    ("greenbvp.greens", "GreensEvaluator.eval_grid", "greens.eval_grid"),
    ("greenbvp.spectrum", "find_eigenvalues", "spectrum.search"),
    ("greenbvp.spectrum", "principal_eigenvalue", "spectrum.principal"),
    ("greenbvp.spectrum", "eigenfunction_at", "spectrum.eigenfunction"),
    ("greenbvp.signscan", "reproduce_counterexamples", "signscan.reproduce"),
    ("greenbvp.signscan", "sign_interval", "signscan.interval"),
    ("greenbvp.signscan", "classify_problem", "signscan.probe"),
    ("greenbvp.signscan", "classify_sign", "signscan.classify"),
    ("greenbvp.identities", "run_identities", "identities.run"),
    ("greenbvp.identities", "check_decomposition", "identities.check"),
    ("greenbvp.identities", "check_connecting", "identities.check"),
    ("greenbvp.identities", "check_symmetry", "identities.check"),
    ("greenbvp.identities", "check_mixed_reflection", "identities.check"),
    ("greenbvp.identities", "check_slope_constancy", "identities.check"),
    ("greenbvp.comparison", "check_solution_comparison", "comparison.check"),
    ("greenbvp.comparison", "check_kernel_domination", "comparison.check"),
    ("greenbvp.comparison", "solve_bvp", "comparison.solve"),
]

# The integrator's two engines, traced only where ``integrate`` looks them up.
ENGINES = [
    ("greenbvp.integrate", "solve_ivp", "integrate.rk"),
    ("greenbvp.integrate", "expm", "integrate.expm"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "info")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.task = task
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        row = {"id": index, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "task": self.task}
        if self.info is not None:
            row["info"] = self.info
        return row


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (overlapping children are merged, not double counted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cursor = sp.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor, sp.start), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(sp.duration - covered)
    return out


class Recorder:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.coeff_evals = 0
        self.task = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.task))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info=None):
        sp = self.spans[idx]
        sp.end = time.perf_counter()
        sp.info = info
        self._stack.pop()

    # -- patching -----------------------------------------------------------
    def _wrap(self, fn, name: str):
        describe = DESCRIBE.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                if name == "greens.build" and hasattr(exc, "det"):
                    info["margin"] = float(exc.det)  # a refusal reports its margin
                rec.close(idx, info)
                raise
            rec.close(idx, describe(result) if describe else None)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "greenbvp" or key.startswith("greenbvp.")) and m is not None]
        for modname, attr, name in TRACED:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(getattr(cls, meth), name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for modname, attr, name in ENGINES:
            module = importlib.import_module(modname)
            self._set(module, attr, self._wrap(getattr(module, attr), name))

        operators = importlib.import_module("greenbvp.operators")
        evaluate = operators.CoeffSegment.evaluate
        rec = self

        @functools.wraps(evaluate)
        def counted(*args, **kwargs):
            rec.coeff_evals += 1
            return evaluate(*args, **kwargs)

        self._set(operators.CoeffSegment, "evaluate", counted)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write(self, path):
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps(sp.to_json(i)) + "\n")


# -- what each span records from its call's return value -------------------

def _describe_identities(reports):
    done = [r for r in reports if not r.skipped]
    return {"checks": len(done), "skipped": len(reports) - len(done),
            "worst": max((float(r.residual) for r in done), default=0.0)}


DESCRIBE = {
    "integrate": lambda fs: {"lams": int(fs.K), "segments": len(fs.segments)},
    "integrate.rk": lambda res: {"steps": max(len(res.t) - 1, 0), "nfev": int(res.nfev)},
    "greens.build": lambda G: {"block_dim": (G.nseg + 1) * G.d,
                               "margin": float(G.resonance_margin)},
    "greens.eval_grid": lambda values: {"points": int(values.size)},
    "greens.scan": lambda dets: {"lams": len(dets)},
    "spectrum.search": lambda spectrum: {"roots": len(spectrum.eigenvalues)},
    "identities.run": _describe_identities,
}


# -- per-layer metrics ------------------------------------------------------

def _under(spans, i, ancestor: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], coeff_evals: int, compile_calls: int) -> dict:
    """Work counts and times of each layer over the given spans.

    ``*_s`` metrics named self_s are self times (children excluded); rk_s and
    expm_s are the inclusive time of the engine calls, which have no traced
    children.
    """
    selfs = self_times(spans)
    m = {name: 0 for name, _ in PER_LAYER}
    m["expressions.compile_calls"] = compile_calls
    m["operators.coeff_evals"] = coeff_evals
    m["greens.margin_min"] = None
    search_lams = roots = 0
    for i, sp in enumerate(spans):
        info = sp.info or {}
        name, layer = sp.name, sp.name.split(".")[0]
        if layer in ("spectrum", "signscan", "identities", "comparison"):
            m[f"{layer}.self_s"] += selfs[i]
        if name == "integrate":
            m["integrate.calls"] += 1
            m["integrate.self_s"] += selfs[i]
            m["integrate.lams"] += info.get("lams", 0)
            m["integrate.segments"] += info.get("segments", 0)
        elif name == "integrate.rk":
            m["integrate.rk_s"] += sp.duration
            m["integrate.rk_steps"] += info.get("steps", 0)
            m["integrate.rhs_evals"] += info.get("nfev", 0)
        elif name == "integrate.expm":
            m["integrate.expm_calls"] += 1
            m["integrate.expm_s"] += sp.duration
        elif name == "greens.build":
            m["greens.build_self_s"] += selfs[i]
            if info.get("error") == "ResonantProblemError":
                m["greens.refusals"] += 1
            elif "error" not in info:
                m["greens.builds"] += 1
                m["greens.block_dim_max"] = max(m["greens.block_dim_max"], info["block_dim"])
            if "margin" in info:
                low = m["greens.margin_min"]
                m["greens.margin_min"] = info["margin"] if low is None else min(low, info["margin"])
        elif name == "greens.eval_grid":
            m["greens.eval_grid_s"] += selfs[i]
            m["greens.grid_points"] += info.get("points", 0)
            if _under(spans, i, "signscan.classify"):
                m["signscan.classify_points"] += info.get("points", 0)
        elif name == "greens.scan":
            m["greens.scan_calls"] += 1
            m["greens.scan_lams"] += info.get("lams", 0)
            if _under(spans, i, "spectrum.search"):
                m["spectrum.scan_rounds"] += 1
                search_lams += info.get("lams", 0)
        elif name == "spectrum.search":
            m["spectrum.searches"] += 1
            roots += info.get("roots", 0)
        elif name == "spectrum.eigenfunction":
            m["spectrum.eigenfunctions"] += 1
        elif name == "signscan.interval":
            m["signscan.intervals"] += 1
        elif name == "signscan.probe" and _under(spans, i, "signscan.interval"):
            m["signscan.probes"] += 1
        elif name == "identities.run":
            m["identities.checks"] += info.get("checks", 0)
            m["identities.skipped"] += info.get("skipped", 0)
            m["identities.worst_residual"] = max(m["identities.worst_residual"],
                                                 info.get("worst", 0.0))
        elif name == "comparison.solve":
            m["comparison.solves"] += 1
    # ratios and minima over an empty set are reported as 0
    m["greens.margin_min"] = m["greens.margin_min"] or 0.0
    m["spectrum.lams_per_root"] = search_lams / roots if roots else 0.0
    intervals = m["signscan.intervals"]
    m["signscan.probes_per_threshold"] = m["signscan.probes"] / intervals if intervals else 0.0
    return m


# (metric, unit) for every per-layer metric, in report order.
PER_LAYER = [
    ("expressions.compile_calls", "count"),
    ("operators.coeff_evals", "count"),
    ("integrate.calls", "count"),
    ("integrate.lams", "count"),
    ("integrate.segments", "count"),
    ("integrate.self_s", "s"),
    ("integrate.rk_steps", "count"),
    ("integrate.rhs_evals", "count"),
    ("integrate.rk_s", "s"),
    ("integrate.expm_calls", "count"),
    ("integrate.expm_s", "s"),
    ("greens.builds", "count"),
    ("greens.build_self_s", "s"),
    ("greens.block_dim_max", "count"),
    ("greens.margin_min", "1"),
    ("greens.refusals", "count"),
    ("greens.grid_points", "count"),
    ("greens.eval_grid_s", "s"),
    ("greens.scan_calls", "count"),
    ("greens.scan_lams", "count"),
    ("spectrum.searches", "count"),
    ("spectrum.scan_rounds", "count"),
    ("spectrum.eigenfunctions", "count"),
    ("spectrum.self_s", "s"),
    ("spectrum.lams_per_root", "1"),
    ("signscan.intervals", "count"),
    ("signscan.probes", "count"),
    ("signscan.probes_per_threshold", "1"),
    ("signscan.classify_points", "count"),
    ("signscan.self_s", "s"),
    ("identities.checks", "count"),
    ("identities.skipped", "count"),
    ("identities.worst_residual", "1"),
    ("identities.self_s", "s"),
    ("comparison.solves", "count"),
    ("comparison.self_s", "s"),
]
