"""The benchmark calls greenbvp by name.  Its tracer (perfbench/spans.py)
patches functions by attribute name: every traced function, method and
engine it names must exist, and uninstalling must put each original back.
Its workloads (perfbench/workloads.py) call the public API with keyword
arguments: a task of each workload must still run."""

import importlib.util
import math
import sys
from pathlib import Path

from greenbvp import BCKind, LinearOperator
from greenbvp import integrate, signscan, spectrum
from greenbvp.greens import kernel_problem


def _load(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_trace_recorder_installs_and_uninstalls():
    spans = _load("spans")
    recorder = spans.Recorder()
    eigenfunction_at = spectrum.eigenfunction_at
    recorder.install()
    try:
        assert spectrum.eigenfunction_at is not eigenfunction_at
        op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
        spectrum.eigenfunction_at(op, BCKind.DIRICHLET, math.pi ** 2)
    finally:
        recorder.uninstall()
    assert spectrum.eigenfunction_at is eigenfunction_at
    names = {span.name for span in recorder.spans}
    assert {"spectrum.eigenfunction", "integrate", "integrate.expm"} <= names


def test_trace_recorder_sees_the_rk_engine():
    # solve_ivp imports scipy.integrate on its first call; the tracer patches
    # the module attribute, which _rk_segment must keep looking up
    spans = _load("spans")
    recorder = spans.Recorder()
    recorder.install()
    try:
        op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
        integrate._rk_reference(op, 2.0, integrate.DEFAULT_TOL)
    finally:
        recorder.uninstall()
    rk = [span for span in recorder.spans if span.name == "integrate.rk"]
    assert rk and all(span.info["steps"] > 0 for span in rk)


def test_first_task_of_each_workload_runs():
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        task = workloads.build_tasks(workload, workloads.make_inputs(workload, 7))[0]
        outcome = task.run()
        assert outcome.status == "ok", (workload, task.label, outcome.detail)


def test_trace_recorder_counts_the_interval_probes():
    # the tracer counts a sign search's probes as the classify_problem calls
    # inside sign_interval: every classification of the search, those of the
    # tracker on this edge flip included, must come through that name
    spans = _load("spans")
    recorder = spans.Recorder()
    recorder.install()
    try:
        op = LinearOperator.from_exprs(2, 1.5, ["t*(t-3)", "0", "0", "0"])
        o, kind = kernel_problem(op, "P4T")
        principal = spectrum.principal_eigenvalue(o, kind, (-60.0, 10.0))
        res = signscan.sign_interval(o, kind, "neg", principal)
    finally:
        recorder.uninstall()
    assert res.flip == "edge"
    found = recorder.spans

    def under(name, ancestor):
        return [i for i, span in enumerate(found) if span.name == name
                and spans._under(found, i, ancestor)]

    classified = under("signscan.classify", "signscan.interval")
    assert classified and classified == under("signscan.classify", "signscan.probe")
    assert len(under("signscan.probe", "signscan.interval")) == len(classified)
