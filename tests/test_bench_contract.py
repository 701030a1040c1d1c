"""The benchmark's tracer (perfbench/spans.py) patches greenbvp by attribute
name: every traced function, method and engine it names must exist, and
uninstalling must put each original back."""

import importlib.util
import math
from pathlib import Path

from greenbvp import BCKind, LinearOperator
from greenbvp import integrate, spectrum


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_recorder_installs_and_uninstalls():
    spans = _load_spans()
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
    spans = _load_spans()
    recorder = spans.Recorder()
    recorder.install()
    try:
        op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
        integrate.integrate_fundamental(op, 2.0, force_rk=True)
    finally:
        recorder.uninstall()
    rk = [span for span in recorder.spans if span.name == "integrate.rk"]
    assert rk and all(span.info["steps"] > 0 for span in rk)
