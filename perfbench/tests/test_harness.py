"""Tests of the benchmark harness itself (not of greenbvp).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None):
    sp = spans.Span(name, start, parent, None)
    sp.end = end
    return sp


def test_self_time_subtracts_children_once():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),     # overlaps a: union of a and b is [1, 4]
        _span("c", 5.0, 6.0, parent=0),
        _span("leaf", 5.2, 5.7, parent=3),  # grandchild: only c loses it
        _span("late", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_percentile_estimate_and_sample_count_rule():
    assert measure.percentile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert measure.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    values = [float(v) for v in range(1, 101)]
    p50, p90 = measure.percentile(values, 0.5), measure.percentile(values, 0.9)
    assert p50 == pytest.approx(50.5)
    assert 89.0 < p90 < 92.0
    assert measure.percentile(values, 0.1) < p50 < p90
    # the ten-beyond rule: p90 needs at least 100 samples
    assert measure.samples_beyond(10, 0.9) == 1
    assert measure.samples_beyond(100, 0.9) == 10
    assert measure.supported(100, 0.9) and not measure.supported(99, 0.9)
    assert measure.supported(20, 0.5) and not measure.supported(19, 0.5)
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    assert first != workloads.make_inputs(workload, 8)
    assert len(first) == len(workloads.make_inputs(workload, 8))


def test_stiff_shifts_sit_midway_between_eigenvalues():
    def eigenvalue(kind, k):
        if kind == "u2-dirichlet":
            return (k * math.pi) ** 2
        step = math.pi if kind == "u4-neumann" else 2 * math.pi
        return -(k * step) ** 4

    for spec in workloads.make_inputs("stiff", 3):
        kind, lam = spec["kind"], spec["lam"]
        k = 0
        while abs(eigenvalue(kind, k + 1)) < abs(lam):
            k += 1
        lo, hi = sorted((eigenvalue(kind, k), eigenvalue(kind, k + 1)))
        assert lo < lam < hi
        assert lam == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def _small_tasks():
    """A few cheap tasks that still reach every counted layer kind."""
    reproduce = workloads.make_inputs("reproduce", 1)
    picked = [r for r in reproduce if r["row"] == "classification"][:2]
    picked += [r for r in reproduce if r == {"row": "threshold", "index": 8}]
    stiff = [s for s in workloads.make_inputs("stiff", 1) if abs(s["lam"]) < 2e4][:3]
    return (workloads.build_tasks("reproduce", picked)
            + workloads.build_tasks("stiff", stiff))


def test_work_counts_repeat_across_traced_runs():
    greens = workloads.import_program().greens
    original = greens.build_greens
    tasks = _small_tasks()
    first = run.run_traced(tasks)[1]
    second = run.run_traced(tasks)[1]
    counts = [name for name, unit in spans.PER_LAYER if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for name in ("integrate.rk_steps", "integrate.expm_calls", "greens.builds",
                 "greens.grid_points", "signscan.probes", "spectrum.searches",
                 "operators.coeff_evals", "expressions.compile_calls"):
        assert first[name] > 0, name
    assert greens.build_greens is original  # the recorder uninstalled itself


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stiff",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_matches_the_harness():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == spans.PER_LAYER + run.TRACE_EXTRA)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
