"""greenbvp benchmark: one workload, one process, a closed loop of tasks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 38 --trace 0

One client runs the workload's tasks one after another and starts the next
only when the previous one has returned.  A pass is one run over all tasks.
A run makes a fixed number of passes: as many as fit in --seconds at the
workload's pass time on the reference machine (PASS_SECONDS), at least one.
So every run with one --seconds attempts the same tasks, and its count of
failed tasks repeats exactly.  Every task's answer is checked.

--trace 0 prints the end-to-end metrics: set-up time of a fresh process,
pass wall time, pooled per-task latency, peak memory and the share of tasks
that passed.  --trace 1 makes a warm-up pass and then one pass in which
every task runs twice, once plain and once with the span recorder
installed, and prints the per-layer metrics of the traced executions
together with the tracing overhead.

The last line of standard output is the JSON result.  A copy with the
environment, every task outcome and (traced) the spans is written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import measure
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
FAILURES = ("wrong", "refused", "error")
# Median wall time of one untraced pass on the reference machine: a 2-vCPU
# x86-64 VM, Python 3, numpy/scipy with OpenBLAS.
PASS_SECONDS = {"reproduce": 9.5, "kernels": 4.2, "stiff": 9.0}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_s.p50", "s"),
    ("task_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
]
TRACE_EXTRA = [
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def execute(task: workloads.Task) -> tuple[float, workloads.Outcome]:
    """Run one task; an exception becomes a failed outcome, never an abort."""
    resonant = workloads.import_program().greens.ResonantProblemError
    t0 = time.perf_counter()
    try:
        outcome = task.run()
    except resonant as exc:
        outcome = workloads.Outcome("refused", str(exc))
    except Exception:  # every task outcome is counted; the pass goes on
        outcome = workloads.Outcome("error", traceback.format_exc())
    return time.perf_counter() - t0, outcome


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the program, load the
    fixtures and generate the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def run_untraced(tasks, passes: int):
    records, walls = [], []
    for _ in range(passes):
        t0 = time.perf_counter()
        for task in tasks:
            dt, outcome = execute(task)
            records.append((task.label, dt, outcome))
        walls.append(time.perf_counter() - t0)
    return records, walls


def run_traced(tasks):
    """A warm-up pass, then one pass in which each task runs both plain and
    under the recorder, in alternating order so neither side always gets
    the warmer caches.  Per-layer metrics describe the traced executions."""
    compile_expr = workloads.import_program().expressions.compile_expr
    rec = spans.Recorder()
    records = []
    walls = {False: 0.0, True: 0.0}
    compile_calls = 0
    for task in tasks:
        dt, outcome = execute(task)
        records.append((task.label + " [warm-up]", dt, outcome))
    for i, task in enumerate(tasks):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                before = compile_expr.cache_info()
                rec.task = i
                rec.install()
            try:
                dt, outcome = execute(task)
            finally:
                if traced:
                    rec.uninstall()
            if traced:
                after = compile_expr.cache_info()
                compile_calls += (after.hits + after.misses) - (before.hits + before.misses)
            walls[traced] += dt
            records.append((task.label + (" [traced]" if traced else ""), dt, outcome))
    layer = spans.layer_metrics(rec.spans, rec.coeff_evals, compile_calls)
    layer["trace.untraced_wall_s"] = walls[False]
    layer["trace.traced_wall_s"] = walls[True]
    layer["trace.overhead_s"] = walls[True] - walls[False]
    return records, layer, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kernel_threads_was_set = os.environ.pop("GREEN_KERNEL_THREADS", None) is not None
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed)
    tasks = workloads.build_tasks(args.workload, inputs)

    if args.trace:
        records, layer, rec = run_traced(tasks)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.PER_LAYER + TRACE_EXTRA}
        walls = [layer["trace.untraced_wall_s"]]
    else:
        records, walls = run_untraced(tasks, pass_count(args.workload, args.seconds))
        times = [dt for _, dt, _ in records]
        ok = sum(1 for _, _, o in records if o.status == "ok")
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "task_s.p50": measure.percentile(times, 0.50),
            "task_s.p90": measure.percentile(times, 0.90),
            "peak_rss_mb": measure.peak_rss_mb(),
            "pass_ratio": ok / len(records),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failed = [(label, o) for label, _, o in records if o.status in FAILURES]
    wrong = [(label, o) for label, o in failed if o.status == "wrong"]
    env = measure.environment(kernel_threads_was_set)
    n = len(records)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} tasks={n}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  task_s samples: n={n}; p50 has {measure.samples_beyond(n, 0.5)} beyond, "
              f"p90 has {measure.samples_beyond(n, 0.9)} beyond "
              f"({'supported' if measure.supported(n, 0.9) else 'fewer than ten'})")
        print(f"  fail_ratio {len(failed) / n:.6g} ({len(failed)}/{n})")
        print(f"  setup_s runs: {', '.join(f'{t:.4f}' for t in setup_times)}")
    seen: dict[tuple[str, str], list] = {}
    for label, o in failed:
        seen.setdefault((o.status, label), [0, o.detail])[0] += 1
    for (status, label), (count, detail) in seen.items():
        print(f"  {status} x{count}: {label}: {(detail.strip().splitlines() or [''])[-1]}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rec.write(out_dir / f"{stem}-spans.jsonl")
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "inputs": inputs, "setup_runs": setup_times,
                   "pass_walls": walls, "metrics": metrics,
                   "tasks": [{"label": label, "seconds": dt, "status": o.status,
                              "detail": o.detail} for label, dt, o in records]},
                  fh, indent=1)

    print(json.dumps({"correct": not wrong, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
