"""Statistics and environment records for the benchmark harness."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource

import numpy as np
from scipy.special import betainc

# A percentile is backed by the data when at least this many samples lie
# beyond it.
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (q in (0, 1)).

    A Beta-weighted average of all order statistics rather than one of them:
    on a noisy machine a single sample at the percentile's rank carries all
    of that sample's timing noise, while the weighted average spreads it
    over the neighbouring ranks.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above rank ceil(q n), the q-percentile's rank."""
    return n - max(math.ceil(q * n), 1)


def supported(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= SAMPLES_BEYOND


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(kernel_threads_was_set: bool) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "GREEN_KERNEL_THREADS": "unset" if not kernel_threads_was_set
        else "was set; removed for the run",
    }
