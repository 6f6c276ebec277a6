"""Host cost of charging one simulated run's fleet, from the repo root::

    PYTHONPATH=src python -m benchmarks.bench_fleet

Prints one JSON line: per fleet size, the microseconds (best of 5) of
one 21-phase run's CPU records, memory charges and memory snapshots.
"""

import json
import time

from repro.cluster import GB, R3_XLARGE, MemoryAccountant, ResourceTracker
from repro.obs import Tracer

PHASES = 21


def cpu(n):
    tracker = ResourceTracker(n, Tracer())
    loads = [1.0 + m / n for m in range(n)]
    for phase in range(PHASES):
        tracker.record_cpu(loads, 2.5, 0.1, 0.01 * phase)
    tracker.cpu_totals()
    tracker.max_cpu_utilization()


def memory(n):
    accountant = MemoryAccountant(n, R3_XLARGE)
    for label in ("graph", "state", "overhead"):
        accountant.allocate_even(n * GB, label, skew=0.2)
    for _ in range(PHASES):
        accountant.allocate_even(n * GB / 4, "messages", skew=0.1)
        for _ in range(3):
            accountant.total_used_bytes()
        accountant.max_peak_bytes()
        accountant.free_label("messages")
    accountant.total_peak_bytes()


def snapshots(n):
    tracker = ResourceTracker(n, Tracer())
    row = tuple(float(GB + m * 4096) for m in range(n))
    for phase in range(PHASES):
        tracker.record_memory(float(phase), row)
    tracker.peak_memory_bytes()
    tracker.total_memory_bytes()


def best_us(run, n, repeats=5, loops=20):
    """Best mean time of ``loops`` runs over ``repeats`` batches, in µs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            run(n)
        best = min(best, (time.perf_counter() - start) / loops)
    return round(best * 1e6, 1)


if __name__ == "__main__":
    print(json.dumps({n: {run.__name__: best_us(run, n)
                          for run in (cpu, memory, snapshots)}
                      for n in (16, 32, 64, 128)}))
