"""The grid-executor benchmark: seed of the repo's perf trajectory.

Times one fixed PageRank grid (the Figure 6 lineup on two cluster
sizes) through the executor's three operating points —

* ``jobs1``       — the sequential baseline, cache disabled,
* ``jobsN_cold``  — ``--jobs N`` fan-out into an empty cache,
* ``jobsN_warm``  — ``--jobs N`` over the now-populated cache (a
  resumed or repeated grid; every cell is a hit),

— and writes the measurements to ``BENCH_grid.json``. The executor's
win at ``--jobs N`` over the sequential baseline is reported as two
ratios, ``speedup_parallel`` (cold fan-out) and ``speedup_warm`` (cache
replay), next to ``host_cpus``: a single-core host caps cold parallel
speedup at ~1×, and there the cache carries the win.

Run it as ``repro bench-grid``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from ..obs.hostclock import host_now
from ..obs.report import write_bench_record
from .executor import ExecutionReport, execute_grid

__all__ = ["run_bench", "BENCH_SCHEMA_VERSION"]

#: bump when the BENCH_grid.json record layout changes
#: v2: schema_version + speedup_warm + grid cost block + history append
#: v3: drops the duplicate ``speedup`` and ``speedup_warm_cache`` keys
BENCH_SCHEMA_VERSION = 3

#: the fixed benchmark grid: Figure 6's PageRank lineup, two sizes
BENCH_DATASETS = ("twitter", "uk0705", "wrn")
BENCH_CLUSTER_SIZES = (16, 64)
BENCH_DATASET_SIZE = "small"


def _bench_spec():
    from ..core.runner import ExperimentSpec
    from ..engines import systems_for_workload

    return ExperimentSpec(
        systems=systems_for_workload("pagerank"),
        workloads=("pagerank",),
        datasets=BENCH_DATASETS,
        cluster_sizes=BENCH_CLUSTER_SIZES,
        dataset_size=BENCH_DATASET_SIZE,
    )


def _timed(label: str, **kwargs) -> dict:
    start = host_now()
    execution = execute_grid(_bench_spec(), **kwargs)
    seconds = host_now() - start
    report: ExecutionReport = execution.report
    print(f"  {label:<11s} {seconds:7.2f}s  ({report.summary()})")
    return {
        "jobs": report.jobs,
        "seconds": seconds,
        "executed": report.executed,
        "cache_hit_rate": report.cache_hit_rate,
        # the grid's aggregated simulated bill (repro.obs.cost): unlike
        # the host timings above this is deterministic across hosts
        "cost_dollars": _scheduler_metric(execution, "cost.dollars"),
        "cost_answers": _scheduler_metric(execution, "cost.answers"),
    }


def _scheduler_metric(execution, name: str) -> float:
    try:
        return float(execution.observation.metrics.value(name))
    except KeyError:
        return 0.0


def run_bench(
    jobs: Optional[int] = None,
    output: str = "BENCH_grid.json",
    history: Optional[str] = None,
) -> dict:
    """Run the benchmark matrix; write its JSON record + history line.

    ``output`` holds only the latest record; each run also appends one
    canonical JSON line to ``history`` (default: ``BENCH_history.jsonl``
    next to ``output``), so the perf trajectory accumulates and
    ``repro report --diff`` can compare any two points on it. Pass an
    empty string to skip the history append.
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = max(2, jobs)  # the point is jobs=N vs jobs=1; N=1 measures nothing
    spec = _bench_spec()
    cells = (len(spec.systems) * len(spec.workloads) * len(spec.datasets)
             * len(spec.cluster_sizes))
    print(f"bench-grid: {cells} PageRank cells, jobs=1 vs jobs={jobs}")

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        modes = {
            "jobs1": _timed("jobs=1", jobs=1, cache=None),
            "jobsN_cold": _timed(f"jobs={jobs}", jobs=jobs, cache=cache_dir),
            "jobsN_warm": _timed("warm cache", jobs=jobs, cache=cache_dir),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    base = modes["jobs1"]["seconds"]
    cold = modes["jobsN_cold"]["seconds"]
    warm = modes["jobsN_warm"]["seconds"]
    record = {
        "bench": "grid",
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": "pagerank",
        "systems": len(spec.systems),
        "datasets": list(BENCH_DATASETS),
        "cluster_sizes": list(BENCH_CLUSTER_SIZES),
        "dataset_size": BENCH_DATASET_SIZE,
        "cells": cells,
        "jobs": jobs,
        "host_cpus": os.cpu_count(),
        "modes": modes,
        "speedup_parallel": base / cold if cold else 0.0,
        "speedup_warm": base / warm if warm else 0.0,
        "cache_hit_rate": modes["jobsN_warm"]["cache_hit_rate"],
        # perf provenance for the cold mode: before memoization the
        # planner hashed each dataset's edge bytes once per cell (78
        # digests; 11.29s cold at jobs=4 on the 1-cpu record host);
        # dataset_fingerprint is now lru_cached, because a dataset's
        # bytes never change within a process, so the O(edges) digest
        # runs once per dataset per process.
        "notes": {
            "dataset_digest": (
                "cell keys memoize dataset_fingerprint per process — "
                "one bulk digest per dataset, not per grid cell"
            ),
        },
    }
    history = write_bench_record(record, output, history)
    print(
        f"speedup: parallel {record['speedup_parallel']:.2f}x · "
        f"warm-cache {record['speedup_warm']:.2f}x -> {output}"
        + (f" (+ history {history})" if history else "")
    )
    return record

