"""The elasticity benchmark: what a mid-run rescale costs, per mechanism.

Runs the tiny rescale grid — one system per Table 1 recovery mechanism
plus a second checkpointing system, scale-out and scale-in at an early
and a late superstep — and records the simulated economics next to the
host-side wall time:

* ``rescale_seconds`` / ``dollars_per_rescale`` per mechanism — the
  deterministic simulated price of elasticity (checkpoint replay vs
  migrate-only re-execution vs restart-from-zero);
* ``mean_overhead_seconds`` per direction — scale-out often *wins*
  end-to-end (the remaining supersteps run wider), scale-in always
  pays;
* ``bit_equal`` — the gate: every rescaled run must return answers
  bit-identical to its fixed-size reference.

Writes ``BENCH_elastic.json`` and appends one canonical JSON line to
``BENCH_history.jsonl``, same trajectory contract as the grid and serve
benches. Runnable as ``repro bench-elastic`` or
``python -m benchmarks.bench_elastic``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from ..obs.hostclock import host_now
from ..obs.metrics import fold_sum
from .experiment import ElasticReport, elasticity_experiment

__all__ = ["run_bench", "main", "BENCH_SCHEMA_VERSION"]

#: bump when the BENCH_elastic.json record layout changes
BENCH_SCHEMA_VERSION = 1

#: one system per recovery mechanism, plus Giraph for a second
#: checkpointing data point (the paper's Table 1 coverage)
BENCH_SYSTEMS = ("BV", "G", "HD", "V")
BENCH_DATASET_SIZE = "tiny"


def _mean_by(report: ElasticReport, key, value) -> Dict[str, float]:
    """Mean of ``value(cell)`` over completed cells, grouped by ``key``."""
    groups: Dict[str, List[float]] = {}
    for cell in report.cells:
        if cell.completed:
            groups.setdefault(key(cell), []).append(value(cell))
    return {
        name: fold_sum(values) / len(values)
        for name, values in sorted(groups.items())
    }


def run_bench(
    jobs: Optional[int] = None,
    output: str = "BENCH_elastic.json",
    history: Optional[str] = None,
) -> dict:
    """Run the rescale grid; write its JSON record + history line.

    ``output`` holds only the latest record; each run also appends one
    canonical JSON line to ``history`` (default: ``BENCH_history.jsonl``
    next to ``output``) so the trajectory accumulates alongside the
    grid and serve benches. Pass an empty string to skip the append.
    """
    print(f"bench-elastic: rescale grid, systems {' '.join(BENCH_SYSTEMS)} "
          f"({BENCH_DATASET_SIZE} datasets)")
    start = host_now()
    report = elasticity_experiment(
        systems=BENCH_SYSTEMS,
        dataset_size=BENCH_DATASET_SIZE,
        jobs=jobs,
        cache_dir=None,
    )
    host_seconds = host_now() - start

    tolerance = {
        mechanism: {"tolerated": tolerated, "total": total}
        for mechanism, (tolerated, total)
        in sorted(report.tolerance_by_mechanism().items())
    }
    record = {
        "bench": "elastic",
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": report.workload,
        "dataset": report.dataset,
        "dataset_size": BENCH_DATASET_SIZE,
        "cluster_size": report.cluster_size,
        "seed": report.seed,
        "systems": list(BENCH_SYSTEMS),
        "cells": len(report.cells),
        "completed": sum(1 for c in report.cells if c.completed),
        "bit_equal": report.all_exact,
        "host_seconds": host_seconds,
        "host_cpus": os.cpu_count(),
        # everything below is simulated and deterministic across hosts
        "rescale_seconds_by_mechanism": _mean_by(
            report, lambda c: c.mechanism, lambda c: c.rescale_seconds
        ),
        "dollars_per_rescale": report.dollars_by_mechanism(),
        "mean_overhead_seconds": _mean_by(
            report, lambda c: c.direction, lambda c: c.overhead_seconds
        ),
        "tolerance": tolerance,
    }
    Path(output).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    if history is None:
        history = str(Path(output).with_name("BENCH_history.jsonl"))
    if history:
        with open(history, "a", encoding="ascii") as fh:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
    gate = "bit-equal" if record["bit_equal"] else "ANSWER MISMATCH"
    print(
        f"  {record['completed']}/{record['cells']} rescaled cells "
        f"completed ({gate}) in {host_seconds:.2f}s host -> {output}"
        + (f" (+ history {history})" if history else "")
    )
    for mechanism, seconds in record["rescale_seconds_by_mechanism"].items():
        dollars = record["dollars_per_rescale"].get(mechanism)
        bill = f", ${dollars:.2f}/rescale" if dollars is not None else ""
        print(f"  {mechanism}: {seconds:.1f}s per rescale{bill}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry shared by ``repro bench-elastic`` and benchmarks/."""
    parser = argparse.ArgumentParser(
        prog="bench-elastic",
        description="Benchmark mid-run rescaling across recovery mechanisms.",
    )
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: cpu count)")
    parser.add_argument("-o", "--output", default="BENCH_elastic.json",
                        help="where the JSON record goes")
    parser.add_argument("--history", default=None, metavar="FILE",
                        help="append the record here as one JSON line "
                             "(default: BENCH_history.jsonl next to the "
                             "output; pass '' to skip)")
    args = parser.parse_args(argv)
    record = run_bench(jobs=args.jobs, output=args.output,
                       history=args.history)
    return 0 if record["bit_equal"] else 1
