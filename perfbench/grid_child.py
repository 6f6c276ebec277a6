"""The program process of a grid workload: set up, run one grid, report.

Launched by ``run.py`` under the pinned environment. It imports the
program, generates the grid's datasets, prints ``READY <monotonic
seconds>`` (the end of set-up), then runs the grid through the public
executor API — one single-cell spec per cell, in the seed's order, into
a fresh cache directory — and writes what it delivered to ``--out``:
the timed grid seconds, one digest per cell, and its own peak RSS.

``--mode setup`` exits right after READY; ``--mode warmup`` also
byte-compiles the program and runs one cell of each workload, so the
modules a grid imports lazily are compiled before anything is timed.
``--trace FILE`` installs the trace shims before the datasets load,
writes the spans to FILE and adds their summary to the record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from common import (
    DATASETS,
    SRC,
    cell_id,
    grid_cells,
    payload_digest,
    peak_rss_kb,
    seeded_order,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "warmup", "grid"),
                        default="grid")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.exec
    from repro.core.runner import ExperimentSpec
    from repro.datasets import registry
    from repro.exec.serialize import result_to_payload
    import_s = time.perf_counter() - t0

    trace = None
    if args.trace:
        from shims import Trace

        trace = Trace().install()

    cells = grid_cells(args.workload)
    size = cells[0][3]
    for name in DATASETS:
        # looked up on the module, so an installed shim sees the call
        registry.load_dataset(name, size)
    print(f"READY {time.monotonic():.9f}", flush=True)

    if args.mode == "setup":
        return 0
    if args.mode == "warmup":
        import compileall

        compileall.compile_dir(str(SRC / "repro"), quiet=1)
        from repro.core.runner import run_cell
        from repro.engines import WORKLOAD_NAMES

        for name in WORKLOAD_NAMES:
            run_cell("BV", name, registry.load_dataset("wrn", "tiny"), 16)
        return 0

    order = seeded_order(cells, args.seed)
    specs = [
        ExperimentSpec(systems=(system,), workloads=(workload,),
                       datasets=(dataset,), cluster_sizes=(machines,),
                       dataset_size=dsize)
        for system, workload, dataset, dsize, machines in order
    ]
    start = time.perf_counter()
    execution = repro.exec.execute_specs(specs, jobs=args.jobs, cache=args.cache)
    grid_s = time.perf_counter() - start
    if trace is not None:
        trace.remove()

    digests = {
        cell_id(cell): payload_digest(result_to_payload(result))
        for cell, result in zip(order, execution.results)
    }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "grid_s": grid_s,
        "import_s": import_s,
        "digests": digests,
        "self_peak_kb": peak_rss_kb(os.getpid()),
        "cpu_s": (usage.ru_utime + usage.ru_stime
                  + children.ru_utime + children.ru_stime),
        "cell_host_s": _cell_host_seconds(execution),
    }
    if trace is not None:
        trace.dump(args.trace)
        record["trace"] = trace.summary(since=start)
        record["tallies"] = dict(trace.tallies)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


def _cell_host_seconds(execution) -> dict:
    """Each cell's host seconds from the executor's scheduler journal."""
    seconds = {}
    for span in execution.scheduler_journal().spans():
        if span.get("name") == "cell":
            attrs = span.get("args", {})
            seconds[attrs.get("cell")] = float(attrs.get("host_seconds", 0.0))
    return seconds


if __name__ == "__main__":
    sys.exit(main())
