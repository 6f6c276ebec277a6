"""The serving benchmark: hundreds of clients, Zipf-skewed popularity.

Real benchmark-as-a-service traffic is skewed: everyone re-runs the
famous configurations and a long tail probes the rest. The load
generator reproduces that shape deterministically — a seeded
``random.Random`` draws each simulated client's submission from a fixed
cell catalog under a Zipf(s) popularity law, so the *set* of distinct
cells (and therefore the cache hit-rate, the executed-cell count, and
the total simulated bill) is a pure function of the seed, while the
latency percentiles measure this host's serving performance.

One run:

1. starts an in-process :class:`~repro.serve.daemon.ServeDaemon` on a
   loopback port with a fresh cache directory and a deliberately small
   admission bound (so queue-full backoff is exercised, not just
   possible);
2. connects ``clients`` simulated clients (mixed priorities and
   weights), each submitting one small job — mostly single cells,
   sometimes a two-size column of the same configuration;
3. waits for every job, spot-checks bit-equality of the most popular
   configuration against a one-shot executor run (``same_results`` plus
   byte-identical cell journals), and collects the daemon's stats;
4. writes ``BENCH_serve.json`` and appends the canonical history line
   to ``BENCH_history.jsonl`` — the same trajectory file the grid and
   cost benches feed, so ``repro report --diff`` covers serving too.

Run it as ``repro serve-bench``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

from ..obs.hostclock import host_now
from ..obs.report import write_bench_record
from .client import ServeClient, grid_from_payloads
from .daemon import ServeDaemon

__all__ = ["run_loadgen", "SERVE_BENCH_SCHEMA_VERSION", "cell_catalog"]

#: bump when the BENCH_serve.json record layout changes
SERVE_BENCH_SCHEMA_VERSION = 1

#: engines served by the bench: the intersection of the PageRank and
#: grid lineups, so every catalog cell is valid for both workloads
BENCH_SYSTEMS = ("BB", "BV", "G", "S", "FG")

#: the workload mix: the paper's iterative staple plus the k-hop
#: traversal regime (§3.3) added by this repo's extension grid
BENCH_WORKLOADS = ("pagerank", "khop")

BENCH_DATASETS = ("twitter", "wrn")
BENCH_CLUSTER_SIZES = (16, 32)

#: Zipf skew: s≈1.2 gives the classic few-head/long-tail split
ZIPF_S = 1.2

#: fraction of submissions that ask for both cluster sizes (two cells)
_TWO_CELL_SHARE = 0.3


def cell_catalog() -> List[Tuple[str, str, str, int]]:
    """Every (system, workload, dataset, cluster_size) the bench can draw."""
    return [
        (system, workload, dataset, size)
        for system in BENCH_SYSTEMS
        for workload in BENCH_WORKLOADS
        for dataset in BENCH_DATASETS
        for size in BENCH_CLUSTER_SIZES
    ]


def _zipf_weights(count: int, s: float = ZIPF_S) -> List[float]:
    return [1.0 / ((rank + 1) ** s) for rank in range(count)]


def _one_shot_payload_journals(spec) -> dict:
    """cell → canonical journal text, via the one-shot executor path."""
    from ..exec.executor import execute_specs
    from ..exec.serialize import result_to_payload

    execution = execute_specs([spec], jobs=1, cache=None)
    journals = {}
    for result in execution.grid.cells.values():
        payload = result_to_payload(result)
        key = (result.system, result.workload, result.dataset,
               result.cluster_size)
        journals[key] = payload["journal"]
    return execution.grid, journals


def run_loadgen(
    clients: int = 120,
    seed: int = 2018,
    dataset_size: str = "tiny",
    max_queue_cells: int = 96,
    output: Optional[str] = "BENCH_serve.json",
    history: Optional[str] = None,
    journal: Optional[str] = None,
) -> dict:
    """Drive one seeded load-test against an in-process daemon."""
    rng = random.Random(seed)
    catalog = cell_catalog()
    weights = _zipf_weights(len(catalog))

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-serve-bench-"))
    daemon = ServeDaemon(
        address="127.0.0.1:0",
        cache=cache_dir,
        max_queue_cells=max_queue_cells,
        journal_path=journal,
    ).start()
    print(f"serve-bench: {clients} clients over {len(catalog)} catalog cells "
          f"(Zipf s={ZIPF_S}, seed={seed}) at {daemon.address}")

    start = host_now()
    job_ids: List[str] = []
    drawn_cells = set()
    popularity: dict = {}
    top_job: Optional[Tuple[str, tuple]] = None
    try:
        for index in range(clients):
            name = f"c-{index:04d}"
            # a tenth of the fleet is "interactive" (higher priority);
            # weights split the rest into heavy and light shares
            priority = 1 if index % 10 == 0 else 0
            weight = 2.0 if index % 3 == 0 else 1.0
            choice = rng.choices(range(len(catalog)), weights=weights, k=1)[0]
            system, workload, dataset, size = catalog[choice]
            sizes: Tuple[int, ...] = (size,)
            if rng.random() < _TWO_CELL_SHARE:
                sizes = BENCH_CLUSTER_SIZES
            for cluster_size in sizes:
                drawn_cells.add((system, workload, dataset, cluster_size))
            popularity[choice] = popularity.get(choice, 0) + 1
            with ServeClient(daemon.address, client=name) as link:
                request = link.request(
                    systems=(system,), workloads=(workload,),
                    datasets=(dataset,), cluster_sizes=sizes,
                    dataset_size=dataset_size,
                    priority=priority, weight=weight,
                )
                job_id = link.submit(request)
            job_ids.append(job_id)
            if top_job is None or popularity[choice] > top_job[1][0]:
                top_job = (job_id, (popularity[choice], request))

        # one monitor connection drains every job to completion
        with ServeClient(daemon.address, client="monitor") as monitor:
            for job_id in job_ids:
                monitor.wait(job_id, timeout=600.0)
            snapshot = monitor.stats()["stats"]

            # bit-equality spot check: the most popular submission,
            # served, must match the one-shot executor exactly
            spot_id, (_, spot_request) = top_job
            payloads = monitor.fetch_payloads(spot_id)
            served_grid = grid_from_payloads(payloads)
            oneshot_grid, oneshot_journals = _one_shot_payload_journals(
                spot_request.to_spec()
            )
            bit_equal = served_grid.same_results(oneshot_grid) and all(
                payload["journal"]
                == oneshot_journals[payloads[i]["record"]["system"],
                                    payloads[i]["record"]["workload"],
                                    payloads[i]["record"]["dataset"],
                                    payloads[i]["record"]["cluster_size"]]
                for i, payload in enumerate(payloads)
            )
    finally:
        daemon.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    seconds = host_now() - start

    record = {
        "bench": "serve",
        "schema_version": SERVE_BENCH_SCHEMA_VERSION,
        "seed": seed,
        "zipf_s": ZIPF_S,
        "clients": clients,
        "dataset_size": dataset_size,
        "catalog_cells": len(catalog),
        "systems": list(BENCH_SYSTEMS),
        "workloads": list(BENCH_WORKLOADS),
        "datasets": list(BENCH_DATASETS),
        "cluster_sizes": list(BENCH_CLUSTER_SIZES),
        "max_queue_cells": max_queue_cells,
        "jobs": snapshot["jobs"],
        "rejected_submissions": snapshot["rejected"],
        "cells": snapshot["cells"],
        "distinct_cells": len(drawn_cells),
        "executed": snapshot["executed"],
        "cache_hits": snapshot["cache_hits"],
        # deterministic given the seed: one execution per distinct cell
        "cache_hit_rate": snapshot["cache_hit_rate"],
        "cost_dollars": snapshot["dollars"],
        # host-measured serving performance (varies across machines)
        "seconds": seconds,
        "p50_latency": snapshot["p50_latency"],
        "p99_latency": snapshot["p99_latency"],
        "p50_queue_wait": snapshot["p50_queue_wait"],
        "p99_queue_wait": snapshot["p99_queue_wait"],
        "bit_equal_spotcheck": bool(bit_equal),
        "notes": {
            "determinism": (
                "cells, distinct_cells, cache_hit_rate, and cost_dollars "
                "are functions of the seed; latencies are host-measured"
            ),
        },
    }
    write_bench_record(record, output, history)
    print(
        f"served {record['cells']} cells for {clients} clients: "
        f"hit-rate {record['cache_hit_rate']:.2f} · "
        f"p50 {record['p50_latency']*1000:.0f}ms · "
        f"p99 {record['p99_latency']*1000:.0f}ms · "
        f"${record['cost_dollars']:,.0f} · "
        f"bit-equal {record['bit_equal_spotcheck']}"
        + (f" -> {output}" if output else "")
    )
    return record

