"""Figure 10: GraphLab memory traces, sync vs async, PageRank on WRN @128.

The asynchronous mode's distributed-lock queues hold memory without
releasing it; per-machine usage climbs through the run until a machine
crosses 30.5 GB and the computation dies. Synchronous memory stays
flat after loading.
"""

import numpy as np

from benchmarks.common import once, write_output

from repro.analysis import line_chart
from repro.cluster import Cluster, ClusterSpec, GB, SimulatedFailure
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for


def trace(key):
    """Per-machine memory series for one GraphLab run (may OOM)."""
    dataset = load_dataset("wrn", "small")
    engine = make_engine(key)
    workload = workload_for(engine, "pagerank", dataset)
    spec = ClusterSpec(128)
    cluster = Cluster(spec, num_workers=engine.workers_for(spec))
    from repro.engines.base import RunResult

    result = RunResult(system=key, workload="pagerank", dataset="wrn",
                       cluster_size=128)
    failed = False
    try:
        engine._load(dataset, workload, cluster, result)
        engine._execute(dataset, workload, cluster, result, 1.0)
    except SimulatedFailure:
        failed = True
    series = {}
    for machine in (0, 31, 63, 95):
        points = cluster.tracker.memory_series(machine)
        series[f"machine {machine}"] = [(t, b / GB) for t, b in points]
    return series, failed


def measure():
    return {"async": trace("GL-A-R-T"), "sync": trace("GL-S-R-T")}


def test_fig10_async_memory_blowup(benchmark):
    traces = once(benchmark, measure)
    async_series, async_failed = traces["async"]
    sync_series, sync_failed = traces["sync"]

    text = "\n\n".join([
        line_chart(async_series,
                   title="Figure 10(a): async GraphLab memory per machine (GB)"),
        line_chart(sync_series,
                   title="Figure 10(b): sync GraphLab memory per machine (GB)"),
    ])
    write_output("fig10_async_memory", text)

    # async dies, sync survives
    assert async_failed and not sync_failed

    # the async heavy machine's memory climbs monotonically to the cliff
    heavy = async_series["machine 0"]
    values = [v for _, v in heavy]
    assert values[-1] > 25.0               # near the 30.5 GB capacity
    assert values[-1] > 2.5 * values[0]    # grew a lot during execution

    # sync memory is flat after load: final within 20% of post-load level
    sync_heavy = [v for _, v in sync_series["machine 0"]]
    assert sync_heavy[-1] < 1.2 * max(sync_heavy[:2])
