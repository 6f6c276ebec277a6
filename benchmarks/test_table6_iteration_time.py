"""Table 6: per-iteration time of Giraph and GraphX on WRN (SSSP, WCC).

Paper values (seconds per iteration):

               Giraph            GraphX
             SSSP   WCC       SSSP   WCC
    16 mach     6   OOM        120    420
    32 mach     3   3.2         17     30

"For SSSP and WCC to finish in 24 hours, the iteration time should be
2.4 and 1.8 respectively" — the reason those runs time out.
"""

import pytest

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for

PAPER = {
    ("G", "sssp", 16): 6.0, ("G", "wcc", 16): None,   # OOM
    ("G", "sssp", 32): 3.0, ("G", "wcc", 32): 3.2,
    ("S", "sssp", 16): 120.0, ("S", "wcc", 16): 420.0,
    ("S", "sssp", 32): 17.0, ("S", "wcc", 32): 30.0,
}


def measure():
    dataset = load_dataset("wrn", "small")
    rows = []
    for machines in (16, 32):
        row = {"Cluster": machines}
        for system in ("G", "S"):
            for workload_name in ("sssp", "wcc"):
                engine = make_engine(system)
                workload = workload_for(engine, workload_name, dataset)
                # lift the timeout: the measurement is per-iteration cost
                result = engine.run(
                    dataset, workload, ClusterSpec(machines, timeout_seconds=1e15)
                )
                key = f"{engine.display_name} {workload_name}"
                if result.ok or result.per_iteration_time > 0:
                    row[key] = round(result.per_iteration_time, 1)
                    if not result.ok:
                        row[f"{key} note"] = str(result.failure)
                else:
                    row[key] = str(result.failure)
                paper = PAPER[(system, workload_name, machines)]
                row[f"{key} (paper)"] = paper if paper is not None else "OOM"
        rows.append(row)
    return rows


def test_table6_per_iteration_time(benchmark):
    rows = once(benchmark, measure)
    text = render_table(
        rows,
        title=("Table 6: seconds per iteration on WRN "
               "(24h budget needs <= 2.4 for SSSP, <= 1.8 for WCC)"),
    )
    write_output("table6_iteration_time", text)

    by_cluster = {r["Cluster"]: r for r in rows}
    g16 = by_cluster[16]["Giraph sssp"]
    g32 = by_cluster[32]["Giraph sssp"]
    # Giraph's per-iteration cost matches the paper's anchor within ~50%
    assert 4.0 < g16 < 9.0
    assert 2.0 < g32 < 4.5
    # ...which is above the 2.4 s/iteration budget, hence the TO cells
    assert g16 > 2.4 and g32 > 2.4
    # Giraph WCC at 16 machines OOMs, exactly like the paper's empty cell
    assert by_cluster[16]["Giraph wcc"] == "OOM"
    # GraphX is an order of magnitude slower per iteration than Giraph
    assert by_cluster[16]["GraphX sssp"] > 5 * g16
    assert by_cluster[32]["GraphX sssp"] > 5 * g32
    # and both GraphX workloads get cheaper per iteration at 32 machines
    assert by_cluster[32]["GraphX sssp"] < by_cluster[16]["GraphX sssp"]
    assert by_cluster[32]["GraphX wcc"] < by_cluster[16]["GraphX wcc"]
