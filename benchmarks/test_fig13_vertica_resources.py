"""Figure 13: how Vertica uses resources vs the graph systems.

Collected while computing PageRank on UK0705 over 64 machines:
(a) maximum user-CPU and I/O-wait utilization, (b) memory footprint,
(c) network usage. Vertica: small memory, heavy I/O wait, heavy
network — and all three overheads grow with the cluster.
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec, GB
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for

SYSTEMS = ("V", "BV", "GL-S-R-I", "G", "HD")


def measure():
    dataset = load_dataset("uk0705", "small")
    rows = []
    for key in SYSTEMS:
        engine = make_engine(key)
        workload = workload_for(engine, "pagerank", dataset)
        r = engine.run(dataset, workload, ClusterSpec(64))
        rows.append({
            "System": key,
            "Max user CPU": round(r.extras["max_user_utilization"], 2),
            "Max I/O wait": round(r.extras["max_iowait_utilization"], 2),
            "Peak mem/machine GB": round(r.peak_memory_bytes / GB, 1),
            "Network GB": round(r.network_bytes / GB, 1),
            "Status": r.cell(),
        })
    return rows


def test_fig13_vertica_resource_profile(benchmark):
    rows = once(benchmark, measure)
    text = render_table(
        rows,
        title="Figure 13: resource usage, PageRank on UK0705 @64 machines",
    )
    write_output("fig13_vertica_resources", text)

    by_system = {r["System"]: r for r in rows}
    vertica = by_system["V"]
    # (a) Vertica's I/O wait dwarfs the in-memory systems'
    for key in ("BV", "GL-S-R-I", "G"):
        assert vertica["Max I/O wait"] > 3 * max(by_system[key]["Max I/O wait"], 0.01)
    # (b) its memory footprint is the smallest of all systems
    assert vertica["Peak mem/machine GB"] == min(
        r["Peak mem/machine GB"] for r in rows
    )
    # (c) it moves more bytes than the graph systems
    for key in ("BV", "GL-S-R-I"):
        assert vertica["Network GB"] > by_system[key]["Network GB"]
