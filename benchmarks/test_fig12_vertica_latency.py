"""Figure 12: Vertica vs graph systems — SSSP and PageRank on UK @32.

The paper runs SSSP (116 iterations at paper scale) and 55 iterations
of PageRank on the UK dataset over 32 machines; Vertica's temp-table
churn and join shuffling leave it far behind the native systems.
"""

from benchmarks.common import once, write_output

from repro.analysis import bar_chart
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for

SYSTEMS = ("V", "BV", "GL-S-R-I", "G")


def measure():
    dataset = load_dataset("uk0705", "small")
    out = {}
    for workload_name in ("sssp", "pagerank"):
        for key in SYSTEMS:
            engine = make_engine(key)
            workload = workload_for(engine, workload_name, dataset)
            result = engine.run(dataset, workload, ClusterSpec(32))
            out[(workload_name, key)] = result
    return out


def test_fig12_vertica_latency(benchmark):
    results = once(benchmark, measure)
    sections = []
    for workload_name in ("sssp", "pagerank"):
        values = {
            key: (results[(workload_name, key)].total_time
                  if results[(workload_name, key)].ok else None)
            for key in SYSTEMS
        }
        sections.append(bar_chart(
            values,
            title=f"Figure 12 ({workload_name}): UK0705 on 32 machines",
        ))
    text = "\n\n".join(sections)
    write_output("fig12_vertica_latency", text)

    for workload_name in ("sssp", "pagerank"):
        vertica = results[(workload_name, "V")]
        assert vertica.ok
        for key in ("BV", "GL-S-R-I", "G"):
            other = results[(workload_name, key)]
            if other.ok:
                # Vertica trails every native graph system, by a wide margin
                assert vertica.total_time > 1.5 * other.total_time, (
                    workload_name, key
                )
