"""Figure 3: modified Blogel-B without the HDFS round-trip.

Stock Blogel-B writes the Voronoi-partitioned dataset to HDFS and reads
it back before execution; keeping partitions in memory cut the overall
end-to-end WCC response time by ~50 % on a 16-machine cluster, almost
entirely out of the load phase.
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for


def compare():
    dataset = load_dataset("uk0705", "small")
    rows = []
    for key, label in (("BB", "Blogel-B (stock)"), ("BB*", "Blogel-B (modified)")):
        engine = make_engine(key)
        workload = workload_for(engine, "wcc", dataset)
        r = engine.run(dataset, workload, ClusterSpec(16))
        rows.append({
            "Variant": label,
            "Load": round(r.load_time, 1),
            "Execute": round(r.execute_time, 1),
            "Save": round(r.save_time, 1),
            "Total": round(r.total_time, 1),
        })
    return rows


def test_fig3_modified_blogel(benchmark):
    rows = once(benchmark, compare)
    text = render_table(
        rows,
        title="Figure 3: Blogel-B WCC on 16 machines, with/without the HDFS round-trip",
    )
    write_output("fig3_blogel_hdfs", text)

    stock, modified = rows
    # execution is untouched; the load phase shrinks dramatically
    assert abs(stock["Execute"] - modified["Execute"]) < 1.0
    assert modified["Load"] < 0.6 * stock["Load"]
    # the end-to-end reduction approaches the paper's ~50 %
    reduction = 1.0 - modified["Total"] / stock["Total"]
    assert 0.25 < reduction < 0.65
