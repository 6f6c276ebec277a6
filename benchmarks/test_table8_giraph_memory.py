"""Table 8: total Giraph memory across the cluster (GB), by dataset/size.

Paper values (GB):

    Twitter (12.5 GB raw):  191.5  323.6  606.4   923.5
    UK0705  (31.9 GB raw):  264.0  411.8  717.6  1322.6
    WRN     (13.6 GB raw):  363.7  475.4  683.4  1054.1
"""

from benchmarks.common import SIZES, once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec, GB
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for

PAPER = {
    "twitter": {16: 191.5, 32: 323.6, 64: 606.4, 128: 923.5},
    "uk0705": {16: 264.0, 32: 411.8, 64: 717.6, 128: 1322.6},
    "wrn": {16: 363.7, 32: 475.4, 64: 683.4, 128: 1054.1},
}


def measure():
    rows = []
    for name in ("twitter", "uk0705", "wrn"):
        dataset = load_dataset(name, "small")
        row = {"Dataset": name, "Raw GB": round(dataset.profile.raw_size_bytes / GB, 1)}
        for machines in SIZES:
            engine = make_engine("G")
            workload = workload_for(engine, "pagerank", dataset)
            result = engine.run(dataset, workload, ClusterSpec(machines))
            row[f"{machines} mach"] = round(result.total_memory_bytes / GB, 1)
            row[f"{machines} (paper)"] = PAPER[name][machines]
        rows.append(row)
    return rows


def test_table8_giraph_memory(benchmark):
    rows = once(benchmark, measure)
    text = render_table(
        rows, title="Table 8: total Giraph memory across the cluster (GB)"
    )
    write_output("table8_giraph_memory", text)

    for row in rows:
        series = [row[f"{m} mach"] for m in SIZES]
        # memory grows monotonically with cluster size (the paper's point)
        assert series == sorted(series)
        # and is an order of magnitude above the raw dataset size
        assert series[0] > 5 * row["Raw GB"]
        # measured values stay within 2x of the paper's
        for machines in SIZES:
            measured, paper = row[f"{machines} mach"], row[f"{machines} (paper)"]
            assert 0.5 < measured / paper < 2.0, (row["Dataset"], machines)
    # WRN uses the most memory at 16 machines (vertex-heavy), like the paper
    at16 = {r["Dataset"]: r["16 mach"] for r in rows}
    assert at16["wrn"] == max(at16.values())
