"""Table 4: GraphLab's replication factor, Random vs Auto, per cluster size.

Paper values for reference (replication factors):

    Twitter: 16: 9.3/5.5   32: 13.3/9.8  64: 17.8/9.1  128: 22.5/15.2
    WRN:     16: NA/NA     32: 3.0/2.2   64: 3.0/3.0   128: 3.0/2.3
    UK0705:  16: 5.7/NA    32: 15.8/3.6  64: 21.5/10.1 128: 27.1/4.5

The synthetic graphs are denser, so absolute factors differ; the shape
assertions cover what the paper concludes from the table.
"""

from benchmarks.common import SIZES, once, write_output

from repro.analysis import render_table
from repro.datasets import load_dataset
from repro.partitioning import auto_method_for, auto_partition, random_edge_partition

PAPER_VALUES = {
    ("twitter", 16): (9.3, 5.5), ("twitter", 32): (13.3, 9.8),
    ("twitter", 64): (17.8, 9.1), ("twitter", 128): (22.5, 15.2),
    ("wrn", 32): (3.0, 2.2), ("wrn", 64): (3.0, 3.0), ("wrn", 128): (3.0, 2.3),
    ("uk0705", 16): (5.7, None), ("uk0705", 32): (15.8, 3.6),
    ("uk0705", 64): (21.5, 10.1), ("uk0705", 128): (27.1, 4.5),
}


def build_table4():
    rows = []
    for name in ("twitter", "wrn", "uk0705"):
        graph = load_dataset(name, "small").graph
        for machines in SIZES:
            paper = PAPER_VALUES.get((name, machines), (None, None))
            rand = random_edge_partition(graph, machines).replication_factor()
            auto = auto_partition(graph, machines)
            rows.append({
                "Dataset": name,
                "Cluster": machines,
                "Random": round(rand, 1),
                "Auto": round(auto.replication_factor(), 1),
                "Auto scheme": auto.method,
                "Random (paper)": paper[0] if paper[0] is not None else "NA",
                "Auto (paper)": paper[1] if paper[1] is not None else "NA",
            })
    return rows


def test_table4_replication_factor(benchmark):
    rows = once(benchmark, build_table4)
    text = render_table(rows, title="Table 4: The replication factor in GraphLab")
    write_output("table4_replication", text)

    cell = {(r["Dataset"], r["Cluster"]): r for r in rows}
    # auto <= random everywhere (the point of constrained partitioning)
    for r in rows:
        assert r["Auto"] <= r["Random"]
    # random replication grows with the cluster for power-law graphs
    for name in ("twitter", "uk0705"):
        series = [cell[(name, m)]["Random"] for m in SIZES]
        assert series == sorted(series)
        assert series[-1] > 1.5 * series[0]
    # WRN's bounded degree caps replication: far below the social graph
    assert cell[("wrn", 128)]["Random"] < 0.5 * cell[("twitter", 128)]["Random"]
    # Auto's scheme selection matches §4.4.1
    assert [auto_method_for(m) for m in SIZES] == [
        "grid", "oblivious", "grid", "oblivious"
    ]
    # the UK web graph profits most from Oblivious (locality), §5.4 / Table 4
    assert cell[("uk0705", 32)]["Auto"] < 0.5 * cell[("uk0705", 32)]["Random"]
