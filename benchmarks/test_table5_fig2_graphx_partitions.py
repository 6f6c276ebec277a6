"""Table 5 + Figure 2: GraphX's partition count — defaults, tuning, sweep.

Table 5 records the partition counts the paper used per (dataset,
cluster size); Figure 2 shows how the count changes PageRank time on
Twitter and UK0705 (the default 1200 for UK is far from optimal).
"""

from benchmarks.common import SIZES, once, write_output

from repro.analysis import bar_chart, render_table
from repro.cluster import ClusterSpec
from repro.core.tuning import graphx_partition_sweep, recommended_graphx_partitions
from repro.datasets import load_dataset
from repro.engines.spark import default_partitions

# Table 5's published partition counts
PAPER_TABLE5 = {
    "twitter": {"blocks": 440, 16: 128, 32: 256, 64: 440, 128: 440},
    "wrn": {"blocks": 240, 16: 128, 32: 240, 64: 240, 128: 240},
    "uk0705": {"blocks": 1200, 16: 128, 32: 256, 64: 512, 128: 1024},
}


def build_table5():
    rows = []
    for name in ("twitter", "wrn", "uk0705"):
        dataset = load_dataset(name, "small")
        row = {
            "Dataset": name,
            "#blocks (model)": default_partitions(dataset),
            "#blocks (paper)": PAPER_TABLE5[name]["blocks"],
        }
        for machines in SIZES:
            row[f"{machines} mach"] = recommended_graphx_partitions(dataset, machines)
            row[f"{machines} (paper)"] = PAPER_TABLE5[name][machines]
        rows.append(row)
    return rows


def test_table5_partition_counts(benchmark):
    rows = once(benchmark, build_table5)
    text = render_table(rows, title="Table 5: GraphX partition counts per cluster size")
    write_output("table5_graphx_partitions", text)

    for row in rows:
        counts = [row[f"{m} mach"] for m in SIZES]
        # the tuning rule never shrinks with more machines...
        assert counts == sorted(counts)
        # ...and never exceeds the block count or twice the core count
        for machines, count in zip(SIZES, counts):
            assert count <= max(row["#blocks (model)"], (machines - 1) * 4 * 2)
            assert count <= 2 * (machines - 1) * 4


def sweep_uk():
    counts = (60, 120, 256, 512, 1200)
    return graphx_partition_sweep("uk0705", 64, counts)


def test_fig2_partition_sweep(benchmark):
    results = once(benchmark, sweep_uk)
    values = {
        f"{count} partitions": (r.total_time if r.ok else None)
        for count, r in results.items()
    }
    text = bar_chart(values, title="Figure 2(b): GraphX PageRank on UK0705, 64 machines")
    write_output("fig2_graphx_partition_sweep", text)

    ok = {c: r.total_time for c, r in results.items() if r.ok}
    assert len(ok) >= 3
    # the extremes are both worse than the best middle setting:
    # too few partitions under-utilize cores, too many cause waves+skew
    best = min(ok.values())
    assert ok.get(1200, best * 10) > best * 1.1   # UK's default is not optimum
