"""Figure 6: PageRank across all systems, datasets, and cluster sizes."""

from benchmarks.common import MAIN_DATASETS, SIZES, once, workload_grid, write_output

from repro.analysis import render_grid
from repro.cluster import FailureKind
from repro.engines import PAGERANK_SYSTEMS


def test_fig6_pagerank_grid(benchmark):
    grid = once(benchmark, lambda: workload_grid("pagerank"))
    text = render_grid(
        grid, "pagerank", datasets=MAIN_DATASETS, cluster_sizes=SIZES,
        systems=PAGERANK_SYSTEMS,
        title="Figure 6: PageRank, total response seconds (or failure cell)",
    )
    write_output("fig6_pagerank_grid", text)

    # Blogel-B's MPI overflow wipes out its entire WRN row (§5.1)
    for size in SIZES:
        assert grid.cell_text("BB", "pagerank", "wrn", size) == "MPI"

    # GraphLab cannot run WRN on 16 machines with any configuration (§5.2)
    for system in PAGERANK_SYSTEMS:
        if system.startswith("GL"):
            result = grid.get(system, "pagerank", "wrn", 16)
            assert result.failure is FailureKind.OOM, system

    # the async configurations OOM on WRN at 128 (Figure 10's event)
    for system in ("GL-A-R-T", "GL-A-A-T"):
        assert grid.get(system, "pagerank", "wrn", 128).failure is FailureKind.OOM

    # GraphLab's approximate (tolerance) PageRank is the only
    # implementation that outperforms exact Blogel (§5.2)
    for size in (32, 64, 128):
        bv = grid.get("BV", "pagerank", "twitter", size)
        approx = grid.get("GL-S-R-T", "pagerank", "twitter", size)
        exact = grid.get("GL-S-R-I", "pagerank", "twitter", size)
        assert approx.total_time < bv.total_time, size
        assert exact.total_time > approx.total_time, size

    # Hadoop and GraphX dominate the top of every completed column
    for dataset in MAIN_DATASETS:
        for size in SIZES:
            cells = [
                grid.get(s, "pagerank", dataset, size) for s in PAGERANK_SYSTEMS
            ]
            ok = sorted((r for r in cells if r and r.ok), key=lambda r: r.total_time)
            if len(ok) >= 3:
                assert {r.system for r in ok[-2:]} <= {"HD", "HL", "S"}, (dataset, size)

    # strong scaling: Blogel-V improves monotonically with cluster size
    for dataset in MAIN_DATASETS:
        series = [grid.get("BV", "pagerank", dataset, m).total_time for m in SIZES]
        assert all(b <= a * 1.05 for a, b in zip(series, series[1:])), dataset
