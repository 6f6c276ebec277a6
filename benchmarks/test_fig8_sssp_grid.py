"""Figure 8: SSSP across all systems, datasets, and cluster sizes."""

from benchmarks.common import MAIN_DATASETS, SIZES, once, workload_grid, write_output

from repro.analysis import render_grid
from repro.cluster import FailureKind
from repro.engines import GRID_SYSTEMS


def test_fig8_sssp_grid(benchmark):
    grid = once(benchmark, lambda: workload_grid("sssp"))
    text = render_grid(
        grid, "sssp", datasets=MAIN_DATASETS, cluster_sizes=SIZES,
        systems=GRID_SYSTEMS,
        title="Figure 8: SSSP, total response seconds",
    )
    write_output("fig8_sssp_grid", text)

    # the WRN row is a graveyard: O(diameter) iterations kill almost
    # everything (§5.8); only Blogel-V completes at every size
    for size in SIZES:
        assert grid.get("BV", "sssp", "wrn", size).ok
    failures_at_16 = sum(
        0 if grid.get(s, "sssp", "wrn", 16).ok else 1 for s in GRID_SYSTEMS
    )
    assert failures_at_16 >= 6

    # Hadoop / HaLoop time out on WRN (they re-read the graph 36 000
    # times); Giraph times out too (Table 6's 6 s/iteration)
    assert grid.get("HD", "sssp", "wrn", 16).failure is FailureKind.TIMEOUT
    assert grid.get("G", "sssp", "wrn", 16).failure is FailureKind.TIMEOUT

    # on the power-law datasets SSSP is cheap (few iterations): BV's
    # response is within ~2x of its K-hop response
    khop = workload_grid("khop")
    for dataset in ("twitter", "uk0705"):
        s = grid.get("BV", "sssp", dataset, 16)
        k = khop.get("BV", "khop", dataset, 16)
        assert s.total_time < 3 * k.total_time

    # scalability is muted for traversals: most vertices sit idle per
    # iteration (§5.12) — BV's speedup 16->128 stays below linear (8x)
    t16 = grid.get("BV", "sssp", "twitter", 16).total_time
    t128 = grid.get("BV", "sssp", "twitter", 128).total_time
    assert t16 / t128 < 8.0
