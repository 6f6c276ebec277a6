"""Figure 7: K-hop (K=3) across all systems, datasets, and cluster sizes."""

from benchmarks.common import MAIN_DATASETS, SIZES, once, workload_grid, write_output

from repro.analysis import render_grid
from repro.engines import GRID_SYSTEMS


def test_fig7_khop_grid(benchmark):
    grid = once(benchmark, lambda: workload_grid("khop"))
    text = render_grid(
        grid, "khop", datasets=MAIN_DATASETS, cluster_sizes=SIZES,
        systems=GRID_SYSTEMS,
        title="Figure 7: K-hop (K=3), total response seconds",
    )
    write_output("fig7_khop_grid", text)

    # K-hop's fixed 3 iterations make it diameter-insensitive: systems
    # that fail WRN's traversals complete its K-hop (§5.12, §3.3)
    for system in ("HD", "HL", "FG"):
        for size in SIZES:
            assert grid.get(system, "khop", "wrn", size).ok, (system, size)

    # HaLoop survives even at 128 machines: 3 iterations stay under the
    # shuffle bug's trigger
    assert grid.get("HL", "khop", "twitter", 128).ok

    # response time is load-dominated, so K-hop columns are much faster
    # than the same systems' WCC columns
    wcc = workload_grid("wcc")
    for system in ("BV", "G", "FG"):
        k = grid.get(system, "khop", "twitter", 16)
        w = wcc.get(system, "wcc", "twitter", 16)
        if k and w and k.ok and w.ok:
            assert k.total_time < w.total_time

    # Blogel-B's K-hop execution benefits from Voronoi blocks: its
    # execute time stays within a small multiple of BV's
    bb = grid.get("BB", "khop", "uk0705", 16)
    bv = grid.get("BV", "khop", "uk0705", 16)
    assert bb.execute_time < 3 * bv.execute_time
