"""Figure 9: WCC across all systems, datasets, and cluster sizes."""

from benchmarks.common import MAIN_DATASETS, SIZES, once, workload_grid, write_output

from repro.analysis import render_grid
from repro.cluster import FailureKind
from repro.engines import GRID_SYSTEMS


def test_fig9_wcc_grid(benchmark):
    grid = once(benchmark, lambda: workload_grid("wcc"))
    text = render_grid(
        grid, "wcc", datasets=MAIN_DATASETS, cluster_sizes=SIZES,
        systems=GRID_SYSTEMS,
        title="Figure 9: WCC, total response seconds",
    )
    write_output("fig9_wcc_grid", text)

    # §5.8's Giraph narrative: UK0705 fails to load at 16/32; WRN OOMs
    # at 16, cannot finish at 32, and takes almost 24 hours at 64
    assert grid.get("G", "wcc", "uk0705", 16).failure is FailureKind.OOM
    assert grid.get("G", "wcc", "uk0705", 32).failure is FailureKind.OOM
    assert grid.get("G", "wcc", "uk0705", 64).ok
    assert grid.get("G", "wcc", "wrn", 16).failure is FailureKind.OOM
    assert grid.get("G", "wcc", "wrn", 32).failure is FailureKind.TIMEOUT
    giraph64 = grid.get("G", "wcc", "wrn", 64)
    assert giraph64.ok and giraph64.total_time > 0.8 * 86400

    # Blogel-V is the only system that computes WCC on WRN at 16 (§5.8)
    ok16 = [s for s in GRID_SYSTEMS if grid.get(s, "wcc", "wrn", 16).ok]
    assert ok16 == ["BV"]

    # Gelly: UK0705 succeeds everywhere; WRN only at 128, just under 24h
    for size in SIZES:
        assert grid.get("FG", "wcc", "uk0705", size).ok
    for size in (16, 32, 64):
        assert grid.get("FG", "wcc", "wrn", size).failure is FailureKind.TIMEOUT
    gelly128 = grid.get("FG", "wcc", "wrn", 128)
    assert gelly128.ok and 0.85 * 86400 < gelly128.total_time < 86400

    # GraphX loses WCC on WRN at every size (§5.6)
    for size in SIZES:
        assert grid.get("S", "wcc", "wrn", size).failure in (
            FailureKind.OOM, FailureKind.TIMEOUT
        )

    # GraphLab auto partitioning cuts execution time vs random (§5.8)
    rand = grid.get("GL-S-R-I", "wcc", "uk0705", 64)
    auto = grid.get("GL-S-A-I", "wcc", "uk0705", 64)
    assert auto.execute_time < rand.execute_time
