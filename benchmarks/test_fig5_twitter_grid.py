"""Figure 5: the Twitter dataset across all workloads and cluster sizes."""

from benchmarks.common import SIZES, once, twitter_grid, write_output

from repro.analysis import render_grid
from repro.engines import GRID_SYSTEMS


def test_fig5_twitter_all_workloads(benchmark):
    grid = once(benchmark, twitter_grid)
    sections = []
    for workload in ("khop", "wcc", "sssp", "pagerank"):
        sections.append(render_grid(
            grid, workload, datasets=("twitter",), cluster_sizes=SIZES,
            systems=GRID_SYSTEMS,
            title=f"Figure 5 ({workload}): Twitter, total response seconds",
        ))
    text = "\n\n".join(sections)
    write_output("fig5_twitter_grid", text)

    # every system completes khop on twitter at every size except the
    # HaLoop SHFL cells never trigger (only 3 iterations)
    for size in SIZES:
        for system in GRID_SYSTEMS:
            result = grid.get(system, "khop", "twitter", size)
            assert result is not None and result.ok, (system, size)

    # HaLoop's shuffle bug produces SHFL cells at 64/128 for the
    # iterative workloads (§5.10)
    for workload in ("pagerank", "wcc", "sssp"):
        for size in (64, 128):
            assert grid.cell_text("HL", workload, "twitter", size) == "SHFL"

    # Blogel (V or B) wins the traversal columns; WCC can go to GraphLab
    # (Table 9 lists GL as the best parallel system for Twitter WCC)
    for workload in ("khop", "sssp"):
        for size in SIZES:
            best = grid.best_system(workload, "twitter", size)
            assert best.system in ("BV", "BB"), (workload, size, best.system)
    for size in SIZES:
        best = grid.best_system("wcc", "twitter", size)
        assert best.system in ("BV", "BB", "GL-S-A-I", "GL-S-R-I"), (size, best.system)

    # Hadoop, HaLoop, and GraphX are the slowest systems in each column
    for workload in ("wcc", "sssp", "pagerank"):
        column = [
            grid.get(s, workload, "twitter", 16) for s in GRID_SYSTEMS
        ]
        ok = sorted((r for r in column if r and r.ok), key=lambda r: r.total_time)
        slowest_three = {r.system for r in ok[-3:]}
        assert slowest_three <= {"HD", "HL", "S"}, (workload, slowest_three)
