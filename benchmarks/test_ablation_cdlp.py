"""Extension: CDLP (LDBC Graphalytics' community detection) on every system.

The paper compares its workload suite with LDBC Graphalytics (§6);
CDLP is the Graphalytics workload it does not run. Because every engine
here executes generic supersteps, the comparison extends for free — and
the shape matches the paper's other analytic workload (PageRank):
Blogel wins, the approximate-friendly GraphLab variants are close, the
Hadoop/Spark family trails by an order of magnitude.
"""

from benchmarks.common import once, write_output

from repro.analysis import render_grid
from repro.cluster import ClusterSpec
from repro.core.runner import ExperimentSpec, run_grid
from repro.engines import GRID_SYSTEMS

SIZES = (16, 64)


def build_grid():
    spec = ExperimentSpec(
        systems=GRID_SYSTEMS,
        workloads=("cdlp",),
        datasets=("twitter", "uk0705"),
        cluster_sizes=SIZES,
    )
    return run_grid(spec)


def test_extension_cdlp_grid(benchmark):
    grid = once(benchmark, build_grid)
    text = render_grid(
        grid, "cdlp", datasets=("twitter", "uk0705"), cluster_sizes=SIZES,
        systems=GRID_SYSTEMS,
        title="Extension: CDLP (10 label-propagation rounds), total seconds",
    )
    write_output("ablation_cdlp", text)

    # everything completes on Twitter; the winner pattern matches the
    # paper's analytic workloads
    for system in GRID_SYSTEMS:
        assert grid.get(system, "cdlp", "twitter", 16).ok, system
    best = grid.best_system("cdlp", "twitter", 16)
    assert best.system in ("BV", "BB", "GL-S-A-I", "GL-S-R-I")

    # the uncombinable messages make CDLP relatively harder for the
    # network-bound systems: Hadoop/GraphX trail by > 10x
    bv = grid.get("BV", "cdlp", "twitter", 16).total_time
    for slow in ("HD", "S"):
        assert grid.get(slow, "cdlp", "twitter", 16).total_time > 10 * bv

    # UK at 16 machines reproduces the reverse-edge memory cliff for
    # Giraph (like WCC, §5.8); 64 machines clears it
    assert not grid.get("G", "cdlp", "uk0705", 16).ok
    assert grid.get("G", "cdlp", "uk0705", 64).ok
