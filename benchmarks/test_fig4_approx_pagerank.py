"""Figure 4: vertex updates, approximate vs exact PageRank.

The approximate implementation (GraphLab's tolerance mode) lets
converged vertices opt out; most converge within the first few
iterations, so the per-iteration update ratio collapses quickly.
"""

from benchmarks.common import once, write_output

from repro.analysis import line_chart
from repro.datasets import load_dataset
from repro.engines.base import make_workload


def measure():
    series = {}
    for name in ("twitter", "uk0705", "wrn"):
        dataset = load_dataset(name, "small")
        exact = make_workload("pagerank", dataset)
        approx = make_workload("pagerank", dataset, approximate=True)
        graph = dataset.graph
        exact_state = exact.run_to_completion(graph)
        approx_state = approx.run_to_completion(graph)
        n = graph.num_vertices
        ratios = []
        for i, stats in enumerate(approx_state.history):
            exact_active = (
                exact_state.history[min(i, len(exact_state.history) - 1)].active_vertices
            )
            ratios.append((i + 1, stats.active_vertices / max(exact_active, 1)))
        series[name] = ratios
    return series


def test_fig4_approximate_updates(benchmark):
    series = once(benchmark, measure)
    text = line_chart(
        series,
        title=("Figure 4: fraction of vertices still updating, "
               "approximate vs exact PageRank"),
    )
    write_output("fig4_approx_pagerank", text)

    for name, points in series.items():
        ratios = [r for _, r in points]
        # everyone participates at the start...
        assert ratios[0] == 1.0
        # ...and almost nobody by the end (Fig 4's collapse)
        assert ratios[-1] < 0.05, name
        # the collapse is fast: within the first third of iterations the
        # active fraction halves
        third = max(1, len(ratios) // 3)
        assert min(ratios[:third + 1]) < 0.9
