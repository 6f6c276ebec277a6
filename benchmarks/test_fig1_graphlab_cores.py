"""Figure 1: GraphLab compute-core allocation on a 16-machine cluster.

Synchronous PageRank (30 iterations, Twitter) gains ~40 % from using
all 4 cores for computation; asynchronous computation does not benefit
(context switching while vertices also communicate) and can get worse.
"""

from common import once, write_output

from repro.analysis import bar_chart
from repro.core.tuning import graphlab_core_study


def study():
    return graphlab_core_study(dataset_name="twitter", cluster_size=16,
                               iterations=30)


def test_fig1_graphlab_core_allocation(benchmark):
    results = once(benchmark, study)
    values = {
        f"{r.mode} / {r.compute_cores} cores": r.execute_seconds
        for r in results
    }
    text = bar_chart(
        values,
        title=("Figure 1: GraphLab PageRank x30 on Twitter, 16 machines "
               "(execution time by compute-core allocation)"),
    )
    write_output("fig1_graphlab_cores", text)

    by_key = {(r.mode, r.compute_cores): r.execute_seconds for r in results}
    sync_gain = 1.0 - by_key[("sync", 4)] / by_key[("sync", 2)]
    # the paper reports ~40% improvement for synchronous with all cores
    assert 0.25 < sync_gain < 0.55
    # asynchronous does not benefit — and sometimes under-performs
    assert by_key[("async", 4)] >= by_key[("async", 2)]
