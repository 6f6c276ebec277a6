"""Table 9 / §5.13: the COST experiment — single thread vs best parallel.

Paper values (seconds; P = best parallel on 16 machines, S = single thread):

                PageRank        SSSP            WCC
    Twitter   BV=260 / 490   BV=48.3 / 422   GL=248    / 452
    UK0705    BV=338.7/ 720  BV=122.3/ 610   GL=492.67 / 632
    WRN       BV=268.3/ 880  BV=11295/ 455   BV=19831  / 640

Headline: PageRank's best parallel config is 2-3x the single thread;
reachability on the road network is ~25-30x *slower* than one thread
(COST 0.04 / 0.03).
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.core import cost_experiment

PAPER = {
    ("twitter", "pagerank"): (260.0, 490.0), ("twitter", "sssp"): (48.3, 422.0),
    ("twitter", "wcc"): (248.0, 452.0),
    ("uk0705", "pagerank"): (338.7, 720.0), ("uk0705", "sssp"): (122.3, 610.0),
    ("uk0705", "wcc"): (492.67, 632.0),
    ("wrn", "pagerank"): (268.3, 880.0), ("wrn", "sssp"): (11295.0, 455.0),
    ("wrn", "wcc"): (19831.0, 640.0),
}


def run_cost():
    rows = cost_experiment(
        datasets=("twitter", "uk0705", "wrn"),
        workloads=("pagerank", "sssp", "wcc"),
    )
    table = []
    for row in rows:
        paper_p, paper_s = PAPER[(row.dataset, row.workload)]
        table.append({
            "Dataset": row.dataset,
            "Workload": row.workload,
            "P (best parallel)": round(row.best_parallel_seconds or 0, 1),
            "winner": row.best_parallel_system or "-",
            "S (single thread)": round(row.single_thread_seconds, 1),
            "S/P": round(row.cost, 2) if row.cost else "-",
            "P (paper)": paper_p,
            "S (paper)": paper_s,
            "S/P (paper)": round(paper_s / paper_p, 2),
        })
    return table


def test_table9_cost_experiment(benchmark):
    table = once(benchmark, run_cost)
    text = render_table(
        table, title="Table 9: single thread (S) vs best 16-machine parallel (P)"
    )
    write_output("table9_cost", text)

    cell = {(r["Dataset"], r["Workload"]): r for r in table}
    # PageRank: the cluster wins by 2-3x on every dataset
    for name in ("twitter", "uk0705", "wrn"):
        assert 1.5 < cell[(name, "pagerank")]["S/P"] < 4.5
    # reachability on WRN: the cluster is two orders of magnitude slower
    assert cell[("wrn", "sssp")]["S/P"] < 0.1
    assert cell[("wrn", "wcc")]["S/P"] < 0.1
    # WRN parallel traversals land within 2.5x of the paper's absolute times
    for wl in ("sssp", "wcc"):
        measured = cell[("wrn", wl)]["P (best parallel)"]
        paper = cell[("wrn", wl)]["P (paper)"]
        assert 0.4 < measured / paper < 2.5
    # the single-thread times are hundreds of seconds, like the paper's
    for r in table:
        assert 100 < r["S (single thread)"] < 2000
