"""Table 7: Blogel-V on ClueWeb, 128 machines — the only survivor (§5.9).

Paper values (seconds):

    Workload   Read    Execute  Save   Others
    PageRank   132.5   139.7    10.5   15.3
    WCC        134.1   152.5    11.5   10.6
    SSSP       158.3    89.3     2.2   20.7
    K-hop      161.6     0.03    0.2   16.4
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for

PAPER = {
    "pagerank": (132.5, 139.7, 10.5),
    "wcc": (134.1, 152.5, 11.5),
    "sssp": (158.3, 89.3, 2.2),
    "khop": (161.6, 0.03, 0.2),
}


def run_clueweb():
    dataset = load_dataset("clueweb", "small")
    rows = []
    for workload_name in ("pagerank", "wcc", "sssp", "khop"):
        engine = make_engine("BV")
        workload = workload_for(engine, workload_name, dataset)
        result = engine.run(dataset, workload, ClusterSpec(128))
        paper = PAPER[workload_name]
        rows.append({
            "Workload": workload_name,
            "Read": round(result.load_time, 1),
            "Execute": round(result.execute_time, 1),
            "Save": round(result.save_time, 1),
            "Read (paper)": paper[0],
            "Execute (paper)": paper[1],
            "Save (paper)": paper[2],
            "Status": result.cell(),
        })
    return rows


def others_fail():
    dataset = load_dataset("clueweb", "small")
    outcomes = {}
    for key in ("BB", "G", "GL-S-R-I", "S", "FG"):
        engine = make_engine(key)
        workload = workload_for(engine, "pagerank", dataset)
        outcomes[key] = engine.run(dataset, workload, ClusterSpec(128)).cell()
    return outcomes


def test_table7_blogel_on_clueweb(benchmark):
    rows = once(benchmark, run_clueweb)
    text = render_table(
        rows, title="Table 7: Blogel-V on ClueWeb (128 machines), seconds per phase"
    )
    write_output("table7_clueweb", text)

    by_wl = {r["Workload"]: r for r in rows}
    # every workload completes, in minutes not hours
    for r in rows:
        assert r["Status"] not in ("OOM", "TO", "MPI", "SHFL")
        assert r["Read"] + r["Execute"] < 3600
    # reads land near the paper's ~130-160 s window
    for r in rows:
        assert 60 < r["Read"] < 320
    # per-workload execute ordering matches the paper:
    # pagerank > wcc > sssp >> khop (~0)
    assert by_wl["pagerank"]["Execute"] > by_wl["sssp"]["Execute"]
    assert by_wl["wcc"]["Execute"] > by_wl["sssp"]["Execute"]
    assert by_wl["khop"]["Execute"] < 0.2 * by_wl["sssp"]["Execute"]


def test_table7_only_bv_survives(benchmark):
    outcomes = once(benchmark, others_fail)
    text = render_table(
        [dict({"System": k}, Outcome=v) for k, v in outcomes.items()],
        title="ClueWeb at 128 machines: every other system fails (§5.9)",
    )
    write_output("table7_clueweb_failures", text)
    assert all(v in ("OOM", "MPI", "TO") for v in outcomes.values())
