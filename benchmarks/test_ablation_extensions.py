"""Ablations for the remaining extensions: Giraph++, hash-to-min,
combiners, K-hop horizon, failure injection, weak scaling.

Each section measures a design choice the paper discusses but does not
isolate (§2.3 Giraph++, §5.6 hash-to-min, §5.8 combiners, §3.3 K = 3,
Table 1 fault tolerance, §5.12 weak scaling).
"""

from common import once, write_output

from repro.analysis import render_table
from repro.chaos import ChaosPlan, MachineCrash
from repro.cluster import ClusterSpec
from repro.core.weak_scaling import weak_efficiency, weak_scaling_experiment
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for
from repro.engines.common import COSTS
from repro.workloads import KHop


def run(key, workload_name, dataset, machines=64, fault_plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, workload_name, dataset)
    spec = ClusterSpec(machines, fault_plan=fault_plan)
    return engine.run(dataset, workload, spec)


# -- Giraph++ vs its two parents ------------------------------------------


def giraphpp_study():
    uk = load_dataset("uk0705", "small")
    rows = []
    for key in ("G", "G++", "BB"):
        for workload in ("wcc", "sssp"):
            r = run(key, workload, uk)
            rows.append({
                "System": key, "Workload": workload,
                "Execute s": round(r.execute_time, 1),
                "Total s": round(r.total_time, 1),
                "Memory GB": round(r.total_memory_bytes / 2**30, 1),
            })
    return rows


def test_ablation_giraphpp(benchmark):
    rows = once(benchmark, giraphpp_study)
    text = render_table(
        rows, title="Ablation: Giraph++ vs Giraph and Blogel-B (UK0705 @64)"
    )
    write_output("ablation_giraphpp", text)
    cell = {(r["System"], r["Workload"]): r for r in rows}
    for workload in ("wcc", "sssp"):
        # block-centric execution beats Giraph on the same substrate...
        assert cell[("G++", workload)]["Execute s"] < cell[("G", workload)]["Execute s"]
        # ...but JVM costs keep it behind Blogel-B
        assert cell[("G++", workload)]["Execute s"] > cell[("BB", workload)]["Execute s"]
    # and the memory bill is Giraph's, not Blogel's
    assert cell[("G++", "wcc")]["Memory GB"] > 2 * cell[("BB", "wcc")]["Memory GB"]


# -- hash-to-min (§5.6) ----------------------------------------------------


def hash_to_min_study():
    uk = load_dataset("uk0705", "small")
    rows = []
    for key in ("S", "S-h2m", "BB"):
        r = run(key, "wcc", uk)
        rows.append({
            "System": key,
            "Iterations": r.iterations,
            "Total s": round(r.total_time, 1) if r.ok else r.cell(),
        })
    return rows


def test_ablation_hash_to_min(benchmark):
    rows = once(benchmark, hash_to_min_study)
    text = render_table(
        rows, title="Ablation: GraphFrames hash-to-min WCC (UK0705 @64)"
    )
    write_output("ablation_hash_to_min", text)
    cell = {r["System"]: r for r in rows}
    assert cell["S-h2m"]["Iterations"] < cell["S"]["Iterations"]
    assert cell["S-h2m"]["Total s"] < 0.8 * cell["S"]["Total s"]


# -- message combiners (§5.8) ----------------------------------------------


def combiner_study():
    twitter = load_dataset("twitter", "small")
    rows = []
    original = COSTS.combine_efficiency
    try:
        for label, efficiency in (("with combiner", original),
                                  ("without combiner", 1.0)):
            COSTS.combine_efficiency = efficiency
            r = run("BV", "pagerank", twitter, machines=16)
            rows.append({
                "Configuration": label,
                "Execute s": round(r.execute_time, 1),
                "Network GB": round(r.network_bytes / 1e9, 1),
            })
    finally:
        COSTS.combine_efficiency = original
    return rows


def test_ablation_combiners(benchmark):
    rows = once(benchmark, combiner_study)
    text = render_table(
        rows, title="Ablation: message combiner, Blogel-V PageRank (Twitter @16)"
    )
    write_output("ablation_combiners", text)
    with_c, without_c = rows
    assert without_c["Network GB"] > 3 * with_c["Network GB"]
    assert without_c["Execute s"] > with_c["Execute s"]


# -- the K-hop horizon (§3.3's K = 3) ---------------------------------------


def khop_sweep():
    wrn = load_dataset("wrn", "small")
    rows = []
    for k in (1, 2, 3, 4, 6, 10):
        engine = make_engine("BV")
        workload = KHop(source=wrn.sssp_source, k=k)
        r = engine.run(wrn, workload, ClusterSpec(16))
        rows.append({
            "K": k,
            "Total s": round(r.total_time, 1),
            "Iterations": r.iterations,
        })
    return rows


def test_ablation_khop_horizon(benchmark):
    rows = once(benchmark, khop_sweep)
    text = render_table(
        rows, title="Ablation: K-hop horizon on the road network (BV @16)"
    )
    write_output("ablation_khop_horizon", text)
    times = [r["Total s"] for r in rows]
    # the query stays cheap and ~flat in K: the paper's rationale for
    # using it as the diameter-insensitive traversal
    assert max(times) < 1.3 * min(times)
    assert all(r["Iterations"] == r["K"] for r in rows)


# -- failure injection (Table 1) ---------------------------------------------


def fault_study():
    twitter = load_dataset("twitter", "small")
    rows = []
    for key in ("HD", "BV", "G", "V"):
        clean = run(key, "pagerank", twitter, machines=16)
        plan = ChaosPlan(events=(MachineCrash(time=clean.total_time * 0.5),))
        faulty = run(key, "pagerank", twitter, machines=16, fault_plan=plan)
        rows.append({
            "System": key,
            "Mechanism": make_engine(key).fault_tolerance,
            "Clean s": round(clean.total_time, 1),
            "With failure s": round(faulty.total_time, 1),
            "Overhead": round(faulty.total_time / clean.total_time, 2),
        })
    return rows


def test_ablation_fault_tolerance(benchmark):
    rows = once(benchmark, fault_study)
    text = render_table(
        rows,
        title=("Ablation: one worker failure mid-run, PageRank on "
               "Twitter @16 (Table 1's mechanisms exercised)"),
    )
    write_output("ablation_fault_tolerance", text)
    overhead = {r["System"]: r["Overhead"] for r in rows}
    # re-execution (one shard) < checkpoint (redo since checkpoint)
    # < nothing (restart from zero)
    assert overhead["HD"] < overhead["BV"]
    assert overhead["BV"] < overhead["V"]
    assert overhead["V"] > 1.4


# -- weak scaling (§5.12's missing experiment) -------------------------------


def weak_study():
    rows = []
    for system in ("BV", "G", "HD"):
        points = weak_scaling_experiment(system, "pagerank", "twitter")
        eff = dict(weak_efficiency(points))
        for p in points:
            rows.append({
                "System": system,
                "Machines": p.machines,
                "Paper |E|": p.paper_edges,
                "Total s": round(p.time, 1) if p.result.ok else p.result.cell(),
                "Efficiency": round(eff.get(p.machines, 0.0), 2),
            })
    return rows


def test_ablation_weak_scaling(benchmark):
    rows = once(benchmark, weak_study)
    text = render_table(
        rows,
        title=("Weak scaling (constant load per machine), PageRank on "
               "Twitter-shaped data — the experiment §5.12 leaves out"),
    )
    write_output("ablation_weak_scaling", text)
    for system in ("BV", "G", "HD"):
        eff = {r["Machines"]: r["Efficiency"] for r in rows
               if r["System"] == system and r["Efficiency"]}
        # perfect weak scaling would stay at 1.0; nothing achieves it,
        # but nothing collapses either on the analytic workload
        assert eff[16] == 1.0
        assert 0.2 < eff[128] < 1.1
