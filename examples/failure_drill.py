#!/usr/bin/env python
"""Scenario: a failure drill — what one dead machine costs each system.

Table 1 catalogues each system's fault-tolerance mechanism but the
paper never pulls the plug. This example does: it schedules a worker
failure halfway through a PageRank run on every mechanism class and
compares the bill, then shows the checkpoint-frequency trade-off (dense
checkpoints cost steady overhead but shrink the recovery).

Run:  python examples/failure_drill.py
"""

from repro import load_dataset
from repro.analysis import render_table
from repro.chaos import ChaosPlan, MachineCrash
from repro.cluster import ClusterSpec
from repro.engines import make_engine, workload_for

SYSTEMS = ("HD", "G", "BV", "GL-S-R-I", "V")


def run(key, dataset, machines=16, fault_plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, "pagerank", dataset)
    return engine.run(dataset, workload,
                      ClusterSpec(machines, fault_plan=fault_plan))


def main() -> None:
    dataset = load_dataset("twitter", "small")

    rows = []
    for key in SYSTEMS:
        engine = make_engine(key)
        clean = run(key, dataset)
        plan = ChaosPlan(events=(MachineCrash(time=clean.total_time * 0.5),))
        faulty = run(key, dataset, fault_plan=plan)
        rows.append({
            "System": engine.display_name,
            "Mechanism": engine.fault_tolerance,
            "Clean s": round(clean.total_time, 1),
            "1 failure s": round(faulty.total_time, 1),
            "Overhead": f"{faulty.total_time / clean.total_time:.2f}x",
            "Checkpoints": int(faulty.extras.get("checkpoints", 0)),
        })
    print(render_table(
        rows, title="One worker dies mid-run (PageRank, Twitter, 16 machines)"
    ))
    print(
        "\nReading: MapReduce re-executes one shard (cheap); BSP systems"
        "\nreplay everything since the last global checkpoint; Vertica has"
        "\nno mechanism at all - the query restarts from zero.\n"
    )

    # The checkpoint-frequency trade-off for a BSP system.
    clean = run("BV", dataset)
    fail_late = (MachineCrash(time=clean.total_time * 0.85),)
    rows = []
    for interval in (2, 5, 10, 20, 40):
        plan = ChaosPlan(events=fail_late, checkpoint_interval=interval)
        faulty = run("BV", dataset, fault_plan=plan)
        no_fail = run("BV", dataset,
                      fault_plan=ChaosPlan(checkpoint_interval=interval))
        rows.append({
            "Checkpoint every": f"{interval} supersteps",
            "Steady overhead s": round(no_fail.total_time - clean.total_time, 1),
            "Recovery cost s": round(faulty.total_time - no_fail.total_time, 1),
            "Total with failure s": round(faulty.total_time, 1),
        })
    print(render_table(
        rows,
        title="Checkpoint frequency trade-off (Blogel-V, failure at 85%)",
    ))
    print(
        "\nDense checkpoints pay a steady tax but bound the work lost to a"
        "\nfailure; sparse ones gamble the whole run on a quiet cluster."
    )


if __name__ == "__main__":
    main()
