"""Ablation: vertical scalability — the §5.12 dimension the paper skips.

Fixed 16-machine cluster, per-machine cores swept 2→16 (r3 family
style). Compute-bound analytics gain; barrier-bound road-network
traversals do not; and memory-scaled instances rescue GraphLab's WRN
OOM without adding machines.
"""

from common import once, write_output

from repro.analysis import render_table
from repro.core.vertical_scaling import vertical_scaling_experiment


def measure():
    rows = []
    for system, workload, dataset in (
        ("BV", "pagerank", "twitter"),
        ("GL-S-R-I", "pagerank", "twitter"),
        ("BV", "sssp", "wrn"),
    ):
        points = vertical_scaling_experiment(
            system, workload, dataset, cores_options=(2, 4, 8, 16)
        )
        base = points[0].time
        for p in points:
            rows.append({
                "System": system,
                "Workload": f"{workload}/{dataset}",
                "Cores": p.cores,
                "Total s": round(p.time, 1),
                "Speedup": round(base / p.time, 2),
            })
    # the memory dimension: fat nodes instead of more nodes
    thin = vertical_scaling_experiment(
        "GL-S-R-I", "pagerank", "wrn", cores_options=(4,), scale_memory=False
    )[0]
    fat = vertical_scaling_experiment(
        "GL-S-R-I", "pagerank", "wrn", cores_options=(16,), scale_memory=True
    )[0]
    memory_rows = [
        {"Instance": "16 x 4-core/30.5GB", "Cell": thin.result.cell()},
        {"Instance": "16 x 16-core/122GB", "Cell": fat.result.cell()},
    ]
    return rows, memory_rows


def test_ablation_vertical_scaling(benchmark):
    rows, memory_rows = once(benchmark, measure)
    text = render_table(
        rows,
        title=("Vertical scaling at 16 machines (cores per machine swept) "
               "— the dimension §5.12 leaves out"),
    )
    text += "\n\n" + render_table(
        memory_rows,
        title="Fat nodes vs more nodes: GraphLab-random PageRank on WRN",
    )
    write_output("ablation_vertical_scaling", text)

    by = {(r["System"], r["Workload"], r["Cores"]): r for r in rows}
    # analytics gain substantially from 2 -> 16 cores
    assert by[("BV", "pagerank/twitter", 16)]["Speedup"] > 2.5
    # the diameter-bound traversal gains almost nothing
    assert by[("BV", "sssp/wrn", 16)]["Speedup"] < 1.15
    # and fat memory rescues the §5.2 OOM
    assert memory_rows[0]["Cell"] == "OOM"
    assert memory_rows[1]["Cell"] not in ("OOM", "TO")
