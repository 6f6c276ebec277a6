#!/usr/bin/env python
"""Reproduce the whole paper in one run.

Regenerates the evaluation end to end — the four result grids, the
COST table, the findings checklist — writes every cell's run journal
into ``traces/``, renders the Markdown report from those journals (the
same report ``repro report OUT/traces`` prints), and prints the
summary. This is the driver a referee would run; the per-table/figure
details live in ``benchmarks/``.

Run:  python examples/reproduce_paper.py [output-dir]
      (about 2 s on a 2-CPU host; default output dir: ./paper_reproduction)
"""

import sys
import time
from pathlib import Path

from repro import paper_grid
from repro.analysis import render_grid, render_table
from repro.core import cost_experiment
from repro.core.findings import verify_all_findings
from repro.engines import systems_for_workload
from repro.obs.report import load_source, render_report

DATASETS = ("twitter", "uk0705", "wrn")
SIZES = (16, 32, 64, 128)


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "paper_reproduction")
    traces = out_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    started = time.time()

    # Figures 6-9: the four result grids.
    for workload in ("pagerank", "khop", "sssp", "wcc"):
        print(f"running the {workload} grid ...")
        grid = paper_grid(workload, datasets=DATASETS, cluster_sizes=SIZES)
        for i, result in enumerate(grid.cells.values()):
            result.observation.write(traces / f"{workload}_{i:03d}.jsonl")
        text = render_grid(
            grid, workload, DATASETS, SIZES, systems_for_workload(workload),
            title=f"{workload}: total response seconds",
        )
        print(text, "\n")
    # result tables, failure census, winners and scaling, from the journals
    report_parts = [render_report([load_source(traces)])]

    # Table 9: the COST experiment.
    print("running the COST experiment ...")
    cost_rows = cost_experiment(datasets=DATASETS,
                                workloads=("pagerank", "sssp", "wcc"))
    cost_table = render_table(
        [{
            "dataset": r.dataset, "workload": r.workload,
            "single thread s": round(r.single_thread_seconds, 1),
            "best parallel s": round(r.best_parallel_seconds or 0, 1),
            "winner": r.best_parallel_system or "-",
            "COST": round(r.cost, 3) if r.cost else "-",
        } for r in cost_rows],
        title="Table 9: the COST experiment",
    )
    print(cost_table, "\n")
    report_parts.append(cost_table)

    # The findings checklist.
    print("verifying the paper's findings ...")
    findings = verify_all_findings()
    findings_table = render_table(
        [{
            "finding": f.key, "section": f.section,
            "verdict": "SUPPORTED" if f.supported else "NOT SUPPORTED",
        } for f in findings],
        title="The paper's major findings",
    )
    print(findings_table)
    report_parts.append(findings_table)

    report_path = out_dir / "report.md"
    report_path.write_text("\n\n".join(report_parts) + "\n", encoding="utf-8")
    elapsed = time.time() - started
    supported = sum(1 for f in findings if f.supported)
    print(
        f"\ndone in {elapsed:.0f}s: {supported}/{len(findings)} findings "
        f"supported; report at {report_path}, run journals in {traces}/"
    )
    return 0 if supported == len(findings) else 1


if __name__ == "__main__":
    sys.exit(main())
