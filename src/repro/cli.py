"""Command-line interface: drive the experiments without writing code.

Subcommands mirror the study's workflow::

    repro datasets                      # Table 3 for the synthetic stand-ins
    repro run BV pagerank twitter -m 16 # one experiment cell
    repro grid wcc --trace traces/      # one result figure (Figs 6-9)
    repro grid wcc --jobs 4 --resume    # same grid, parallel + resumable
    repro bench-grid                    # time jobs=1 vs jobs=N -> BENCH_grid.json
    repro cost                          # Table 9 (the COST experiment)
    repro weak BV pagerank twitter      # the weak-scaling extension
    repro chaos --faults crash netsplit # fault injection: MTTR per system
    repro elastic --directions out in   # mid-run rescaling: cost per mechanism
    repro report traces/ -o out.md      # result tables, cost & perf report
    repro report traces/ BENCH_grid.json # ... plus bench records
    repro report --diff old/ new/       # regression gate: exit 1 if slower
    repro trace trace.jsonl --summary   # inspect a journal
    repro lint src/                     # enforce the model contracts (RPLxxx)
    repro serve                         # benchmark-as-a-service daemon
    repro submit pagerank --systems BB G # run a grid through the daemon
    repro serve-ctl stats               # query / shut down the daemon
    repro serve-bench --clients 120     # Zipf load test -> BENCH_serve.json

Grid and run executions go through :mod:`repro.exec`: independent cells
fan out over ``--jobs`` worker processes, finished cells land in a
content-addressed cache (``--cache-dir``, default ``.repro-cache``;
``--no-cache`` disables), and an interrupted grid picks up where it
died with ``--resume``.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .chaos.experiment import (DEFAULT_FAULTS, DEFAULT_MAGNITUDES,
                               DEFAULT_SYSTEMS, DEFAULT_TIMINGS, DIRECTIONS,
                               ELASTIC_SYSTEMS, FAULT_KINDS)
from .cluster import CLUSTER_SIZES
from .datasets import DATASET_NAMES, load_dataset
from .engines import (ENGINE_KEYS, EXTENSION_WORKLOADS, WORKLOAD_NAMES,
                      systems_for_workload)
from .graph import compute_stats, estimate_diameter

__all__ = ["main", "build_parser"]

#: span groups `repro report` and `repro trace` rank by default; one
#: value, so both print the same text for a scheduler or server journal
TOP_SPANS = 10


def _add_exec_options(p: argparse.ArgumentParser) -> None:
    """The executor flags ``repro run`` and ``repro grid`` share."""
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes (default: cpu count; 1 = inline)")
    p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                   help="result cache location (default: .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache (always re-execute)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run from its cache")


def _add_perturbation_options(
    p: argparse.ArgumentParser,
    systems,
    systems_help: str,
    family_options,
    seed_help: str,
    trace_help: str,
) -> None:
    """The flags ``repro chaos`` and ``repro elastic`` share.

    ``family_options(p)`` adds the plan family's own flags after
    ``--size``.
    """
    p.add_argument("--systems", nargs="+", default=list(systems),
                   choices=sorted(ENGINE_KEYS), metavar="SYS",
                   help=f"{systems_help} (default: {' '.join(systems)})")
    p.add_argument("--workload", default="pagerank",
                   choices=WORKLOAD_NAMES + EXTENSION_WORKLOADS)
    p.add_argument("--dataset", default="twitter", choices=DATASET_NAMES)
    p.add_argument("-m", "--machines", type=int, default=16)
    p.add_argument("--size", default="small")
    family_options(p)
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--checkpoint-interval", type=int, default=10, metavar="K",
                   help="supersteps between checkpoints for checkpointing "
                        "systems (default 10)")
    p.add_argument("--trace", metavar="DIR", help=trace_help)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one progress line per finished cell")
    _add_exec_options(p)


def _add_fault_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", nargs="+", default=list(DEFAULT_FAULTS),
                   choices=FAULT_KINDS, metavar="KIND",
                   help=f"fault kinds to inject (default: {' '.join(DEFAULT_FAULTS)}; "
                        f"all: {' '.join(FAULT_KINDS)})")
    p.add_argument("--intensities", nargs="+", type=int, default=[1, 2, 3],
                   metavar="N", help="faults per run (default: 1 2 3)")


def _add_rescale_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--directions", nargs="+", default=list(DIRECTIONS),
                   choices=DIRECTIONS, metavar="DIR",
                   help="rescale directions (default: out in)")
    p.add_argument("--timings", nargs="+", type=float,
                   default=list(DEFAULT_TIMINGS), metavar="FRAC",
                   help="when to rescale, as a fraction of the reference "
                        "run's supersteps (default: 0.3 0.7)")
    p.add_argument("--magnitudes", nargs="+", type=int,
                   default=list(DEFAULT_MAGNITUDES), metavar="N",
                   help="machines added/removed per rescale (default: 4)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Experimental Analysis of Distributed Graph "
            "Systems' (VLDB 2018): run simulated experiment cells, grids, "
            "and analyses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="describe the synthetic datasets")
    p.add_argument("--size", default="small", help="tiny|small|medium")

    p = sub.add_parser("run", help="run one experiment cell")
    p.add_argument("system", choices=sorted(ENGINE_KEYS))
    p.add_argument("workload", choices=WORKLOAD_NAMES + EXTENSION_WORKLOADS)
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("-m", "--machines", type=int, default=16)
    p.add_argument("--size", default="small")
    p.add_argument("--trace", metavar="FILE",
                   help="write the run's journal (JSONL) here")
    _add_exec_options(p)

    p = sub.add_parser("grid", help="run one result grid (Figures 6-9)")
    p.add_argument("workload", choices=WORKLOAD_NAMES + EXTENSION_WORKLOADS)
    p.add_argument("--datasets", nargs="+", default=["twitter", "uk0705", "wrn"])
    p.add_argument("--machines", nargs="+", type=int, default=list(CLUSTER_SIZES))
    p.add_argument("--size", default="small")
    p.add_argument("--trace", metavar="DIR",
                   help="write one journal per cell into this directory "
                        "(plus the scheduler's own _scheduler.jsonl)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one progress line per finished cell")
    _add_exec_options(p)

    p = sub.add_parser(
        "bench-grid",
        help="time the benchmark PageRank grid at jobs=1 vs jobs=N",
    )
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker count (default: cpu count, min 2)")
    p.add_argument("-o", "--output", default="BENCH_grid.json",
                   help="where the JSON record goes")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="append the record here as one JSON line (default: "
                        "BENCH_history.jsonl next to the output; '' skips)")

    p = sub.add_parser(
        "bench-elastic",
        help="benchmark mid-run rescaling per recovery mechanism "
             "-> BENCH_elastic.json",
    )
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: cpu count)")
    p.add_argument("-o", "--output", default="BENCH_elastic.json",
                   help="where the JSON record goes")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="append the record here as one JSON line (default: "
                        "BENCH_history.jsonl next to the output; '' skips)")

    p = sub.add_parser("cost", help="the COST experiment (Table 9)")
    p.add_argument("--datasets", nargs="+", default=["twitter", "uk0705", "wrn"])
    p.add_argument("--workloads", nargs="+", default=["pagerank", "sssp", "wcc"])

    p = sub.add_parser("weak", help="weak-scaling extension experiment")
    p.add_argument("system", choices=sorted(ENGINE_KEYS))
    p.add_argument("workload", choices=WORKLOAD_NAMES + EXTENSION_WORKLOADS)
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--machines", nargs="+", type=int, default=list(CLUSTER_SIZES))

    p = sub.add_parser("findings", help="verify the paper's major findings")
    p.add_argument("--extensions", action="store_true",
                   help="also verify the beyond-the-paper extension findings")

    p = sub.add_parser(
        "chaos",
        help="fault injection: the MTTR-vs-fault-intensity grid per system",
    )
    _add_perturbation_options(
        p, DEFAULT_SYSTEMS, "systems under chaos", _add_fault_options,
        seed_help="chaos seed: fault-to-machine assignment (default 0)",
        trace_help="write one journal per faulted cell (and per "
                   "fault-free reference) into this directory",
    )

    p = sub.add_parser(
        "elastic",
        help="elastic rescaling: what each recovery mechanism pays to "
             "grow or shrink a cluster mid-run",
    )
    _add_perturbation_options(
        p, ELASTIC_SYSTEMS, "systems to rescale", _add_rescale_options,
        seed_help="chaos seed threaded into the rescale plan (default 0)",
        trace_help="write one journal per rescaled cell (and per "
                   "clean reference) into this directory",
    )

    p = sub.add_parser(
        "report",
        help="result tables, perf & cost report — or regression diff — "
             "from journals, trace dirs, and bench records",
    )
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="trace directory, run/scheduler/server journal, "
                        "BENCH_grid.json, or BENCH_history.jsonl")
    p.add_argument("-o", "--output", help="write the report here (default stdout)")
    p.add_argument("--diff", action="store_true",
                   help="compare exactly two inputs; exit 1 on any "
                        "threshold-crossing regression (the CI gate)")
    p.add_argument("--threshold", type=float, default=0.05, metavar="REL",
                   help="relative time-regression threshold for --diff "
                        "(default 0.05 = 5%%)")
    p.add_argument("--cost-threshold", type=float, default=None, metavar="REL",
                   help="relative dollars-regression threshold for --diff "
                        "(default: same as --threshold)")
    p.add_argument("--top", type=int, default=TOP_SPANS,
                   help=f"hot-span rows per input (default {TOP_SPANS})")

    p = sub.add_parser(
        "trace", help="inspect or convert a journal (JSONL)"
    )
    p.add_argument("journal",
                   help="journal file written by 'repro run --trace' (or a "
                        "grid's _scheduler.jsonl, a daemon's _server.jsonl)")
    p.add_argument("--chrome", metavar="FILE",
                   help="export Chrome trace_event JSON (Perfetto-loadable)")
    p.add_argument("--csv", metavar="FILE",
                   help="export the per-superstep series as CSV")
    p.add_argument("--summary", action="store_true",
                   help="print the phase timeline and hottest spans; "
                        "scheduler and server journals print their "
                        "'repro report' (default when no export is "
                        "requested)")
    p.add_argument("--top", type=int, default=TOP_SPANS,
                   help=f"how many span groups the summary ranks "
                        f"(default {TOP_SPANS})")

    p = sub.add_parser(
        "serve",
        help="run the benchmark-as-a-service daemon (fair queue + "
             "shared warm cache)",
    )
    p.add_argument("--socket", default=None, metavar="ADDR",
                   help="unix socket path or host:port (default: "
                        ".repro-serve.sock)")
    p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                   help="shared result cache (default: .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result cache (every cell re-runs)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per job (default 1: inline, "
                        "deterministic service order)")
    p.add_argument("--max-queue", type=int, default=256, metavar="CELLS",
                   help="admission-control bound on queued cells (default 256)")
    p.add_argument("--cache-budget", type=int, default=None, metavar="CELLS",
                   help="bound the shared result cache to this many cells "
                        "(LRU eviction; default: unbounded)")
    p.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS",
                   help="default per-job deadline in host seconds from "
                        "submission (default 0: none)")
    p.add_argument("--journal", default="_server.jsonl", metavar="FILE",
                   help="the daemon's own journal, written at shutdown "
                        "(default: _server.jsonl; '' skips)")

    p = sub.add_parser(
        "submit",
        help="submit one experiment grid to a running serve daemon",
    )
    p.add_argument("workload", choices=WORKLOAD_NAMES + EXTENSION_WORKLOADS)
    p.add_argument("--systems", nargs="+", default=None, metavar="SYS",
                   help="systems to run (default: the workload's figure "
                        "lineup)")
    p.add_argument("--datasets", nargs="+", default=["twitter"],
                   choices=DATASET_NAMES)
    p.add_argument("-m", "--machines", nargs="+", type=int, default=[16])
    p.add_argument("--size", default="small")
    p.add_argument("--socket", default=None, metavar="ADDR",
                   help="daemon address (default: .repro-serve.sock)")
    p.add_argument("--client", default="cli", help="client identity for "
                   "fair-share accounting (default: cli)")
    p.add_argument("--priority", type=int, default=0,
                   help="strict service class; higher runs first (default 0)")
    p.add_argument("--weight", type=float, default=1.0,
                   help="fair share inside the priority class (default 1.0)")
    p.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS",
                   help="cancel the job if not finished this many host "
                        "seconds after submission (default 0: none)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for completion (default 600)")
    p.add_argument("--trace", metavar="DIR",
                   help="write one journal per served cell into this "
                        "directory (byte-identical to 'repro grid --trace')")

    p = sub.add_parser(
        "serve-ctl",
        help="control a running serve daemon (ping/stats/status/cancel/"
             "drain/shutdown)",
    )
    p.add_argument("action",
                   choices=("ping", "stats", "status", "cancel", "drain",
                            "shutdown"))
    p.add_argument("--socket", default=None, metavar="ADDR",
                   help="daemon address (default: .repro-serve.sock)")
    p.add_argument("--job", metavar="ID",
                   help="job id for status/cancel")

    p = sub.add_parser(
        "serve-bench",
        help="seeded Zipf load test of the daemon -> BENCH_serve.json",
    )
    p.add_argument("--clients", type=int, default=120,
                   help="simulated client count (default 120)")
    p.add_argument("--seed", type=int, default=2018,
                   help="load-pattern seed (default 2018)")
    p.add_argument("--size", default="tiny", choices=("tiny", "small", "medium"),
                   help="dataset size served (default tiny)")
    p.add_argument("--max-queue", type=int, default=96, metavar="CELLS",
                   help="admission-control bound in cells (default 96)")
    p.add_argument("-o", "--output", default="BENCH_serve.json",
                   help="where the JSON record goes")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="append the record here as one JSON line (default: "
                        "BENCH_history.jsonl next to the output; '' skips)")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="also write the daemon's _server.jsonl here")

    # listed for --help only: main() hands `repro lint ...` to the
    # linter's own parser before this one runs
    sub.add_parser(
        "lint",
        help="static analysis of the model contracts: every RPL rule, "
             "per-file and whole-program, in one pass",
    )

    return parser


def _cmd_datasets(args) -> int:
    from .analysis import render_table

    rows = []
    for name in DATASET_NAMES:
        dataset = load_dataset(name, args.size)
        stats = compute_stats(dataset.graph)
        rows.append({
            "dataset": name,
            "|V|": stats.num_vertices,
            "|E|": stats.num_edges,
            "avg deg": round(stats.avg_degree, 2),
            "max deg": stats.max_degree,
            "diameter>=": estimate_diameter(dataset.graph),
            "stands in for |E|": dataset.profile.num_edges,
        })
    print(render_table(rows, title=f"Synthetic datasets ({args.size})"))
    return 0


def _trace_filename(result, tag: str = "") -> str:
    """A collision-free, filesystem-safe per-cell journal filename.

    System keys hold characters like ``*`` that need replacing, and two
    distinct keys can sanitize to the same text (``BB*`` and ``BB-``),
    so the name carries a short digest of the *raw* cell coordinates:
    distinct cells can never target the same path, while the name stays
    stable across runs (the parallel-vs-sequential byte comparison
    depends on that). ``tag`` distinguishes runs that share coordinates
    but differ otherwise — chaos variants of the same cell. Writes
    themselves are atomic via :meth:`repro.obs.Journal.write`.
    """
    import hashlib
    import re

    stem = (f"{result.system}_{result.workload}_{result.dataset}"
            f"_{result.cluster_size}")
    if tag:
        stem += f"_{tag}"
    digest = hashlib.sha256(stem.encode("utf-8")).hexdigest()[:8]
    safe = re.sub(r"[^A-Za-z0-9_.+-]", "-", stem)
    return f"{safe}.{digest}.jsonl"


def _write_journals(trace: str, runs) -> int:
    """Write each ``(result, tag)`` run's journal into the ``--trace`` dir.

    Runs without an observation are skipped; returns how many journals
    were written.
    """
    trace_dir = Path(trace)
    trace_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for result, tag in runs:
        if result.observation is not None:
            result.observation.write(trace_dir / _trace_filename(result, tag))
            written += 1
    return written


def _cli_cache(args):
    """The executor cache requested by the shared CLI flags."""
    return None if args.no_cache else args.cache_dir


def _cmd_run(args) -> int:
    from .analysis import render_table
    from .core.runner import ExperimentSpec
    from .exec import execute_grid
    from .obs.export import one_line_summary

    spec = ExperimentSpec(
        systems=(args.system,),
        workloads=(args.workload,),
        datasets=(args.dataset,),
        cluster_sizes=(args.machines,),
        dataset_size=args.size,
    )
    execution = execute_grid(
        spec, jobs=1, cache=_cli_cache(args), resume=args.resume
    )
    result = next(iter(execution.grid.cells.values()))
    print(render_table([{
        "system": result.system,
        "workload": result.workload,
        "dataset": result.dataset,
        "machines": result.cluster_size,
        "load s": round(result.load_time, 1),
        "execute s": round(result.execute_time, 1),
        "save s": round(result.save_time, 1),
        "total s": round(result.total_time, 1),
        "iterations": result.iterations,
        "cell": result.cell(),
    }]))
    print(one_line_summary(result))
    if execution.report.cache_hits:
        print("cell served from the result cache (use --no-cache to re-run)")
    if args.trace and result.observation is not None:
        lines = result.observation.write(args.trace)
        print(f"journal: {lines} events written to {args.trace}")
    if not result.ok:
        print(f"failure: {result.failure_detail}")
    return 0 if result.ok else 1


def _cmd_grid(args) -> int:
    from .analysis import render_grid
    from .core.runner import ExperimentSpec
    from .exec import execute_grid, print_progress

    spec = ExperimentSpec(
        systems=systems_for_workload(args.workload),
        workloads=(args.workload,),
        datasets=tuple(args.datasets),
        cluster_sizes=tuple(args.machines),
        dataset_size=args.size,
    )
    execution = execute_grid(
        spec,
        jobs=args.jobs,
        cache=_cli_cache(args),
        resume=args.resume,
        progress=print_progress if args.verbose else None,
    )
    grid = execution.grid
    print(render_grid(
        grid, args.workload, args.datasets, args.machines,
        systems_for_workload(args.workload),
        title=f"{args.workload} results (total response seconds)",
    ))
    print(execution.report.summary())
    completed = grid.completed()
    if completed:
        from .obs.export import one_line_summary

        slowest = max(completed, key=lambda r: r.total_time)
        print(f"\nslowest cell {slowest.system} {slowest.workload}/"
              f"{slowest.dataset}@{slowest.cluster_size} — "
              f"{one_line_summary(slowest)}")
    if args.trace:
        written = _write_journals(
            args.trace, ((result, "") for result in grid.cells.values()))
        trace_dir = Path(args.trace)
        execution.scheduler_journal().write(trace_dir / "_scheduler.jsonl")
        print(f"{written} cell journals (+ _scheduler.jsonl) written to "
              f"{trace_dir}/")
    return 0


def _cmd_bench_grid(args) -> int:
    from .exec.bench import run_bench

    run_bench(jobs=args.jobs, output=args.output, history=args.history)
    return 0


def _cmd_bench_elastic(args) -> int:
    from .chaos.bench import run_bench

    record = run_bench(jobs=args.jobs, output=args.output,
                       history=args.history)
    return 0 if record["bit_equal"] else 1


def _cmd_cost(args) -> int:
    from .analysis import render_table
    from .core.cost import cost_experiment

    rows = cost_experiment(
        datasets=tuple(args.datasets), workloads=tuple(args.workloads)
    )
    print(render_table(
        [{
            "dataset": r.dataset,
            "workload": r.workload,
            "single thread s": round(r.single_thread_seconds, 1),
            "best parallel s": round(r.best_parallel_seconds or 0, 1),
            "winner": r.best_parallel_system or "-",
            "COST (S/P)": round(r.cost, 3) if r.cost else "-",
        } for r in rows],
        title="COST experiment (16-machine clusters vs one thread)",
    ))
    return 0


def _cmd_weak(args) -> int:
    from .analysis import render_table
    from .core.weak_scaling import weak_efficiency, weak_scaling_experiment

    points = weak_scaling_experiment(
        args.system, args.workload, args.dataset,
        cluster_sizes=tuple(args.machines),
    )
    efficiency = dict(weak_efficiency(points))
    print(render_table(
        [{
            "machines": p.machines,
            "paper |E|": p.paper_edges,
            "total s": round(p.time, 1) if p.result.ok else p.result.cell(),
            "efficiency": round(efficiency.get(p.machines, 0.0), 2),
        } for p in points],
        title=(f"Weak scaling: {args.system} / {args.workload} on "
               f"{args.dataset}-shaped data (constant load per machine)"),
    ))
    return 0


def _perturbation_grid(args) -> dict:
    """The experiment arguments ``repro chaos`` and ``repro elastic`` share."""
    from .exec import print_progress

    return dict(
        systems=tuple(args.systems),
        workload=args.workload,
        dataset=args.dataset,
        cluster_size=args.machines,
        dataset_size=args.size,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        jobs=args.jobs,
        cache_dir=_cli_cache(args),
        resume=args.resume,
        progress=print_progress if args.verbose else None,
    )


def _perturbation_outcome(args, report, *, heading, row, column, columns,
                          summary, tag, label, runs, clean, reference,
                          cells) -> int:
    """Print a perturbation grid, write its ``--trace`` journals, and gate.

    Cells sharing ``(system, row(cell))`` form one table row, where
    ``row`` gives the row's label column and value; ``column(cell)``
    names the cell's column among ``columns``. ``tag`` and ``label``
    name a cell in journal filenames and in the mismatch list. The
    words name the perturbed ``runs``, the ``clean`` reference, the
    ``reference`` the gate compares against, and the family's ``cells``.
    Exits 1 if any completed perturbed run's answers diverge.
    """
    from .analysis import render_table

    grouped: dict = {}
    for cell in report.cells:
        grouped.setdefault((cell.system, row(cell)), {})[column(cell)] = cell
    rows = []
    for (system, (name, value)), by_column in grouped.items():
        table_row = {
            "system": system,
            "mechanism": next(iter(by_column.values())).mechanism,
            name: value,
        }
        for header in columns:
            cell = by_column.get(header)
            table_row[header] = cell.cell_text() if cell else "-"
        rows.append(table_row)
    print(render_table(
        rows,
        title=(f"{heading} — {args.workload}/"
               f"{args.dataset}@{args.machines} machines, seed {args.seed}, "
               f"checkpoint interval {args.checkpoint_interval}"),
    ))
    for line in summary:
        print(line)
    for system, result in report.clean.items():
        if not result.ok:
            print(f"note: {clean} {system} reference failed "
                  f"({result.cell()}); its {cells} cells were skipped")

    if args.trace:
        journals = [(result, "clean") for result in report.clean.values()]
        journals += [(cell.perturbed, tag(cell)) for cell in report.cells]
        written = _write_journals(args.trace, journals)
        print(f"{written} journals written to {Path(args.trace)}/")

    mismatches = report.mismatches()
    if mismatches:
        print(f"\nANSWER MISMATCH — {runs} runs must return answers "
              f"bit-equal to the {reference} reference:")
        for cell in mismatches:
            print(f"  {label(cell)}")
        return 1
    completed = sum(1 for c in report.cells if c.completed)
    print(f"\nall {completed} completed {runs} runs returned bit-exact "
          f"answers (vs their {reference} references)")
    return 0


def _cmd_chaos(args) -> int:
    from .chaos.experiment import recovery_cost_experiment

    report = recovery_cost_experiment(
        faults=tuple(args.faults),
        intensities=tuple(args.intensities),
        **_perturbation_grid(args),
    )
    return _perturbation_outcome(
        args, report,
        heading="MTTR (+end-to-end overhead) seconds",
        row=lambda c: ("fault", c.fault),
        column=lambda c: f"x{c.intensity}",
        columns=[f"x{intensity}" for intensity in args.intensities],
        summary=(),
        tag=lambda c: f"{c.fault}x{c.intensity}",
        label=lambda c: f"{c.system} {c.fault} x{c.intensity}",
        runs="faulted", clean="fault-free", reference="fault-free",
        cells="chaos",
    )


def _cmd_elastic(args) -> int:
    from .chaos.experiment import elasticity_experiment

    report = elasticity_experiment(
        directions=tuple(args.directions),
        timings=tuple(args.timings),
        magnitudes=tuple(args.magnitudes),
        **_perturbation_grid(args),
    )
    tolerance = report.tolerance_by_mechanism()
    dollars = report.dollars_by_mechanism()
    summary = []
    for mechanism in sorted(tolerance):
        tolerated, total = tolerance[mechanism]
        line = f"  {mechanism}: {tolerated}/{total} rescales tolerated"
        if mechanism in dollars:
            line += f", ${dollars[mechanism]:.2f} per rescale"
        summary.append(line)
    return _perturbation_outcome(
        args, report,
        heading="rescale seconds (+end-to-end overhead)",
        row=lambda c: ("rescale", f"{c.direction} x{c.magnitude}"),
        column=lambda c: f"t={c.timing:g}",
        columns=[f"t={timing:g}" for timing in args.timings],
        summary=summary,
        tag=lambda c: f"{c.direction}{c.magnitude}s{c.at_superstep}",
        label=lambda c: (f"{c.system} {c.direction} x{c.magnitude} "
                         f"@superstep {c.at_superstep}"),
        runs="rescaled", clean="clean", reference="fixed-size",
        cells="rescale",
    )


def _cmd_findings(args) -> int:
    from .analysis import render_table
    from .core.findings import verify_all_findings

    findings = verify_all_findings(include_extensions=args.extensions)
    rows = [{
        "finding": f.key,
        "section": f.section,
        "verdict": "SUPPORTED" if f.supported else "NOT SUPPORTED",
    } for f in findings]
    print(render_table(rows, title="The paper's major findings, re-verified"))
    for f in findings:
        print(f"\n[{f.key}] {f.claim}")
        for name, value in f.evidence.items():
            print(f"    {name}: {value}")
    return 0 if all(f.supported for f in findings) else 1


def _emit_report(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {output}")
    else:
        print(text)


def _cmd_report(args) -> int:
    from .obs import report as perf

    if args.diff and len(args.paths) != 2:
        print("error: --diff compares exactly two inputs", file=sys.stderr)
        return 2
    try:
        sources = [perf.load_source(path) for path in args.paths]
    except perf.ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.diff:
        diff = perf.diff_sources(
            *sources,
            threshold=args.threshold,
            cost_threshold=args.cost_threshold,
        )
        _emit_report(diff.render(), args.output)
        return diff.exit_code
    _emit_report(perf.render_report(sources, top=args.top), args.output)
    return 0


def _cmd_trace(args) -> int:
    from .obs import Journal, JournalError
    from .obs import report as perf
    from .obs.export import render_summary, write_chrome, write_superstep_csv

    try:
        journal = Journal.read(args.journal)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exported = False
    if args.chrome:
        count = write_chrome(journal, args.chrome)
        print(f"chrome trace: {count} events written to {args.chrome} "
              f"(load in Perfetto or chrome://tracing)")
        exported = True
    if args.csv:
        rows = write_superstep_csv(journal, args.csv)
        print(f"superstep csv: {rows} rows written to {args.csv}")
        exported = True
    if args.summary or not exported:
        if journal.meta.get("kind") in ("scheduler", "server"):
            try:
                source = perf.load_source(args.journal)
            except perf.ReportError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(perf.render_report([source], top=args.top))
        else:
            print(render_summary(journal, top=args.top))
    return 0


def _serve_address(args) -> str:
    """The daemon rendezvous requested by --socket (or its default)."""
    if args.socket:
        return args.socket
    from .serve import DEFAULT_SOCKET

    return DEFAULT_SOCKET


def _cmd_serve(args) -> int:
    from .serve import ServeDaemon

    daemon = ServeDaemon(
        address=_serve_address(args),
        cache=_cli_cache(args),
        jobs=args.jobs,
        max_queue_cells=args.max_queue,
        cache_budget=args.cache_budget,
        default_deadline=args.deadline,
        journal_path=args.journal or None,
    )
    budget = f", cache budget: {args.cache_budget} cells" \
        if args.cache_budget else ""
    print(f"repro serve: listening on {daemon.address} "
          f"(cache: {'off' if args.no_cache else args.cache_dir}, "
          f"queue bound: {args.max_queue} cells{budget})")
    print("stop with 'repro serve-ctl shutdown' on the same socket")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    if daemon.journal_path is not None:
        print(f"server journal written to {daemon.journal_path}")
    return 0


def _cmd_submit(args) -> int:
    from .analysis import render_grid
    from .serve import ServeClient, ServeError, grid_from_payloads

    systems = tuple(args.systems) if args.systems else systems_for_workload(
        args.workload)
    try:
        with ServeClient(_serve_address(args), client=args.client) as link:
            request = link.request(
                systems=systems, workloads=(args.workload,),
                datasets=args.datasets, cluster_sizes=args.machines,
                dataset_size=args.size,
                priority=args.priority, weight=args.weight,
                deadline=args.deadline,
            )
            job_id = link.submit(request)
            print(f"submitted {job_id} ({request.cells} cells) as "
                  f"{args.client!r}")
            status = link.wait(job_id, timeout=args.timeout)
            payloads = link.fetch_payloads(job_id)
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = grid_from_payloads(payloads)
    print(render_grid(
        grid, args.workload, args.datasets, args.machines, systems,
        title=f"{args.workload} results via {job_id} "
              f"(total response seconds)",
    ))
    print(f"{status['completed']} cells: {status['cache_hits']} served "
          f"from the warm cache, {status['executed']} executed")
    if args.trace:
        written = _write_journals(
            args.trace, ((result, "") for result in grid.cells.values()))
        print(f"{written} cell journals written to {Path(args.trace)}/")
    return 0


def _cmd_serve_ctl(args) -> int:
    import json

    from .serve import ServeClient, ServeError

    if args.action in ("status", "cancel") and not args.job:
        print(f"error: {args.action} needs --job", file=sys.stderr)
        return 2
    try:
        with ServeClient(_serve_address(args), client="serve-ctl") as link:
            if args.action == "ping":
                response = link.ping()
            elif args.action == "stats":
                response = link.stats()
            elif args.action == "status":
                response = link.status(args.job)
            elif args.action == "cancel":
                response = link.cancel(args.job)
            elif args.action == "drain":
                response = link.drain()
            else:
                response = link.shutdown()
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if response.get("cancelling"):
        print(f"cancelling {args.job}: takes effect at the next cell "
              f"boundary")
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve.loadgen import run_loadgen

    record = run_loadgen(
        clients=args.clients, seed=args.seed, dataset_size=args.size,
        max_queue_cells=args.max_queue, output=args.output,
        history=args.history, journal=args.journal,
    )
    return 0 if record["bit_equal_spotcheck"] else 1


_COMMANDS = {
    "datasets": _cmd_datasets,
    "run": _cmd_run,
    "grid": _cmd_grid,
    "bench-grid": _cmd_bench_grid,
    "bench-elastic": _cmd_bench_elastic,
    "cost": _cmd_cost,
    "weak": _cmd_weak,
    "findings": _cmd_findings,
    "chaos": _cmd_chaos,
    "elastic": _cmd_elastic,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "serve-ctl": _cmd_serve_ctl,
    "serve-bench": _cmd_serve_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv[1:], prog="repro lint")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into head/less that exited early; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
