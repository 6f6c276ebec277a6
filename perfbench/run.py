"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``pagerank-small`` — the Figure 6 PageRank grid (13 systems ×
  twitter/uk0705/wrn × 16/64 machines, size small, 78 cells), jobs=1;
* ``figures-tiny`` — every figure lineup of the four workloads × 3
  datasets × 16/32/64/128 machines, size tiny (480 cells),
  jobs = host CPUs;
* ``serve-open`` — a ``repro serve`` daemon driven open-loop with
  Zipf-popular one-cell jobs on a seeded arrival schedule.

Grid workloads launch a fresh program process per grid (into a fresh
cache directory) until ``--seconds`` have passed; the seed only permutes
the cell order. Every delivered cell is checked against
``manifest.json``. With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it makes the separate traced run instead and
prints the per-layer metrics. The last line of standard output is the
result object; the line before it records the host and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    MANIFEST,
    ROOT,
    SRC,
    WORK,
    TreePeak,
    count_failures,
    environment_record,
    grid_cells,
    host_cpus,
    host_snapshot,
    load_manifest,
    median,
    percentile,
    program_env,
)

WORKLOADS = ("pagerank-small", "figures-tiny", "serve-open")

#: set-up samples per run; their median is ``setup_s``
SETUP_SAMPLES = 9

#: a grid is on time (for ``slo_ratio``) when it ends within this
GRID_SLO_S = 60.0

#: generator self-checks: a serve run is invalid, not slow, past these
LATE_P90_LIMIT_MS = 10.0
BACKLOG_END_LIMIT = 10

#: no single program process may run longer than this
CHILD_TIMEOUT = 150.0


#: every end-to-end metric and its unit, as ``BENCHMARK.json`` lists them
END_TO_END_UNITS = {"setup_s": "s", "cells_per_s": "1/s",
                    "peak_rss_mb": "MB", "slo_ratio": "ratio"}


def end_to_end(**values: float) -> dict:
    """The end-to-end metrics of a run, each with its unit."""
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def grid_jobs(workload: str) -> int:
    return 1 if workload == "pagerank-small" else host_cpus()


def spans_path(workload: str) -> Path:
    """Where a traced run leaves its spans (kept after the run)."""
    path = WORK / "spans" / f"{workload}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class InvalidRun(RuntimeError):
    """The measurement itself is unusable (not a slow or wrong program)."""


# -- grid workloads ------------------------------------------------------------

def launch_grid(run_dir: Path, tag: str, workload: str, seed: int,
                mode: str, jobs: int, trace: bool = False) -> dict:
    """One program process; returns its record plus set-up and memory.

    ``record["ok"]`` is False when the process failed or timed out.
    """
    if jobs > host_cpus():
        raise SystemExit(f"refusing jobs={jobs} > host_cpus={host_cpus()}")
    out = run_dir / f"{tag}.json"
    cache = run_dir / f"{tag}-cache"
    stdout_path = run_dir / f"{tag}.stdout"
    cmd = [sys.executable, str(BENCH_DIR / "grid_child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--jobs", str(jobs), "--cache", str(cache), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(spans_path(workload))]
    with open(stdout_path, "wb") as stdout, \
            open(run_dir / f"{tag}.stderr", "wb") as stderr:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, env=program_env(), cwd=ROOT,
                                stdout=stdout, stderr=stderr)
        tree = TreePeak(proc.pid)

        def sample() -> None:
            while proc.poll() is None:
                tree.sample()
                time.sleep(0.05)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            sampler.join()
    ready = [line.split()[1] for line in
             stdout_path.read_text(encoding="ascii").splitlines()
             if line.startswith("READY ")]
    record: dict = {"ok": proc.returncode == 0 and bool(ready)}
    if ready:
        record["setup_s"] = float(ready[0]) - launched
    if record["ok"] and mode == "grid":
        record.update(json.loads(out.read_text(encoding="ascii")))
        workers = sum(kb for pid, kb in tree.peaks.items() if pid != proc.pid)
        record["peak_mb"] = (record["self_peak_kb"] + workers) / 1024.0
    shutil.rmtree(cache, ignore_errors=True)
    return record


def _grid_failures(records: List[dict], cells: int,
                   manifest: Dict[str, str]) -> int:
    failed = 0
    for record in records:
        if record.get("ok"):
            failed += len(count_failures(record["digests"], manifest))
            failed += cells - len(record["digests"])
        else:
            failed += cells
    return failed


def run_grid(run_dir: Path, workload: str, seed: int, seconds: float,
             manifest) -> Tuple[int, int, dict, dict]:
    jobs = grid_jobs(workload)
    cells = len(grid_cells(workload))
    launch_grid(run_dir, "warmup", workload, seed, "warmup", jobs)
    start = time.monotonic()
    grids: List[dict] = []
    while not grids or time.monotonic() - start < seconds:
        grids.append(launch_grid(run_dir, f"grid-{len(grids)}", workload,
                                 seed, "grid", jobs))
    setups = [g["setup_s"] for g in grids if "setup_s" in g]
    while len(setups) < SETUP_SAMPLES:
        probe = launch_grid(run_dir, f"setup-{len(setups)}", workload, seed,
                            "setup", jobs)
        if not probe["ok"]:
            raise RuntimeError("set-up probe failed")
        setups.append(probe["setup_s"])
    good = [g for g in grids if g["ok"]]
    if not good:
        raise RuntimeError("every grid process failed")
    failed = _grid_failures(grids, cells, manifest)
    attempted = cells * len(grids)
    seconds_each = [g["grid_s"] for g in good]
    on_time = sum(
        cells - len(count_failures(g["digests"], manifest))
        for g in good if g["grid_s"] <= GRID_SLO_S
    )
    metrics = end_to_end(
        setup_s=median(setups),
        cells_per_s=median(cells / s for s in seconds_each),
        peak_rss_mb=median(g["peak_mb"] for g in good),
        slo_ratio=on_time / attempted,
    )
    notes = {"jobs": jobs, "grid_s": seconds_each, "setup_s": setups}
    return attempted, failed, metrics, notes


def trace_grid(run_dir: Path, workload: str, seed: int, seconds: float,
               manifest) -> Tuple[int, int, dict, dict]:
    jobs = grid_jobs(workload)
    cells = len(grid_cells(workload))
    launch_grid(run_dir, "warmup", workload, seed, "warmup", jobs)
    traced = launch_grid(run_dir, "traced", workload, seed, "grid", 1, trace=True)
    plain = launch_grid(run_dir, "plain", workload, seed, "grid", 1)
    runs = [traced, plain]
    dispatch_wait = 0.0
    if jobs > 1:
        pooled = launch_grid(run_dir, "pooled", workload, seed, "grid", jobs)
        runs.append(pooled)
        if pooled["ok"] and plain["ok"]:
            # each pooled cell's submit-to-result seconds beyond its own
            # inline run time: queueing for a worker plus shipping
            inline = plain["cell_host_s"]
            dispatch_wait = sum(
                seconds - inline[cid]
                for cid, seconds in pooled["cell_host_s"].items()
            )
    if not (traced["ok"] and plain["ok"]):
        raise RuntimeError("a traced-run grid process failed")
    summary = traced["trace"]
    extra = {
        "startup.import_s": traced["import_s"],
        "exec.dispatch.wait_s": dispatch_wait,
        "host.cpu_s": traced["cpu_s"],
        "trace.overhead_ratio": traced["grid_s"] / plain["grid_s"],
        "trace.coverage": summary["top_seconds"] / traced["grid_s"],
    }
    metrics = layer_metrics(summary, traced["tallies"], extra)
    failed = _grid_failures(runs, cells, manifest)
    notes = {"jobs": jobs, "spans": summary["spans"],
             "layer_self_s": summary["self_s"],
             "group_self_s": summary["group_self_s"]}
    return cells * len(runs), failed, metrics, notes


# -- serve-open ----------------------------------------------------------------

def _check_drive(result) -> None:
    late = percentile(result.late_ms, 90)
    if late > LATE_P90_LIMIT_MS or result.outstanding_at_end > BACKLOG_END_LIMIT:
        raise InvalidRun(
            f"generator self-check failed: late p90 {late:.2f} ms "
            f"(limit {LATE_P90_LIMIT_MS}), {result.outstanding_at_end} jobs "
            f"outstanding when the schedule ended (limit {BACKLOG_END_LIMIT})"
        )


def _serve_warmup(run_dir: Path) -> None:
    from openloop import Daemon

    launch_grid(run_dir, "warmup", "figures-tiny", 0, "warmup", 1)
    Daemon(run_dir, "warmup").stop()


def run_serve(run_dir: Path, seed: int, seconds: float,
              manifest) -> Tuple[int, int, dict, dict]:
    from openloop import Daemon, drive, schedule

    _serve_warmup(run_dir)
    setups = []
    for n in range(SETUP_SAMPLES - 1):
        probe = Daemon(run_dir, f"setup{n}")
        setups.append(probe.setup_s)
        probe.stop()
    daemon = Daemon(run_dir, "serve")
    try:
        setups.append(daemon.setup_s)
        result = drive(daemon.address, schedule(seed, seconds), manifest)
        peak_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    _check_drive(result)
    lat = result.latencies_ms
    metrics = end_to_end(
        setup_s=median(setups),
        cells_per_s=result.cells_ok / result.wall_s,
        peak_rss_mb=peak_mb,
        slo_ratio=result.on_time / result.attempted,
    )
    notes = {"jobs": 1, "setup_s": setups, "samples": len(lat),
             "job_ms": {q: percentile(lat, q) for q in (50, 90, 99)},
             "within_ms": {ms: sum(v <= ms for v in lat) / len(lat)
                           for ms in (25, 50, 100, 250)},
             "late_ms_p90": percentile(result.late_ms, 90),
             "outstanding_at_end": result.outstanding_at_end,
             "failed_cells": result.failed[:10]}
    return result.attempted, result.attempted - result.cells_ok, metrics, notes


def trace_serve(run_dir: Path, seed: int, seconds: float,
                manifest) -> Tuple[int, int, dict, dict]:
    from openloop import Daemon, drive, schedule

    _serve_warmup(run_dir)
    jobs = schedule(seed, seconds)
    records, drives = [], []
    for traced in (False, True):
        tag = "traced" if traced else "plain"
        out = run_dir / f"{tag}-launcher.json"
        daemon = Daemon(run_dir, tag, launcher_out=out,
                        spans=spans_path("serve-open") if traced else None)
        try:
            drives.append(drive(daemon.address, jobs, manifest))
        finally:
            daemon.stop()
        records.append(json.loads(out.read_text(encoding="ascii")))
    for result in drives:
        _check_drive(result)
    plain, traced = records
    lat = drives[0].latencies_ms
    job_p90 = percentile(lat, 90)
    if sum(v > job_p90 for v in lat) < 10:
        raise InvalidRun(f"{len(lat)} jobs: too few for a p90 with ten beyond")
    result = drives[1]
    summary = traced["trace"]
    snap = traced["snapshot"]
    ops: Dict[str, List[float]] = {}
    for op, dur in traced["ops"]:
        ops.setdefault(op, []).append(dur * 1000.0)
    qw = [v * 1000.0 for v in traced["queue_waits"]]
    sv = [v * 1000.0 for v in traced["services"]]
    extra = {
        "startup.import_s": traced["import_s"],
        "serve.job_p50_ms": percentile(lat, 50),
        "serve.job_p90_ms": job_p90,
        "serve.admit_ms.p50": percentile(ops.get("submit", []), 50),
        "serve.queue_wait_ms.p50": percentile(qw, 50),
        "serve.queue_wait_ms.p90": percentile(qw, 90),
        "serve.service_ms.p50": percentile(sv, 50),
        "serve.service_ms.p90": percentile(sv, 90),
        "serve.stream_ms.p50": percentile(ops.get("results", []), 50),
        "serve.cache_hit_ratio": snap["cache_hit_rate"],
        "serve.rejected": snap["rejected"],
        "serve.shed": snap["shed"],
        "serve.backlog.max": result.backlog_max,
        "loadgen.late_ms.p90": percentile(result.late_ms, 90),
        "host.cpu_s": traced["cpu_s"],
        "trace.overhead_ratio": sum(traced["services"]) / sum(plain["services"]),
        "trace.coverage": summary["top_seconds"] / sum(traced["services"]),
    }
    metrics = layer_metrics(summary, traced["tallies"], extra)
    failed = sum(d.attempted - d.cells_ok for d in drives)
    notes = {"jobs": 1, "spans": summary["spans"],
             "layer_self_s": summary["self_s"]}
    return sum(d.attempted for d in drives), failed, metrics, notes


# -- per-layer metrics ---------------------------------------------------------

#: units of the per-layer figures that repeat exactly for a given seed
#: and commit (call counts, bytes, hit ratios); ``BENCHMARK.json``
#: declares the same units
EXACT_COUNT, EXACT_BYTES, EXACT_RATIO = "count.exact", "bytes.exact", "ratio.exact"

#: per-layer metrics that only a traced serve run produces; the grid
#: workloads report 0 for them
_SERVE_ONLY = {
    "serve.job_p50_ms": "ms", "serve.job_p90_ms": "ms",
    "serve.admit_ms.p50": "ms", "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms", "serve.service_ms.p50": "ms",
    "serve.service_ms.p90": "ms", "serve.stream_ms.p50": "ms",
    "serve.cache_hit_ratio": EXACT_RATIO, "serve.rejected": EXACT_COUNT,
    "serve.shed": EXACT_COUNT, "serve.backlog.max": "count",
    "loadgen.late_ms.p90": "ms",
}


def layer_metrics(summary: dict, tallies: dict, extra: dict) -> dict:
    """Every per-layer metric, from the span summary plus ``extra``."""
    s, c = summary["self_s"], summary["calls"]
    gets = c["exec.cache.get"]
    metrics = {
        "startup.import_s": (extra["startup.import_s"], "s"),
        "datasets.load.calls": (c["datasets.load"], EXACT_COUNT),
        "datasets.load.busy_s": (s["datasets"], "s"),
        "graph.stats.busy_s": (s["graph.stats"], "s"),
        "partitioning.replication_factor.calls":
            (c["partitioning.replication_factor"], EXACT_COUNT),
        "partitioning.busy_s": (s["partitioning"], "s"),
        "workloads.superstep.calls": (c["workloads.superstep"], EXACT_COUNT),
        "workloads.busy_s": (s["workloads"], "s"),
        "cluster.primitive.calls": (c["cluster.primitive"], EXACT_COUNT),
        "cluster.busy_s": (s["cluster"], "s"),
        "cluster.tracker.calls": (c["cluster.tracker"], EXACT_COUNT),
        "cluster.tracker.busy_s": (s["cluster.tracker"], "s"),
        "engines.run.calls": (c["engines.run"], EXACT_COUNT),
        "engines.self_s": (s["engines"], "s"),
        "obs.spans.calls": (c["obs.spans"], EXACT_COUNT),
        "obs.busy_s": (s["obs"], "s"),
        "obs.journal.bytes": (tallies.get("obs.journal.bytes", 0.0), EXACT_BYTES),
        "exec.cell_key.busy_s": (s["exec.cell_key"], "s"),
        "exec.serialize.busy_s": (s["exec.serialize"], "s"),
        "exec.cache.put.calls": (c["exec.cache.put"], EXACT_COUNT),
        "exec.cache.put.busy_s": (s["exec.cache.put"], "s"),
        "exec.cache.put.bytes": (tallies.get("exec.cache.put.bytes", 0.0), EXACT_BYTES),
        "exec.dispatch.wait_s": (extra.get("exec.dispatch.wait_s", 0.0), "s"),
        "exec.retries": (c["exec.retries"], EXACT_COUNT),
        "exec.cache.get.calls": (gets, EXACT_COUNT),
        "exec.cache.get.busy_s": (s["exec.cache.get"], "s"),
        "exec.cache.hit_ratio":
            (tallies.get("exec.cache.get.hits", 0.0) / gets if gets else 0.0,
             EXACT_RATIO),
    }
    for name, unit in _SERVE_ONLY.items():
        metrics[name] = (extra.get(name, 0.0), unit)
    for name, unit in (("host.cpu_s", "s"), ("trace.overhead_ratio", "ratio"),
                       ("trace.coverage", "ratio")):
        metrics[name] = (extra[name], unit)
    return metrics


# -- entry point ---------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
        print(f"perfbench: no program to measure under {SRC} "
              f"(or no {MANIFEST.name})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # relative paths from the checkout root keep socket paths short
    os.chdir(ROOT)
    run_dir = WORK.relative_to(ROOT) / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # a terminated run still stops its program processes (finally blocks)
    signal.signal(signal.SIGTERM, _terminate)
    manifest = load_manifest()
    host_start = host_snapshot()
    try:
        if args.workload == "serve-open":
            measure = trace_serve if args.trace else run_serve
            attempted, failed, metrics, notes = measure(
                run_dir, args.seed, args.seconds, manifest)
        else:
            measure = trace_grid if args.trace else run_grid
            attempted, failed, metrics, notes = measure(
                run_dir, args.workload, args.seed, args.seconds, manifest)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = environment_record(notes.pop("jobs"))
    record.update(host_start=host_start, host_end=host_snapshot(),
                  workload=args.workload, seed=args.seed, notes=notes)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
