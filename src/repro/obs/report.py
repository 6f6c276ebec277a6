"""Cross-run perf & cost reports and the regression gate.

The one renderer behind ``repro report`` (and behind ``repro trace`` of
a scheduler or server journal): load any mix of run journals, grid
trace directories (``repro grid --trace``), scheduler and server
journals, and bench records (``BENCH_grid.json`` /
``BENCH_history.jsonl``); render a grid's result tables, failure
census, per-column winners and §5.12 scaling labels from its run
journals; aggregate spans flamegraph-style (self time per span name
per engine); render cost-and-time comparison tables; and *diff* two
inputs with configurable relative thresholds so CI can gate on "did
this PR make anything slower or more expensive".

Everything here is a pure function of the input bytes: loading sorts
directory listings, rendering uses fixed float formats, and diffing
walks keys in first-input order — the same inputs always produce
byte-identical output (the property the CI gate and the tests pin).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

from ..core.scalability import ScalingCurve, scaling_classification
from .cost import cost_event_from_events
from .journal import Journal, JournalError, canonical_json, write_atomic

__all__ = [
    "ReportError",
    "RunRow",
    "SchedulerRow",
    "ServerRow",
    "PerfSource",
    "classify_path",
    "load_source",
    "write_bench_record",
    "render_report",
    "hot_span_rows",
    "DiffEntry",
    "PerfDiff",
    "diff_sources",
]

KIND_JOURNAL = "journal"
KIND_SCHEDULER = "scheduler-journal"
KIND_SERVER = "server-journal"
KIND_TRACE_DIR = "trace-dir"
KIND_BENCH = "bench"
KIND_BENCH_HISTORY = "bench-history"

#: the grid-level cost counters the executor folds into _scheduler.jsonl
_SCHEDULER_COST_FIELDS = (
    "dollars", "machine_seconds", "memory_gb_hours", "gb_shuffled",
    "recovery_seconds", "answers",
)


class ReportError(ValueError):
    """An input file is not a journal, trace dir, or bench record."""


# -- input classification ---------------------------------------------------

def _classify_event(event: dict, source: str) -> str:
    if event.get("bench"):
        return KIND_BENCH_HISTORY
    if event.get("type") == "meta":
        if event.get("kind") == "scheduler":
            return KIND_SCHEDULER
        if event.get("kind") == "server":
            return KIND_SERVER
        return KIND_JOURNAL
    raise ReportError(
        f"{source}: neither a run, scheduler or server journal, nor a "
        f"bench record"
    )


def classify_path(path: Union[str, Path]) -> str:
    """What kind of input a path is (see the ``KIND_*`` constants)."""
    p = Path(path)
    if p.is_dir():
        return KIND_TRACE_DIR
    try:
        text = p.read_text(encoding="ascii")
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path} is not a text input: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise ReportError(f"{path} is empty")
    try:
        whole = json.loads(stripped)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        if whole.get("bench"):
            return KIND_BENCH
        kind = _classify_event(whole, str(path))
        return kind if kind != KIND_BENCH_HISTORY else KIND_BENCH
    first_line = stripped.splitlines()[0].strip()
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}:1: not JSON ({exc.msg})") from exc
    if not isinstance(first, dict):
        raise ReportError(f"{path}:1: expected a JSON object per line")
    return _classify_event(first, str(path))


# -- data model -------------------------------------------------------------

@dataclass
class RunRow:
    """One run's report-facing summary, from its journal's meta line."""

    key: str
    system: str
    workload: str
    dataset: str
    machines: int
    status: str
    total_seconds: float
    iterations: int
    #: the journal's cost event (or one computed on the fly); ``None``
    #: when the events carry nothing to bill from
    cost: Optional[dict]
    spans: List[dict] = field(default_factory=list)

    @property
    def rescaled(self) -> bool:
        """Whether a ``recover`` span changed the fleet mid-run.

        Such a run bills its widest fleet as ``machines``, a size no
        fixed cluster ran at, so it is no point on a scaling curve.
        """
        for span in self.spans:
            args = span.get("args", {})
            if (span.get("name") == "recover"
                    and args.get("workers_before") != args.get("workers_after")):
                return True
        return False

    @property
    def coordinates(self) -> str:
        """``system workload/dataset@machines``: the key before any #n."""
        return (f"{self.system} {self.workload}/{self.dataset}"
                f"@{self.machines}")

    @property
    def label(self) -> str:
        """The system plus the key's #n suffix: one result-table row."""
        return self.system + self.key[len(self.coordinates):]

    def cell(self) -> str:
        """The paper's grid cell: whole seconds or the failure code."""
        return f"{self.total_seconds:.0f}" if self.status == "ok" else self.status


@dataclass
class SchedulerRow:
    """One ``_scheduler.jsonl``: cache/retry counters + the grid's bill."""

    cells: int
    cache_hits: int
    executed: int
    retries: int
    jobs: int
    cost: Dict[str, float]
    #: host-clock seconds of the grid span (scheduling wall time)
    host_seconds: float
    spans: List[dict]


@dataclass
class ServerRow:
    """One ``_server.jsonl``: a serve daemon's lifetime aggregates."""

    jobs: int
    rejected: int
    shed: int
    deadline_expired: int
    cells: int
    cache_hits: int
    executed: int
    evictions: int
    cache_hit_rate: float
    dollars: float
    clients: int
    p50_latency: float
    p99_latency: float
    per_client: Dict[str, Dict[str, float]]
    address: str
    spans: List[dict]


@dataclass
class PerfSource:
    """Everything one input path contributed to the report."""

    label: str
    runs: List[RunRow] = field(default_factory=list)
    schedulers: List[SchedulerRow] = field(default_factory=list)
    servers: List[ServerRow] = field(default_factory=list)
    benches: List[dict] = field(default_factory=list)


# -- loading ----------------------------------------------------------------

T = TypeVar("T")


def _field(meta: Dict[str, object], name: str, cast: Callable[[object], T],
           where: str, default: Optional[T] = None) -> T:
    """``cast(meta[name])``; a missing or mistyped field names the file.

    ``default=None`` makes the field required.
    """
    if name not in meta:
        if default is None:
            raise ReportError(f"{where}: meta lacks {name!r}")
        return default
    value = meta[name]
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ReportError(
            f"{where}: meta field {name!r} is not {cast.__name__} ({value!r})"
        ) from exc


def _run_row(journal: Journal, where: str) -> RunRow:
    meta = journal.meta
    row = RunRow(
        key="",
        system=_field(meta, "system", str, where),
        workload=_field(meta, "workload", str, where),
        dataset=_field(meta, "dataset", str, where),
        machines=_field(meta, "machines", int, where),
        status=_field(meta, "status", str, where, "?"),
        total_seconds=_field(meta, "total_time", float, where, 0.0),
        iterations=_field(meta, "iterations", int, where, 0),
        cost=journal.cost(),
        spans=journal.spans(),
    )
    if row.cost is None:
        # pre-cost journals (older traces) are still priced on the fly
        row.cost = cost_event_from_events(journal.events)
    return row


def _scheduler_row(journal: Journal, where: str) -> SchedulerRow:
    meta = journal.meta
    spans = journal.spans()
    grid = [s for s in spans if s.get("name") == "grid"]
    return SchedulerRow(
        cells=_field(meta, "cells", int, where, 0),
        cache_hits=_field(meta, "cache_hits", int, where, 0),
        executed=_field(meta, "executed", int, where, 0),
        retries=_field(meta, "retries", int, where, 0),
        jobs=_field(meta, "jobs", int, where, 0),
        cost={
            name: journal.scalar(f"cost.{name}")
            for name in _SCHEDULER_COST_FIELDS
        },
        host_seconds=grid[0]["dur"] if grid else sum(
            s["dur"] for s in spans if s.get("parent") is None),
        spans=spans,
    )


def _server_row(journal: Journal, where: str) -> ServerRow:
    meta = journal.meta
    per_client = meta.get("per_client")
    return ServerRow(
        jobs=_field(meta, "jobs", int, where, 0),
        rejected=_field(meta, "rejected", int, where, 0),
        shed=_field(meta, "shed", int, where, 0),
        deadline_expired=_field(meta, "deadline_expired", int, where, 0),
        cells=_field(meta, "cells", int, where, 0),
        cache_hits=_field(meta, "cache_hits", int, where, 0),
        executed=_field(meta, "executed", int, where, 0),
        evictions=_field(meta, "evictions", int, where, 0),
        cache_hit_rate=_field(meta, "cache_hit_rate", float, where, 0.0),
        dollars=_field(meta, "dollars", float, where, 0.0),
        clients=_field(meta, "clients", int, where, 0),
        p50_latency=_field(meta, "p50_latency", float, where, 0.0),
        p99_latency=_field(meta, "p99_latency", float, where, 0.0),
        per_client=per_client if isinstance(per_client, dict) else {},
        address=_field(meta, "address", str, where, "?"),
        spans=journal.spans(),
    )


def _add_journal(source: PerfSource, path: Path) -> None:
    """Read one journal file into the row list its meta kind selects."""
    try:
        journal = Journal.read(path)
    except JournalError as exc:
        raise ReportError(str(exc)) from exc
    kind = journal.meta.get("kind")
    if kind == "scheduler":
        source.schedulers.append(_scheduler_row(journal, str(path)))
    elif kind == "server":
        source.servers.append(_server_row(journal, str(path)))
    else:
        source.runs.append(_run_row(journal, str(path)))


def _assign_keys(rows: List[RunRow]) -> None:
    """Stable, unique run keys: coordinates plus a #n dedup suffix."""
    seen: Dict[str, int] = {}
    for row in rows:
        base = row.coordinates
        n = seen.get(base, 0)
        seen[base] = n + 1
        row.key = base if n == 0 else f"{base}#{n + 1}"


def _jsonl_events(text: str, source: str) -> List[dict]:
    """Each JSON object line of a JSONL file, in order."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{where}: not JSON ({exc.msg})") from exc
        if not isinstance(event, dict):
            raise ReportError(f"{where}: expected a JSON object")
        events.append(event)
    return events


def load_source(path: Union[str, Path]) -> PerfSource:
    """Load one input path into its report-ready form.

    Anything malformed — a line that is not JSON, a run journal whose
    meta lacks a coordinate or holds a mistyped field — raises
    :class:`ReportError` naming the file (and line): inputs come from
    outside the program.
    """
    kind = classify_path(path)
    p = Path(path)
    source = PerfSource(label=str(path))
    if kind == KIND_TRACE_DIR:
        files = sorted(x for x in p.iterdir() if x.name.endswith(".jsonl"))
        if not files:
            raise ReportError(f"{path}: no .jsonl journals in directory")
        for file in files:
            _add_journal(source, file)
    elif kind == KIND_BENCH:
        source.benches.append(json.loads(p.read_text(encoding="ascii")))
    elif kind == KIND_BENCH_HISTORY:
        source.benches.extend(
            _jsonl_events(p.read_text(encoding="ascii"), str(path)))
    else:
        _add_journal(source, p)
    _assign_keys(source.runs)
    return source


def write_bench_record(
    record: dict, output: Optional[str], history: Optional[str] = None
) -> str:
    """Write one bench record and append it to the bench history.

    ``output`` gets the indented JSON, written atomically (no record
    file when ``output`` is empty). ``history`` gets one canonical JSON
    line: ``None`` means ``BENCH_history.jsonl`` next to ``output``,
    and ``''`` skips the append. Returns the history path appended to,
    or ``''``.
    """
    if output:
        write_atomic(Path(output),
                     json.dumps(record, indent=2, sort_keys=True) + "\n")
        if history is None:
            history = str(Path(output).with_name("BENCH_history.jsonl"))
    if history:
        with open(history, "a", encoding="ascii") as fh:
            fh.write(canonical_json(record) + "\n")
    return history or ""


# -- span aggregation -------------------------------------------------------

def _self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Per-span self time: duration minus direct children's durations."""
    selfs = {span["id"]: span["dur"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent in selfs:
            selfs[parent] -= span["dur"]
    return selfs


def hot_span_rows(
    owned_spans: Iterable[Tuple[str, Sequence[dict]]], top: int = 10
) -> List[Tuple[str, str, int, float, float, float]]:
    """Flamegraph-style (owner, span, count, self_s, share, total_s).

    ``owned_spans`` pairs each journal's spans with their owner (a
    run's engine, say). Self time is summed per (owner, span label)
    across every journal; rows rank by self time (the flamegraph's
    widest leaves first) and ``share`` is each row's fraction of all
    journals' self time.
    """
    groups: Dict[Tuple[str, str], Tuple[float, float, int]] = {}
    grand = 0.0
    for owner, spans in owned_spans:
        selfs = _self_times(spans)
        for span in spans:
            label = span["name"] + (
                f" [{span['cat']}]" if span.get("cat") else ""
            )
            key = (owner, label)
            total, self_time, count = groups.get(key, (0.0, 0.0, 0))
            groups[key] = (
                total + span["dur"], self_time + selfs[span["id"]], count + 1
            )
            grand += selfs[span["id"]]
    ranked = sorted(groups.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [
        (owner, label, count, self_time,
         self_time / grand if grand > 0 else 0.0, total)
        for (owner, label), (total, self_time, count) in ranked[:top]
    ]


# -- rendering --------------------------------------------------------------

def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _cost_cell(cost: Optional[dict], key: str, fmt: str) -> str:
    if cost is None:
        return "-"
    value = cost.get(key)
    if value is None:
        return "-"
    return format(float(value), fmt)


def _render_grid(runs: Sequence[RunRow]) -> List[str]:
    """The paper's result sections, from the runs' journal meta lines.

    A result table per workload (rows are dataset and system, columns
    the machine counts the runs bill; a repeated run's system carries
    its key's #n), the failure census, the best system per column, and
    the §5.12 strong-scaling labels. Only completed fixed-size runs
    compete for a column or make a curve point: a rescaled run is
    billed at a size no fixed cluster ran at.
    """
    workloads = sorted({row.workload for row in runs})
    datasets = sorted({row.dataset for row in runs})
    sizes = sorted({row.machines for row in runs})
    cells = {(row.label, row.workload, row.dataset, row.machines): row
             for row in runs}
    fixed = [row for row in runs if row.status == "ok" and not row.rescaled]
    lines: List[str] = []
    for workload in workloads:
        rows = []
        for dataset in datasets:
            labels = sorted({row.label for row in runs
                             if (row.workload, row.dataset)
                             == (workload, dataset)})
            for label in labels:
                rows.append([dataset, label] + [
                    cells[key].cell() if key in cells else "-"
                    for key in ((label, workload, dataset, size)
                                for size in sizes)
                ])
        header = ["dataset", "system"] + [f"{size} mach" for size in sizes]
        lines += [f"### {workload}", ""] + _table(header, rows) + [""]

    failures = Counter(row.status for row in runs if row.status != "ok")
    lines += [f"### Failures ({sum(failures.values())} of {len(runs)} runs)",
              ""]
    lines += [f"- **{kind}**: {count}" for kind, count
              in sorted(failures.items(), key=lambda kv: (-kv[1], kv[0]))
              ] or ["- none"]

    winners = []
    scaling = []
    for workload in workloads:
        for dataset in datasets:
            column = [row for row in fixed
                      if (row.workload, row.dataset) == (workload, dataset)]
            for size in sizes:
                entrants = [row for row in column if row.machines == size]
                if entrants:
                    best = min(entrants, key=lambda row: row.total_seconds)
                    winners.append((workload, dataset, str(size), best.label,
                                    f"{best.total_seconds:.1f}"))
            points: Dict[str, List[Tuple[int, float]]] = {}
            for row in column:
                points.setdefault(row.label, []).append(
                    (row.machines, row.total_seconds))
            labels = scaling_classification([
                ScalingCurve(label, workload, dataset, tuple(sorted(series)))
                for label, series in points.items()
            ])
            if labels:
                scaling.append(f"- {workload} / {dataset}: " + ", ".join(
                    f"{label}: {kind}" for label, kind in sorted(labels.items())
                ))
    lines += ["", "### Best system per column (end-to-end)", ""]
    lines += _table(("workload", "dataset", "machines", "winner", "seconds"),
                    winners) if winners else ["- none"]
    lines += ["", "### Strong-scaling classification (§5.12)", ""]
    return lines + (scaling or ["- none"])


def _render_runs(runs: Sequence[RunRow]) -> List[str]:
    header = ("run", "status", "total s", "mach-s", "GB shuf",
              "mem GB-h", "recov s", "$", "$/answer")
    rows = []
    totals = {"seconds": 0.0, "machine_seconds": 0.0, "gb": 0.0,
              "gbh": 0.0, "recovery": 0.0, "dollars": 0.0, "answers": 0.0}
    priced = 0
    for row in runs:
        cost = row.cost
        rows.append((
            row.key,
            row.status,
            f"{row.total_seconds:.1f}",
            _cost_cell(cost, "machine_seconds", ".0f"),
            (_cost_cell(cost, "bytes_shuffled", ".3e")
             if cost is None else f"{cost['bytes_shuffled'] / 1e9:.2f}"),
            _cost_cell(cost, "memory_gb_hours", ".3f"),
            _cost_cell(cost, "recovery_seconds", ".1f"),
            _cost_cell(cost, "dollars", ".4f"),
            _cost_cell(cost, "dollars_per_answer", ".4f"),
        ))
        totals["seconds"] += row.total_seconds
        if cost is not None:
            priced += 1
            totals["machine_seconds"] += float(cost["machine_seconds"])
            totals["gb"] += float(cost["bytes_shuffled"]) / 1e9
            totals["gbh"] += float(cost["memory_gb_hours"])
            totals["recovery"] += float(cost["recovery_seconds"])
            totals["dollars"] += float(cost["dollars"])
            totals["answers"] += float(cost["answers"])
    if priced:
        per_answer = (
            f"{totals['dollars'] / totals['answers']:.4f}"
            if totals["answers"] else "-"
        )
        rows.append((
            f"**total ({len(runs)} runs)**", "",
            f"{totals['seconds']:.1f}",
            f"{totals['machine_seconds']:.0f}",
            f"{totals['gb']:.2f}",
            f"{totals['gbh']:.3f}",
            f"{totals['recovery']:.1f}",
            f"{totals['dollars']:.4f}",
            per_answer,
        ))
    return _table(header, rows)


def _render_hot_spans(
    heading: str,
    owned_spans: Iterable[Tuple[str, Sequence[dict]]],
    top: int,
    owner: str = "",
    fmt: str = ".1f",
) -> List[str]:
    """A hot-span table, led by a blank line; ``[]`` without spans.

    ``heading`` holds ``{n}`` for the row count; ``owner`` names the
    owner column (none when empty); ``fmt`` formats the seconds.
    """
    ranked = hot_span_rows(owned_spans, top)
    if not ranked:
        return []
    header = ("span", "count", "self s", "share", "total s")
    rows = [
        (label, str(count), format(self_time, fmt),
         f"{share * 100:.1f}%", format(total, fmt))
        for _, label, count, self_time, share, total in ranked
    ]
    if owner:
        header = (owner,) + header
        rows = [(entry[0],) + row for entry, row in zip(ranked, rows)]
    return ["", f"### {heading.format(n=len(ranked))}", ""] + _table(
        header, rows)


def _render_schedulers(
    schedulers: Sequence[SchedulerRow], top: int
) -> List[str]:
    lines = ["### Scheduler", ""]
    for row in schedulers:
        lines.append(
            f"- {row.cells} cells · {row.cache_hits} cached · "
            f"{row.executed} executed · {row.retries} retries · "
            f"jobs={row.jobs}"
        )
        cost = row.cost
        if cost.get("dollars"):
            answers = cost.get("answers", 0.0)
            per = (f" · ${cost['dollars'] / answers:.4f}/answer"
                   if answers else "")
            lines.append(
                f"  grid cost ${cost['dollars']:.4f} · "
                f"{cost['machine_seconds']:.0f} machine-s · "
                f"{cost['gb_shuffled']:.2f} GB shuffled · "
                f"{cost['memory_gb_hours']:.3f} mem GB-h · "
                f"{answers:.0f} answers{per}"
            )
        if cost.get("recovery_seconds"):
            lines.append(
                f"  chaos recovery {cost['recovery_seconds']:.1f} s "
                f"simulated (priced inside the machine-second bill)"
            )
        lines.append(f"  grid wall {row.host_seconds:.4f} s (host clock)")
    return lines + _render_hot_spans(
        "Scheduler spans (top {n} by self time, host clock)",
        (("", row.spans) for row in schedulers), top, fmt=".4f",
    )


def _render_servers(servers: Sequence[ServerRow], top: int) -> List[str]:
    lines = ["### Serving", ""]
    for row in servers:
        lines.append(
            f"- {row.address}: {row.jobs} jobs from {row.clients} clients · "
            f"{row.cells} cells ({row.cache_hits} cached, "
            f"{row.executed} executed, hit-rate "
            f"{row.cache_hit_rate:.2f}) · {row.rejected} rejected · "
            f"p50 {row.p50_latency * 1000:.0f} ms · "
            f"p99 {row.p99_latency * 1000:.0f} ms · "
            f"${row.dollars:.4f}"
        )
        # resilience counters only earn a line once they fire
        pressure = []
        if row.shed:
            pressure.append(f"{row.shed} shed under queue pressure")
        if row.deadline_expired:
            pressure.append(f"{row.deadline_expired} deadline-expired")
        if row.evictions:
            pressure.append(f"{row.evictions} cache evictions")
        if pressure:
            lines.append("  " + " · ".join(pressure))
    billed = [row for row in servers if row.per_client]
    if billed:
        lines += [""]
        rows = []
        for i, row in enumerate(billed):
            for client in sorted(row.per_client):
                account = row.per_client[client]
                rows.append((
                    str(i) if len(billed) > 1 else "",
                    client,
                    f"{float(account.get('jobs', 0.0)):.0f}",
                    f"{float(account.get('cells', 0.0)):.0f}",
                    f"{float(account.get('dollars', 0.0)):.4f}",
                ))
        header = ("#", "client", "jobs", "cells", "$")
        if len(billed) == 1:
            header = header[1:]
            rows = [row[1:] for row in rows]
        lines += _table(header, rows)
    return lines + _render_hot_spans(
        "Server spans (top {n} by self time, host clock)",
        (("", row.spans) for row in servers), top, fmt=".4f",
    )


def _bench_field(record: dict, name: str) -> Optional[float]:
    value = record.get(name)
    if value is None and name == "speedup_warm":
        value = record.get("speedup_warm_cache")
    return None if value is None else float(value)


def _render_serve_benches(benches: Sequence[dict]) -> List[str]:
    lines = ["### Serve bench records", ""]
    header = ("#", "clients", "jobs", "cells", "hit-rate", "p50 ms",
              "p99 ms", "$", "bit-equal")
    rows = []
    for i, record in enumerate(benches):
        def ms(name: str) -> str:
            value = record.get(name)
            return "-" if value is None else f"{float(value) * 1000:.0f}"

        dollars = record.get("cost_dollars")
        hit_rate = record.get("cache_hit_rate")
        rows.append((
            str(i),
            str(record.get("clients", "-")),
            str(record.get("jobs", "-")),
            str(record.get("cells", "-")),
            "-" if hit_rate is None else f"{float(hit_rate):.2f}",
            ms("p50_latency"),
            ms("p99_latency"),
            "-" if dollars is None else f"{float(dollars):.2f}",
            str(record.get("bit_equal_spotcheck", "-")),
        ))
    lines += _table(header, rows)
    return lines


def _render_benches(benches: Sequence[dict]) -> List[str]:
    serve = [b for b in benches if b.get("bench") == "serve"]
    benches = [b for b in benches if b.get("bench") != "serve"]
    if not benches:
        return _render_serve_benches(serve)
    lines = ["### Bench records", ""]
    header = ("#", "schema", "cells", "jobs", "jobs1 s", "cold s",
              "warm s", "par x", "warm x")
    rows = []
    for i, record in enumerate(benches):
        modes = record.get("modes", {})

        def mode_seconds(name: str) -> str:
            seconds = modes.get(name, {}).get("seconds")
            return "-" if seconds is None else f"{float(seconds):.2f}"

        par = _bench_field(record, "speedup_parallel")
        warm = _bench_field(record, "speedup_warm")
        rows.append((
            str(i),
            str(record.get("schema_version", 1)),
            str(record.get("cells", "-")),
            str(record.get("jobs", "-")),
            mode_seconds("jobs1"),
            mode_seconds("jobsN_cold"),
            mode_seconds("jobsN_warm"),
            "-" if par is None else f"{par:.2f}",
            "-" if warm is None else f"{warm:.2f}",
        ))
    lines += _table(header, rows)
    if serve:
        lines += [""] + _render_serve_benches(serve)
    return lines


def render_report(sources: Sequence[PerfSource], top: int = 10) -> str:
    """The deterministic Markdown report for one or many inputs."""
    lines = ["# Perf & cost report"]
    for source in sources:
        lines += ["", f"## {source.label}"]
        if source.runs:
            lines += [""] + _render_grid(source.runs)
            lines += ["", "### Cost per run", ""] + _render_runs(source.runs)
            lines += _render_hot_spans(
                "Hot spans (top {n} by self time, simulated)",
                ((row.system, row.spans) for row in source.runs), top,
                owner="engine",
            )
        if source.schedulers:
            lines += [""] + _render_schedulers(source.schedulers, top)
        if source.servers:
            lines += [""] + _render_servers(source.servers, top)
        if source.benches:
            lines += [""] + _render_benches(source.benches)
    return "\n".join(lines)


# -- the regression gate ----------------------------------------------------

@dataclass
class DiffEntry:
    """One metric that moved (or a status flip) between two inputs."""

    key: str
    metric: str
    before: str
    after: str
    #: relative change ((after - before) / before); None for status flips
    change: Optional[float]
    regression: bool

    def render(self) -> str:
        arrow = "REGRESSION" if self.regression else "improvement"
        change = "" if self.change is None else f" ({self.change:+.1%})"
        return (f"{self.key} · {self.metric}: {self.before} -> "
                f"{self.after}{change} [{arrow}]")


@dataclass
class PerfDiff:
    """The outcome of comparing two inputs run-by-run."""

    label_a: str
    label_b: str
    threshold: float
    cost_threshold: float
    entries: List[DiffEntry] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    compared_runs: int = 0
    compared_benches: int = 0
    compared_servers: int = 0

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.regression]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if not e.regression]

    @property
    def exit_code(self) -> int:
        """Non-zero iff a threshold-crossing regression exists (CI gate)."""
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [
            f"# Perf diff — {self.label_a} vs {self.label_b}",
            "",
            f"compared {self.compared_runs} runs, "
            f"{self.compared_benches} bench records"
            + (f", {self.compared_servers} server journals"
               if self.compared_servers else "")
            + f" · time threshold ±{self.threshold:.1%} · cost threshold "
            f"±{self.cost_threshold:.1%}",
        ]
        regressions = self.regressions
        improvements = self.improvements
        if regressions:
            lines += ["", f"REGRESSIONS ({len(regressions)}):"]
            lines += [f"  {entry.render()}" for entry in regressions]
        else:
            lines += ["", "no regressions"]
        if improvements:
            lines += ["", f"improvements ({len(improvements)}):"]
            lines += [f"  {entry.render()}" for entry in improvements]
        if self.missing:
            lines += ["", f"missing in {self.label_b}:"]
            lines += [f"  {key}" for key in self.missing]
        if self.added:
            lines += ["", f"only in {self.label_b}:"]
            lines += [f"  {key}" for key in self.added]
        return "\n".join(lines)


def _compare(
    diff: PerfDiff,
    key: str,
    metric: str,
    before: float,
    after: float,
    threshold: float,
    worse: str = "higher",
    fmt: str = ".4f",
) -> None:
    """Append a diff entry when the relative change crosses the threshold."""
    if before <= 0.0 and after <= 0.0:
        return
    base = before if before > 0.0 else after
    change = (after - before) / base
    if abs(change) <= threshold:
        return
    regression = change > 0 if worse == "higher" else change < 0
    diff.entries.append(DiffEntry(
        key=key,
        metric=metric,
        before=format(before, fmt),
        after=format(after, fmt),
        change=change,
        regression=regression,
    ))


def diff_sources(
    a: PerfSource,
    b: PerfSource,
    threshold: float = 0.05,
    cost_threshold: Optional[float] = None,
) -> PerfDiff:
    """Compare two inputs; ``b`` regressing past a threshold gates CI.

    Runs pair by coordinate key, bench records and server journals by
    position. Time, dollars, and serving latency percentiles regress
    when they *rise* by more than the relative threshold; speedups and
    the serving cache hit-rate regress when they *fall*. A run that
    completed in ``a`` but failed in ``b`` is always a regression.
    """
    diff = PerfDiff(
        label_a=a.label,
        label_b=b.label,
        threshold=threshold,
        cost_threshold=threshold if cost_threshold is None else cost_threshold,
    )
    amap = {row.key: row for row in a.runs}
    bmap = {row.key: row for row in b.runs}
    diff.missing = [key for key in amap if key not in bmap]
    diff.added = [key for key in bmap if key not in amap]
    for key in amap:
        if key not in bmap:
            continue
        ra, rb = amap[key], bmap[key]
        diff.compared_runs += 1
        if ra.status != rb.status:
            diff.entries.append(DiffEntry(
                key=key, metric="status", before=ra.status, after=rb.status,
                change=None,
                regression=(ra.status == "ok" and rb.status != "ok"),
            ))
        _compare(diff, key, "total seconds", ra.total_seconds,
                 rb.total_seconds, threshold, fmt=".1f")
        if ra.cost is not None and rb.cost is not None:
            _compare(diff, key, "dollars", float(ra.cost["dollars"]),
                     float(rb.cost["dollars"]), diff.cost_threshold)
    for i, (sa, sb) in enumerate(zip(a.servers, b.servers)):
        key = f"server[{i}]"
        diff.compared_servers += 1
        _compare(diff, key, "p50 latency seconds", sa.p50_latency,
                 sb.p50_latency, threshold, fmt=".4f")
        _compare(diff, key, "p99 latency seconds", sa.p99_latency,
                 sb.p99_latency, threshold, fmt=".4f")
        _compare(diff, key, "cache hit-rate", sa.cache_hit_rate,
                 sb.cache_hit_rate, threshold, worse="lower", fmt=".3f")
        _compare(diff, key, "dollars", sa.dollars, sb.dollars,
                 diff.cost_threshold)
    for i, (ba, bb) in enumerate(zip(a.benches, b.benches)):
        key = f"bench:{ba.get('bench', '?')}[{i}]"
        diff.compared_benches += 1
        if ba.get("bench") == "serve" or bb.get("bench") == "serve":
            for name, worse, gate in (
                ("p50_latency", "higher", threshold),
                ("p99_latency", "higher", threshold),
                ("cache_hit_rate", "lower", threshold),
                ("cost_dollars", "higher", diff.cost_threshold),
            ):
                va, vb = ba.get(name), bb.get(name)
                if va is None or vb is None:
                    continue
                _compare(diff, key, name, float(va), float(vb), gate,
                         worse=worse)
            continue
        modes_a = ba.get("modes", {})
        modes_b = bb.get("modes", {})
        for mode in sorted(set(modes_a) & set(modes_b)):
            sa = modes_a[mode].get("seconds")
            sb = modes_b[mode].get("seconds")
            if sa is None or sb is None:
                continue
            _compare(diff, key, f"{mode} seconds", float(sa), float(sb),
                     threshold, fmt=".2f")
        for name in ("speedup_parallel", "speedup_warm"):
            va = _bench_field(ba, name)
            vb = _bench_field(bb, name)
            if va is None or vb is None:
                continue
            _compare(diff, key, name, va, vb, threshold, worse="lower",
                     fmt=".2f")
    return diff
