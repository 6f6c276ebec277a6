"""Journal exporters: Chrome trace, per-superstep CSV, terminal summary.

Three consumers of the same event stream (§4.2's offline analysis,
translated):

* :func:`chrome_trace` — Chrome ``trace_event`` JSON that loads in
  Perfetto or ``chrome://tracing``; spans become complete events on the
  simulated-microsecond timeline.
* :func:`write_superstep_csv` — one row per superstep for the bench
  harness (the per-iteration series behind Table 6 and Figure 10).
* :func:`render_summary` / :func:`one_line_summary` — the terminal
  views: a run journal's phase timeline with the hottest spans, and
  the single diagnosable line ``repro run``/``repro grid`` print by
  default.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from .journal import Journal
from .report import hot_span_rows

__all__ = [
    "chrome_trace",
    "write_chrome",
    "SUPERSTEP_COLUMNS",
    "superstep_rows",
    "write_superstep_csv",
    "render_summary",
    "one_line_summary",
]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _fmt_bytes(nbytes: float) -> str:
    for unit, size in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if nbytes >= size:
            return f"{nbytes / size:.1f} {unit}"
    return f"{nbytes:.0f} B"


def _fmt_count(count: float) -> str:
    if count >= 1e6:
        return f"{count / 1e6:.1f}M"
    if count >= 1e3:
        return f"{count / 1e3:.1f}K"
    return f"{count:.0f}"


# -- Chrome trace_event ----------------------------------------------------

def chrome_trace(journal: Journal) -> dict:
    """The journal as a Chrome ``trace_event`` object.

    Spans become complete ("X") events with microsecond timestamps on
    the *simulated* timeline; run metadata rides along in ``otherData``.
    """
    meta = journal.meta
    label = (
        f"{meta.get('system', '?')} {meta.get('workload', '?')}/"
        f"{meta.get('dataset', '?')}@{meta.get('machines', '?')}"
    )
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": label}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "simulated cluster"}},
    ]
    for span in journal.spans():
        events.append({
            "name": span["name"],
            "cat": span.get("cat") or "span",
            "ph": "X",
            "ts": span["ts"] * 1e6,
            "dur": span["dur"] * 1e6,
            "pid": 1,
            "tid": 1,
            "args": span.get("args", {}),
        })
    other = {k: v for k, v in meta.items() if k != "type"}
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_chrome(journal: Journal, path: Union[str, Path]) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    trace = chrome_trace(journal)
    Path(path).write_text(
        json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="ascii",
    )
    return len(trace["traceEvents"])


# -- per-superstep CSV -----------------------------------------------------

SUPERSTEP_COLUMNS = (
    "iteration",
    "start_s",
    "duration_s",
    "active_vertices",
    "messages",
    "updates",
    "bytes_shuffled",
    "peak_memory_bytes",
)


def superstep_rows(journal: Journal) -> List[Dict[str, float]]:
    """One dict per superstep span, in execution order."""
    rows = []
    for span in journal.supersteps():
        args = span.get("args", {})
        rows.append({
            "iteration": args.get("iteration", 0),
            "start_s": span["ts"],
            "duration_s": span["dur"],
            "active_vertices": args.get("active_vertices", 0),
            "messages": args.get("messages", 0),
            "updates": args.get("updates", 0),
            "bytes_shuffled": args.get("bytes_shuffled", 0.0),
            "peak_memory_bytes": args.get("peak_memory_bytes", 0.0),
        })
    return rows


def write_superstep_csv(journal: Journal, path: Union[str, Path]) -> int:
    """Write the per-superstep series as CSV; returns the row count."""
    rows = superstep_rows(journal)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUPERSTEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


# -- terminal views --------------------------------------------------------

def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_summary(journal: Journal, top: int = 5) -> str:
    """A run journal's terminal timeline: phases, supersteps, hot spans.

    Scheduler and server journals render through
    :func:`repro.obs.report.render_report` instead.
    """
    meta = journal.meta
    spans = journal.spans()
    run_spans = [s for s in spans if s.get("cat") == "run"]
    total = run_spans[0]["dur"] if run_spans else sum(
        s["dur"] for s in spans if s.get("parent") is None
    )
    status = meta.get("status", "?")
    lines = [
        f"{meta.get('system', '?')} {meta.get('workload', '?')}/"
        f"{meta.get('dataset', '?')}@{meta.get('machines', '?')} — "
        f"{status} · total {_fmt_seconds(total)} (simulated)"
    ]
    for span in spans:
        if span.get("cat") != "phase":
            continue
        share = span["dur"] / total if total > 0 else 0.0
        lines.append(
            f"  {span['name']:<9s} {_bar(share)} "
            f"{_fmt_seconds(span['dur']):>8s}  {share * 100:4.1f}%"
        )
    steps = journal.supersteps()
    if steps:
        durs = [s["dur"] for s in steps]
        lines.append(
            f"  supersteps: {len(steps)} · per-superstep "
            f"{_fmt_seconds(min(durs))}/{_fmt_seconds(sum(durs) / len(durs))}/"
            f"{_fmt_seconds(max(durs))} (min/mean/max)"
        )
    shuffled = journal.scalar("bytes_shuffled")
    messages = journal.scalar("messages_sent")
    if shuffled or messages:
        lines.append(
            f"  shuffled {_fmt_bytes(shuffled)} · "
            f"{_fmt_count(messages)} messages"
        )
    cost = journal.cost()
    if cost is not None:
        per = cost.get("dollars_per_answer")
        lines.append(
            f"  cost ${cost['dollars']:.4f} · "
            f"{cost['machine_seconds']:.0f} machine-s · "
            f"{cost['memory_gb_hours']:.3f} mem GB-h"
            + (f" · ${per:.4f}/answer" if per is not None else
               " · no answer (failure billed, nothing earned)")
        )
    hot = hot_span_rows([("", spans)], top)
    if hot:
        lines.append(f"  top {len(hot)} spans by self time:")
        for _, label, count, self_time, _, span_total in hot:
            share = self_time / total if total > 0 else 0.0
            lines.append(
                f"    {label:<24s} x{count:<5d} self {_fmt_seconds(self_time):>8s}"
                f" ({share * 100:4.1f}%) · total {_fmt_seconds(span_total)}"
            )
    return "\n".join(lines)


def one_line_summary(result) -> str:
    """The always-on diagnosis line for ``repro run``/``repro grid``.

    Works from a :class:`~repro.engines.base.RunResult` alone (duck
    typed to avoid an import cycle), so it costs nothing when tracing
    was not requested.
    """
    phases = (
        ("load", result.load_time),
        ("execute", result.execute_time),
        ("save", result.save_time),
        ("overhead", result.overhead_time),
    )
    name, seconds = max(phases, key=lambda p: p[1])
    parts = [
        f"slowest phase {name} ({_fmt_seconds(seconds)} of "
        f"{_fmt_seconds(result.total_time)})",
        f"{result.iterations} supersteps",
    ]
    try:
        parts.append(f"{_fmt_bytes(result.metrics.value('bytes_shuffled'))} shuffled")
    except KeyError:
        pass
    if not result.ok:
        parts.append(f"failed: {result.failure}")
    return "spans: " + " · ".join(parts)
