"""repro.obs: span tracing, metrics, and run journals for the simulation.

The observability layer the paper's methodology implies (§4.2: per-
second resource logs on every machine, analysed offline): every run can
produce a deterministic JSONL journal of nested simulated-clock spans
(run → phase → superstep → shuffle/compute/barrier) plus a typed
metrics registry, exportable as a Chrome/Perfetto trace, a terminal
timeline, or a per-superstep CSV.

Two invariants hold the layer honest:

* **Simulated clock only.** Spans read the cluster clock; recording a
  trace can never change a result (same seed → byte-identical journal).
* **One wall-clock door.** Profiling the simulator itself goes through
  :mod:`repro.obs.hostclock`, the single module RPL001 allowlists.
"""

from .cost import (
    CostModel,
    CostReport,
    DEFAULT_COST_MODEL,
    aggregate_costs,
    cost_event_from_events,
    cost_report_from_events,
)
from .hostclock import HostTimer, host_now, host_sleep
from .journal import Journal, JournalError, build_journal
from .metrics import (
    Counter,
    ExtrasView,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    fold_sum,
)
from .observation import FrozenJournalObservation, RunObservation
from .report import (
    PerfDiff,
    PerfSource,
    ReportError,
    classify_path,
    diff_sources,
    load_source,
    render_report,
)
from .export import (
    chrome_trace,
    one_line_summary,
    render_summary,
    superstep_rows,
    write_chrome,
    write_superstep_csv,
)
from .spans import Span, SpanError, Tracer

__all__ = [
    "Span",
    "SpanError",
    "Tracer",
    "fold_sum",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "ExtrasView",
    "RunObservation",
    "FrozenJournalObservation",
    "Journal",
    "JournalError",
    "build_journal",
    "CostModel",
    "CostReport",
    "DEFAULT_COST_MODEL",
    "aggregate_costs",
    "cost_event_from_events",
    "cost_report_from_events",
    "chrome_trace",
    "write_chrome",
    "superstep_rows",
    "write_superstep_csv",
    "render_summary",
    "one_line_summary",
    "PerfDiff",
    "PerfSource",
    "ReportError",
    "classify_path",
    "diff_sources",
    "load_source",
    "render_report",
    "HostTimer",
    "host_now",
    "host_sleep",
]
