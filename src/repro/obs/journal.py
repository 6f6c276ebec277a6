"""The run journal: one JSONL event stream per simulated experiment.

The paper kept "more than 20 GB of log files" and derived every
resource figure from them offline (§1, §4.2). A journal is this
reproduction's equivalent: a compact, deterministic event stream that
captures a run's full story — metadata, the span tree, and the final
metrics — so "which superstep shuffled the most bytes" is a question
for a file, not a debugger.

Determinism is a contract: timestamps are simulated seconds, span ids
are sequential, keys are sorted, and floats serialize via ``repr`` —
running the same seeded cell twice produces byte-identical journals
(the guard test in ``tests/test_obs.py`` holds this line).

Line format, one JSON object per line::

    {"type": "meta",   "system": "BV", "workload": "pagerank", ...}
    {"type": "span",   "id": 1, "parent": null, "name": "run",
     "cat": "run", "ts": 0.0, "dur": 123.4, "args": {...}}
    {"type": "metric", "kind": "counter", "name": "bytes_shuffled",
     "value": 1.2e9}
    {"type": "metric", "kind": "histogram", "name": "superstep_seconds",
     "count": 30, "sum": 98.7, "min": 1.2, "max": 9.8, "mean": 3.29}
    {"type": "cost",   "schema": 1, "machines": 16, "dollars": 0.81, ...}

The ``cost`` event is the run's resource bill (see
:mod:`repro.obs.cost`), appended as the final record of every engine
run's journal; streams without run billing metadata (the scheduler's
host-clock journal) carry none.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from .cost import cost_event_from_events
from .metrics import Histogram, MetricsRegistry
from .spans import Tracer

__all__ = [
    "JournalError", "Journal", "build_journal", "canonical_json",
    "write_atomic",
]

#: bump when the event schema changes incompatibly
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal file is missing, malformed, or not a journal."""


#: Canonical JSON — sorted keys, no whitespace: determinism's half. One
#: encoder for every journal line and cache entry; its output is what
#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` returns,
#: without building a new encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def write_atomic(target: Path, text: str) -> None:
    """Write ``text`` via a temp file renamed into place."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, target)


class Journal:
    """An in-memory event stream, readable and writable as JSONL."""

    def __init__(self, events: List[dict]) -> None:
        self.events = events

    # -- building ---------------------------------------------------------

    @classmethod
    def read(cls, path: Union[str, Path]) -> "Journal":
        """Load a JSONL journal; raises :class:`JournalError` when invalid."""
        try:
            text = Path(path).read_text(encoding="ascii")
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise JournalError(f"{path} is not a text journal: {exc}") from exc
        return cls.loads(text, source=str(path))

    @classmethod
    def loads(cls, text: str, source: str = "<string>") -> "Journal":
        """Parse journal text (the inverse of :meth:`dumps`).

        Canonical dumps round-trip exactly: ``Journal.loads(t).dumps()``
        equals ``t`` whenever ``t`` came from :meth:`dumps` (JSON float
        repr is reversible), which is what lets cached cells replay
        byte-identical journals.
        """
        path = source
        events = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"{path}:{lineno}: not JSON ({exc.msg})"
                ) from exc
            if not isinstance(event, dict) or "type" not in event:
                raise JournalError(
                    f"{path}:{lineno}: journal events need a 'type' field"
                )
            events.append(event)
        if not events or events[0].get("type") != "meta":
            raise JournalError(f"{path}: journals start with a meta event")
        return cls(events)

    def dumps(self) -> str:
        """The canonical JSONL text (what :meth:`write` puts on disk)."""
        return "\n".join(map(canonical_json, self.events)) + "\n"

    def write(self, path: Union[str, Path]) -> int:
        """Write the canonical JSONL form; returns lines written.

        The write is atomic (temp file + rename in the target
        directory): a reader — or a concurrent grid writing per-cell
        journals — never observes a torn journal.
        """
        write_atomic(Path(path), self.dumps())
        return len(self.events)

    # -- accessors --------------------------------------------------------

    @property
    def meta(self) -> Dict[str, object]:
        """The run's metadata event (always first)."""
        for event in self.events:
            if event.get("type") == "meta":
                return event
        return {"type": "meta"}

    def spans(self) -> List[dict]:
        """Span events in (ts, id) order."""
        return [e for e in self.events if e.get("type") == "span"]

    def metric_events(self) -> List[dict]:
        """Metric events in name order."""
        return [e for e in self.events if e.get("type") == "metric"]

    def supersteps(self) -> List[dict]:
        """The superstep-level spans, in execution order."""
        return [e for e in self.spans() if e.get("name") == "superstep"]

    def cost(self) -> Optional[dict]:
        """The run's cost event (its final record), or ``None``."""
        for event in self.events:
            if event.get("type") == "cost":
                return event
        return None

    def scalar(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge's final value, or ``default``."""
        for event in self.metric_events():
            if event.get("name") == name and event.get("kind") != "histogram":
                return float(event["value"])
        return default

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        meta = self.meta
        return (
            f"Journal({meta.get('system')} {meta.get('workload')}/"
            f"{meta.get('dataset')}: {len(self.events)} events)"
        )


def build_journal(
    meta: Dict[str, object],
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
) -> Journal:
    """Assemble the canonical event stream for one finished run.

    Only closed spans are journaled; an open span at build time means a
    code path failed to unwind its tracer and is worth surfacing.
    """
    if tracer.open_depth:
        raise JournalError(
            f"cannot journal a run with {tracer.open_depth} open span(s); "
            f"innermost is {tracer.current.name!r}"  # type: ignore[union-attr]
        )
    events: List[dict] = [dict(meta, type="meta", version=JOURNAL_VERSION)]
    for span in tracer.finished():
        events.append({
            "type": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "cat": span.cat,
            "ts": span.start,
            "dur": span.duration,
            "args": span.attrs,
        })
    if metrics is not None:
        for name in metrics.scalar_names():
            metric = metrics.get(name)
            events.append({
                "type": "metric",
                "kind": getattr(metric, "kind", "gauge"),
                "name": name,
                "value": metrics.value(name),
            })
        for hist in metrics.histograms():
            event: Dict[str, object] = {
                "type": "metric",
                "kind": Histogram.kind,
                "name": hist.name,
            }
            event.update(hist.summary())
            events.append(event)
    # The resource bill rides last: a pure function of the events above,
    # so journal byte-determinism carries over to it for free. Non-run
    # streams (no machines/total_time in meta) get none.
    cost = cost_event_from_events(events)
    if cost is not None:
        events.append(cost)
    return Journal(events)
