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

A run journal holds tens of spans per superstep, so
:func:`build_journal` renders each span line straight from the span's
slots: one f-string, with the ``args`` dict through one persistent C
encoder, and no event dict in between. The line is byte-equal to
:data:`canonical_json` of the event (``tests/test_journal_render.py``
holds this line). The cost event's spilled bytes are folded in the same
pass. Such a journal keeps its text; its :attr:`Journal.events` are
parsed from the text only when someone reads them.
"""

from __future__ import annotations

import json
import os
from json.decoder import scanstring
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Union

from .cost import STORAGE_SPANS, cost_report
from .metrics import Histogram, MetricsRegistry
from .spans import Tracer

__all__ = [
    "JournalError", "Journal", "build_journal", "canonical_json",
    "write_atomic",
]

#: bump when the event schema changes incompatibly
JOURNAL_VERSION = 1

#: how every counter's metric line starts in a canonical journal (keys
#: sort ``kind`` first; a span line starts ``{"args"``, the meta line
#: is the first)
_COUNTER_LINE = '\n{"kind":"counter","name":"'


class JournalError(ValueError):
    """A journal file is missing, malformed, or not a journal."""


#: Canonical JSON — sorted keys, no whitespace: determinism's half. One
#: encoder for every journal line and cache entry; its output is what
#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` returns,
#: without building a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
canonical_json = _CANONICAL.encode

#: ``canonical_json``'s C encoder, built once: ``encode`` makes a new one
#: per call. Span args are flat dicts of scalars, so the circular-reference
#: markers are off.
_encode_chunks = c_make_encoder(
    None, _CANONICAL.default, encode_basestring_ascii, None,
    _CANONICAL.key_separator, _CANONICAL.item_separator,
    True, False, True,
)


def _number(value: object) -> str:
    """A timestamp's JSON text: ``repr`` for an int or a finite built-in
    float, :data:`canonical_json` for anything else (numpy scalars, NaN,
    infinities, bools)."""
    if type(value) is int or (type(value) is float and value - value == 0.0):
        return repr(value)
    return canonical_json(value)


def write_atomic(target: Path, text: str) -> None:
    """Write ``text`` via a temp file renamed into place."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, target)


class Journal:
    """An in-memory event stream, readable and writable as JSONL.

    A journal is built either from its events (:meth:`loads`, tests) or
    from its canonical text (:func:`build_journal`, or a cell payload's
    ``journal`` field); the other form is made on first use. Either way
    it is not edited once built. A finished run's
    ``RunResult.observation`` is such a text journal: :attr:`meta`,
    :meth:`cost` and :meth:`counter_names` read its lines without
    parsing the whole stream.
    """

    def __init__(self, events: Optional[List[dict]] = None,
                 text: Optional[str] = None) -> None:
        if events is None and text is None:
            raise ValueError("a journal needs its events or its text")
        self._events = events
        self._text = text

    @property
    def events(self) -> List[dict]:
        """The events, in stream order (parsed from the text on first read)."""
        if self._events is None:
            self._events = json.loads(
                "[" + ",".join(self._text.splitlines()) + "]"  # type: ignore[union-attr]
            )
        return self._events

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
        if self._text is None:
            self._text = "\n".join(map(canonical_json, self._events)) + "\n"  # type: ignore[arg-type]
        return self._text

    def write(self, path: Union[str, Path]) -> int:
        """Write the canonical JSONL form; returns lines written.

        The write is atomic (temp file + rename in the target
        directory): a reader — or a concurrent grid writing per-cell
        journals — never observes a torn journal.
        """
        write_atomic(Path(path), self.dumps())
        return len(self)

    # -- accessors --------------------------------------------------------

    @property
    def meta(self) -> Dict[str, object]:
        """The run's metadata event (always first).

        While the events are unparsed, only the first line is read.
        """
        if self._events is None:
            text = self._text
            return json.loads(text[:text.index("\n")])  # type: ignore[union-attr]
        for event in self._events:
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
        """The run's cost event (its final record), or ``None``.

        While the events are unparsed, only the last line is read.
        """
        if self._events is None:
            text = self._text
            last = json.loads(text[text.rfind("\n", 0, -1) + 1:])  # type: ignore[union-attr]
            return last if last.get("type") == "cost" else None
        for event in self._events:
            if event.get("type") == "cost":
                return event
        return None

    def counter_names(self) -> FrozenSet[str]:
        """The names of the run's counters, read off their metric lines."""
        text = self._text if self._text is not None else self.dumps()
        names = set()
        at = text.find(_COUNTER_LINE)
        while at >= 0:
            name, end = scanstring(text, at + len(_COUNTER_LINE))
            names.add(name)
            at = text.find(_COUNTER_LINE, end)
        return frozenset(names)

    def scalar(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge's final value, or ``default``."""
        for event in self.metric_events():
            if event.get("name") == name and event.get("kind") != "histogram":
                return float(event["value"])
        return default

    def __len__(self) -> int:
        if self._events is None:
            return self._text.count("\n")  # type: ignore[union-attr]
        return len(self._events)

    def __repr__(self) -> str:
        meta = self.meta
        return (
            f"Journal({meta.get('system')} {meta.get('workload')}/"
            f"{meta.get('dataset')}: {len(self)} events)"
        )


def build_journal(
    meta: Dict[str, object],
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
) -> Journal:
    """Render the canonical event stream for one finished run.

    Only closed spans are journaled; an open span at build time means a
    code path failed to unwind its tracer and is worth surfacing.
    """
    if tracer.open_depth:
        raise JournalError(
            f"cannot journal a run with {tracer.open_depth} open span(s); "
            f"innermost is {tracer.current.name!r}"  # type: ignore[union-attr]
        )
    meta_event = dict(meta, type="meta", version=JOURNAL_VERSION)
    lines = [canonical_json(meta_event)]
    append = lines.append
    spilled = 0.0
    # Each line is canonical_json of the span's event dict
    # {"type": "span", "id", "parent", "name", "cat", "ts", "dur",
    # "args"}, keys in sorted order.
    for span in tracer.finished():
        name = span.name
        attrs = span.attrs
        if name in STORAGE_SPANS:
            spilled += float(attrs.get("bytes", 0.0))
        start = span.start
        dur = span.end - start  # type: ignore[operator]
        parent = span.parent
        append(
            f'{{"args":{"".join(_encode_chunks(attrs, 0))},'
            f'"cat":{encode_basestring_ascii(span.cat)},'
            f'"dur":{_number(dur)},"id":{span.id},'
            f'"name":{encode_basestring_ascii(name)},'
            f'"parent":{"null" if parent is None else parent},'
            f'"ts":{_number(start)},"type":"span"}}'
        )
    scalars: Dict[str, float] = {}
    if metrics is not None:
        for name in metrics.scalar_names():
            metric = metrics.get(name)
            value = metrics.value(name)
            scalars[name] = float(value)
            append(canonical_json({
                "type": "metric",
                "kind": getattr(metric, "kind", "gauge"),
                "name": name,
                "value": value,
            }))
        for hist in metrics.histograms():
            event: Dict[str, object] = {
                "type": "metric",
                "kind": Histogram.kind,
                "name": hist.name,
            }
            event.update(hist.summary())
            append(canonical_json(event))
    # The resource bill rides last: a pure function of the stream above
    # (the spilled bytes were folded in span order), so journal
    # byte-determinism carries over to it for free. Non-run streams (no
    # machines/total_time in meta) get none.
    cost = cost_report(meta_event, scalars, spilled)
    if cost is not None:
        append(canonical_json(cost.to_event()))
    append("")
    return Journal(text="\n".join(lines))
