"""Journal lines are rendered straight from spans, byte-equal to events.

``build_journal`` writes each span line with one f-string from the
span's slots instead of building an event dict and encoding it, and
folds the cost event's spilled bytes in the same pass. These tests hold
every line to ``canonical_json`` of the event dict it stands for, for
any span args a run can carry and numpy timestamps; check that every
journaled span opened through ``Tracer.start`` exactly once (what the
benchmark's ``obs.spans.calls`` counts); that a run failing in its
first superstep journals the metric lines it always did; and that a
result rebuilt from its payload keeps its metric kinds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runner import run_cell
from repro.datasets.registry import load_dataset
from repro.exec.serialize import payload_to_result, result_to_payload
from repro.obs import MetricsRegistry, Span, Tracer, cost_event_from_events
from repro.obs.journal import JOURNAL_VERSION, build_journal, canonical_json
from repro.obs.spans import SpanScope


def reference_events(meta, tracer, metrics=None):
    """The journal's events as dicts, the way they were built before
    lines were rendered from spans."""
    events = [dict(meta, type="meta", version=JOURNAL_VERSION)]
    for span in tracer.finished():
        events.append({
            "type": "span", "id": span.id, "parent": span.parent,
            "name": span.name, "cat": span.cat, "ts": span.start,
            "dur": span.duration, "args": span.attrs,
        })
    if metrics is not None:
        for name in metrics.scalar_names():
            events.append({
                "type": "metric", "kind": metrics.get(name).kind,
                "name": name, "value": metrics.value(name),
            })
        for hist in metrics.histograms():
            events.append(dict(hist.summary(), type="metric",
                               kind="histogram", name=hist.name))
    cost = cost_event_from_events(events)
    if cost is not None:
        events.append(cost)
    return events


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = (
    st.integers() | st.booleans() | _finite
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310])
    | _finite.map(np.float64)
)
_arg = _number | st.text() | st.sampled_from(["déjà vu", "日本語", "💥", "\x00"])
_time = (st.floats(min_value=0, max_value=1e9)
         | st.floats(min_value=0, max_value=1e9).map(np.float64)
         | st.integers(min_value=0, max_value=10**6))
_name = st.sampled_from(["run", "superstep", "shuffle", "hdfs_read",
                         "hdfs_write", "disk_read", "disk_write", "ü-step"])
_span = st.tuples(
    _name,
    st.sampled_from(["", "cluster", "phase", "bsp", "ガス"]),
    _time, _time,
    st.dictionaries(st.sampled_from(["iteration", "seconds", "label", "é"]),
                    _arg, max_size=4),
    _number,
)


def tracer_of(specs, parents):
    """A tracer holding closed spans built from hypothesis specs."""
    tracer = Tracer()
    for index, (name, cat, start, length, attrs, spilled) in enumerate(specs):
        attrs = dict(attrs)
        if name.startswith(("hdfs", "disk")):
            attrs["bytes"] = spilled   # the bytes the cost event sums
        parent = parents.draw(st.sampled_from([None] + list(range(1, index + 1))))
        tracer.spans.append(Span(index + 1, parent, name, cat, start,
                                 start + length, attrs))
    return tracer


@st.composite
def metrics_registries(draw):
    registry = MetricsRegistry()
    for name in draw(st.lists(st.sampled_from(
            ["bytes_shuffled", "memory_byte_seconds", "recovery_seconds",
             "supersteps", "messages_sent"]), unique=True)):
        registry.counter(name).inc(draw(st.floats(min_value=0, max_value=1e15)))
    for name in draw(st.lists(st.sampled_from(
            ["cpu_user_seconds", "replication_factor"]), unique=True)):
        registry.gauge(name).set(draw(_finite))
    for name in draw(st.lists(st.sampled_from(
            ["superstep_seconds", "active_vertices"]), unique=True)):
        hist = registry.histogram(name)
        for value in draw(st.lists(_finite, max_size=3)):
            hist.observe(value)
    return registry


_billed = st.fixed_dictionaries({
    "system": st.just("BV"), "machines": st.integers(1, 128),
    "total_time": st.floats(min_value=0, max_value=1e6),
    "status": st.sampled_from(["ok", "OOM", "TO"]),
})
_unbilled = st.fixed_dictionaries({"kind": st.just("scheduler"),
                                   "cells": st.integers(0, 9)})


@settings(max_examples=300, deadline=None)
@given(st.lists(_span, max_size=8), st.data(), _billed | _unbilled,
       st.none() | metrics_registries())
def test_span_lines_equal_canonical_json_of_the_event(specs, data, meta,
                                                      metrics):
    tracer = tracer_of(specs, data)
    expected = [canonical_json(e)
                for e in reference_events(meta, tracer, metrics)]
    journal = build_journal(meta, tracer, metrics)
    assert journal.dumps().splitlines() == expected
    assert journal.dumps().endswith("\n") and len(journal) == len(expected)
    # a stream without billing meta gets no cost line
    assert ('"type":"cost"' in expected[-1]) == ("machines" in meta)


def test_root_span_and_registry_without_histograms():
    tracer = Tracer()
    with tracer.span("run", cat="run", label="日本語"):
        with tracer.span("hdfs_read", cat="cluster", bytes=np.float64(2.5)):
            pass
    metrics = MetricsRegistry()
    metrics.counter("bytes_shuffled").inc(7.0)
    meta = {"machines": 4, "total_time": 1.5, "status": "ok"}
    journal = build_journal(meta, tracer, metrics)
    events = reference_events(meta, tracer, metrics)
    assert journal.dumps() == "".join(canonical_json(e) + "\n" for e in events)
    assert '"parent":null' in journal.dumps().splitlines()[1]
    assert journal.cost()["bytes_spilled"] == 2.5
    # the events are parsed from the text on first read
    assert journal.events[1]["args"] == {"label": "日本語"}


# -- counters stay honest ----------------------------------------------------

CELLS = [
    ("BV", "pagerank", "wrn", 16),         # completes
    ("HL", "wcc", "wrn", 16),              # TO in its first superstep
    ("GL-S-R-I", "wcc", "wrn", 16),        # OOM
]


@pytest.mark.parametrize("cell", CELLS)
def test_tracer_start_runs_once_per_journaled_span(cell, monkeypatch):
    opened = []
    start = Tracer.start

    def counting(self, name, cat="", **attrs):
        span = start(self, name, cat, **attrs)
        opened.append(span.id)
        return span

    monkeypatch.setattr(Tracer, "start", counting)
    system, workload, dataset, machines = cell
    result = run_cell(system, workload, load_dataset(dataset, "tiny"), machines)
    journaled = result.observation.journal().spans()
    assert opened == sorted(event["id"] for event in journaled)


def test_span_scope_notes_a_failure_and_reraises():
    class Failure(RuntimeError):
        kind = "OOM"
        machine = 3

    tracer = Tracer()
    scope = tracer.span("superstep", cat="bsp", iteration=0)
    assert isinstance(scope, SpanScope)
    with pytest.raises(Failure):
        with scope as span:
            raise Failure("out of memory")
    assert span.closed and tracer.open_depth == 0
    assert span.attrs == {"iteration": 0, "error": "Failure", "kind": "OOM",
                          "machine": 3}


#: HL wcc/wrn@16 times out inside its first superstep: the superstep
#: metrics never start, only the shuffle counter the superstep opened on
FIRST_SUPERSTEP_FAILURE_METRICS = [
    '{"kind":"counter","name":"bytes_shuffled","type":"metric","value":0.0}',
    '{"kind":"gauge","name":"cpu_iowait_seconds","type":"metric",'
    '"value":551122.665956962}',
    '{"kind":"gauge","name":"cpu_system_seconds","type":"metric",'
    '"value":196829.523556058}',
    '{"kind":"gauge","name":"cpu_user_seconds","type":"metric",'
    '"value":590488.5706681737}',
    '{"kind":"gauge","name":"max_iowait_utilization","type":"metric",'
    '"value":0.4117647058823529}',
    '{"kind":"gauge","name":"max_user_utilization","type":"metric",'
    '"value":0.4411764705882354}',
    '{"kind":"gauge","name":"memory_byte_seconds","type":"metric",'
    '"value":2925651625514414.5}',
    '{"kind":"gauge","name":"tracker_peak_total","type":"metric",'
    '"value":32212254720.0}',
]


def test_first_superstep_failure_journals_the_same_metric_lines():
    result = run_cell("HL", "wcc", load_dataset("wrn", "tiny"), 16)
    assert str(result.failure) == "TO"
    (superstep,) = result.observation.journal().supersteps()
    assert superstep["args"]["error"] == "SimulatedTimeout"
    lines = [line for line in result.observation.text.splitlines()
             if '"type":"metric"' in line]
    assert lines == FIRST_SUPERSTEP_FAILURE_METRICS


def scalars(result):
    """name -> (kind, value) for every counter and gauge of a result."""
    metrics = result.metrics
    return {name: (metrics.get(name).kind, metrics.value(name))
            for name in metrics.scalar_names()}


@pytest.mark.parametrize("cell", CELLS)
def test_rebuilt_result_keeps_every_scalar_kind(cell):
    system, workload, dataset, machines = cell
    result = run_cell(system, workload, load_dataset(dataset, "tiny"), machines)
    rebuilt = payload_to_result(result_to_payload(result))
    assert scalars(rebuilt) == scalars(result)
    assert scalars(result)["bytes_shuffled"][0] == "counter"
