"""Host cost of a run's span path, from the repo root::

    PYTHONPATH=src python -m benchmarks.bench_journal

Runs a fixed set of tiny cells once each, keeping their tracers, then
replays every recorded span through a fresh tracer and re-renders every
journal. Prints one JSON line: the spans and journal lines involved,
the microseconds (best of 5) per span opened and closed with
``with tracer.span(...)``, and per journal line ``build_journal``
renders.
"""

import json
import time

from repro.cluster import ClusterSpec
from repro.datasets.registry import load_dataset
from repro.engines import make_engine, workload_for
from repro.obs import RunObservation, Tracer
from repro.obs.journal import build_journal

#: (system, workload, dataset, machines): completes, SHFL, OOM, traversal
CELLS = (
    ("BV", "pagerank", "twitter", 16),
    ("HL", "pagerank", "twitter", 64),
    ("GL-S-R-I", "wcc", "wrn", 16),
    ("G", "sssp", "twitter", 32),
)


def observed_runs():
    """Each cell's live observation after its run finished."""
    runs = []
    for system, workload, dataset, machines in CELLS:
        data = load_dataset(dataset, "tiny")
        engine = make_engine(system)
        obs = RunObservation()
        engine.run(data, workload_for(engine, workload, data),
                   ClusterSpec(machines), obs=obs)
        runs.append(obs)
    return runs


def open_and_close(runs):
    for obs in runs:
        tracer = Tracer()
        for span in obs.tracer.spans:
            with tracer.span(span.name, span.cat, **span.attrs):
                pass


def render(runs):
    for obs in runs:
        build_journal(obs.meta, obs.tracer, obs.metrics).dumps()


def best_us(work, runs, per, repeats=5, loops=5):
    """Best mean time of ``work(runs)`` over ``repeats`` batches, in µs
    per one of ``per`` items."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            work(runs)
        best = min(best, (time.perf_counter() - start) / loops)
    return round(best / per * 1e6, 2)


if __name__ == "__main__":
    runs = observed_runs()
    spans = sum(len(obs.tracer.spans) for obs in runs)
    lines = sum(len(obs.journal()) for obs in runs)
    print(json.dumps({
        "cells": len(runs),
        "spans": spans,
        "lines": lines,
        "span_us": best_us(open_and_close, runs, spans),
        "line_us": best_us(render, runs, lines),
    }))
