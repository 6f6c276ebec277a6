"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

They check the things the benchmark's figures rest on: the trace shims
leave no trace once removed, time spent in a shimmed function is
charged to that function's layer, a cached payload that no longer
matches the manifest is counted as a failed operation, and the result
line names every metric of ``BENCHMARK.json`` in the unit it declares.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    cell_id,
    count_failures,
    grid_cells,
    load_manifest,
    payload_digest,
)
from run import END_TO_END_UNITS, layer_metrics  # noqa: E402
from shims import TARGETS, Trace  # noqa: E402


def _namespace_snapshot() -> dict:
    """Identity of every attribute of every loaded repro module and class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = id(value)
            if isinstance(value, type):
                for key, raw in list(vars(value).items()):
                    snapshot[(name, attr, key)] = id(raw)
    return snapshot


def _import_targets() -> None:
    import importlib

    import repro.core.runner  # noqa: F401  (loads every engine and workload)
    import repro.serve  # noqa: F401

    for _, _, module, _ in TARGETS:
        importlib.import_module(module)


def test_shims_are_removed_after_the_traced_run():
    _import_targets()
    from repro.partitioning.vertex_cut import EdgePartition

    original = vars(EdgePartition)["replica_counts"]
    before = _namespace_snapshot()
    trace = Trace().install()
    try:
        assert vars(EdgePartition)["replica_counts"] is not original
        assert _namespace_snapshot() != before
    finally:
        trace.remove()
    assert vars(EdgePartition)["replica_counts"] is original
    assert _namespace_snapshot() == before


def test_slowed_function_is_charged_to_its_own_layer():
    _import_targets()
    from repro.core.runner import run_cell
    from repro.datasets.registry import load_dataset
    from repro.partitioning.vertex_cut import EdgePartition

    dataset = load_dataset("twitter", "tiny")
    run_cell("S", "pagerank", dataset, 16)  # warm imports and caches
    delay = 0.05
    original = EdgePartition.replica_counts

    def slowed(self):
        time.sleep(delay)
        return original(self)

    EdgePartition.replica_counts = slowed
    trace = Trace().install()
    try:
        run_cell("S", "pagerank", dataset, 16)
    finally:
        trace.remove()
        EdgePartition.replica_counts = original
    summary = trace.summary()
    calls = summary["calls"]["partitioning.replica_counts"]
    slept = calls * delay
    assert calls >= 1
    assert summary["self_s"]["partitioning"] >= slept
    for layer, seconds in summary["self_s"].items():
        if layer != "partitioning":
            assert seconds < slept / 2, (layer, seconds)


def test_corrupted_cached_payload_counts_as_failed(tmp_path):
    from repro.core.runner import ExperimentSpec
    from repro.exec import execute_specs
    from repro.exec.serialize import result_to_payload

    cells = [c for c in grid_cells("serve-catalog")
             if c[1] == "pagerank" and c[2] == "wrn" and c[4] == 16][:3]
    specs = [ExperimentSpec(systems=(s,), workloads=(w,), datasets=(d,),
                            cluster_sizes=(m,), dataset_size=size)
             for s, w, d, size, m in cells]
    manifest = load_manifest()

    def delivered():
        execution = execute_specs(specs, jobs=1, cache=tmp_path)
        return {cell_id(cell): payload_digest(result_to_payload(result))
                for cell, result in zip(cells, execution.results)}

    assert count_failures(delivered(), manifest) == []
    entries = sorted(tmp_path.glob("*/*.json"))
    assert len(entries) == len(cells)
    payloads = {path: json.loads(path.read_text(encoding="ascii"))
                for path in entries}
    path, payload = next((p, d) for p, d in payloads.items() if d["answer"])
    data = payload["answer"]["data"]
    payload["answer"]["data"] = ("A" if data[0] != "A" else "B") + data[1:]
    path.write_text(json.dumps(payload), encoding="ascii")
    assert len(count_failures(delivered(), manifest)) == 1


def test_manifest_covers_every_workload_cell():
    manifest = load_manifest()
    for workload in ("pagerank-small", "figures-tiny", "serve-catalog"):
        for cell in grid_cells(workload):
            assert cell_id(cell) in manifest


def test_result_units_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def units(kind):
        return {m["name"]: m["unit"] for m in declared[kind]}

    assert END_TO_END_UNITS == units("end_to_end")
    summary = {"self_s": defaultdict(float), "calls": defaultdict(int)}
    extra = {"startup.import_s": 0.2, "host.cpu_s": 1.0,
             "trace.overhead_ratio": 1.0, "trace.coverage": 0.9}
    printed = {name: unit for name, (_, unit)
               in layer_metrics(summary, {}, extra).items()}
    assert printed == units("per_layer")
