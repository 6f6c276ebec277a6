"""Record ``manifest.json``: the digest of every cell a workload delivers.

Runs the ``pagerank-small`` and ``figures-tiny`` grids (the serve
catalog is a subset of the latter) at ``jobs=1`` in plan order and
stores, per cell, the SHA-256 of its answer array and canonical
journal. Every benchmark run checks what it delivers against this file,
so a change that moves a simulated number shows up as failed cells.
Re-record only when a change is meant to move simulated outputs:

    PYTHONPATH=src python3 perfbench/record_manifest.py
"""

from __future__ import annotations

import json

from common import MANIFEST, cell_id, grid_cells, payload_digest


def main() -> int:
    from repro.core.runner import ExperimentSpec
    from repro.exec import execute_specs
    from repro.exec.serialize import result_to_payload

    cells = {}
    for workload in ("pagerank-small", "figures-tiny"):
        order = grid_cells(workload)
        specs = [
            ExperimentSpec(systems=(s,), workloads=(w,), datasets=(d,),
                           cluster_sizes=(m,), dataset_size=size)
            for s, w, d, size, m in order
        ]
        execution = execute_specs(specs, jobs=1, cache=None)
        for cell, result in zip(order, execution.results):
            cells[cell_id(cell)] = payload_digest(result_to_payload(result))
    missing = [cell_id(c) for c in grid_cells("serve-catalog")
               if cell_id(c) not in cells]
    if missing:
        raise SystemExit(f"serve catalog cells outside the grids: {missing[:3]}")
    with open(MANIFEST, "w", encoding="ascii") as fh:
        json.dump({"digest": "sha256(answer json + NUL + journal text)",
                   "cells": dict(sorted(cells.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"{len(cells)} cell digests -> {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
