"""Every benchmark cell still yields the answer and journal it recorded.

``perfbench/manifest.json`` holds, for each of the benchmark's grid
cells, the SHA-256 of the cell's answer JSON, a NUL byte, then its
canonical journal text. A host-speed change must leave simulated
outputs byte-identical, so this re-runs every cell — in-process at
``jobs=1``, and one dataset's cells through a two-worker pool, where
per-worker memos (datasets, partitions) are held — and compares.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.core.runner import ExperimentSpec
from repro.exec import execute_specs
from repro.exec.serialize import result_to_payload

MANIFEST = Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json"
CELL_ID = re.compile(r"(?P<system>[^:]+):(?P<workload>[^:]+):"
                     r"(?P<dataset>[^/]+)/(?P<size>[^@]+)@(?P<machines>\d+)")


def payload_digest(payload: dict) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(payload.get("answer"), sort_keys=True,
                             separators=(",", ":")).encode("ascii"))
    digest.update(b"\0")
    digest.update((payload.get("journal") or "").encode("ascii"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST, encoding="ascii") as fh:
        return json.load(fh)["cells"]


def digests(cell_ids, jobs):
    """cell id -> digest of what the executor delivers at ``jobs``."""
    cells = [CELL_ID.fullmatch(cid) for cid in cell_ids]
    specs = [ExperimentSpec(systems=(c["system"],), workloads=(c["workload"],),
                            datasets=(c["dataset"],),
                            cluster_sizes=(int(c["machines"]),),
                            dataset_size=c["size"])
             for c in cells]
    execution = execute_specs(specs, jobs=jobs, cache=None)
    assert len(execution.results) == len(cell_ids)
    return {cid: payload_digest(result_to_payload(result))
            for cid, result in zip(cell_ids, execution.results)}


def test_every_manifest_cell_matches_at_jobs_1(manifest):
    delivered = digests(sorted(manifest), jobs=1)
    wrong = sorted(cid for cid, digest in delivered.items()
                   if digest != manifest[cid])
    assert wrong == []


def test_pool_workers_deliver_the_recorded_cells(manifest):
    cell_ids = sorted(cid for cid in manifest if ":wrn/tiny@" in cid)
    assert cell_ids
    delivered = digests(cell_ids, jobs=2)
    wrong = sorted(cid for cid, digest in delivered.items()
                   if digest != manifest[cid])
    assert wrong == []
