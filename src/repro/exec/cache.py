"""The content-addressed result cache and its canonical cell keys.

A cell's key is a SHA-256 over everything that can change its result:

* the cell coordinates (system, workload, cluster size),
* the dataset's *content* — name, size, generator output (the exact
  edge array, so changing a generator seed changes the key even though
  the dataset keeps its name), SSSP source, and paper profile, and
* the simulation code version: a digest of every source file in the
  result-determining packages (engines, workloads, cluster, chaos,
  core, datasets, graph, partitioning, obs). Editing a cost model
  invalidates every cached cell; editing the CLI or this executor does
  not.

Entries are one JSON file each under ``<cache-dir>/<k[:2]>/<k>.json``,
written via temp-file + atomic rename so a killed run never leaves a
truncated entry for ``--resume`` to trip over. Unreadable or corrupt
entries degrade to cache misses, never to errors.

A cache may carry a ``max_cells`` budget: entries are then tracked in
LRU order (by cells — each entry is one cell payload) and the
least-recently-used entries are evicted from disk when a put would
exceed the budget, with the count kept in :attr:`ResultCache.evictions`
(the serve daemon journals it). The order is in-process state, which is
sound exactly where the budget is used — the daemon is the cache's
single writer; unbounded caches skip the tracking entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from ..datasets.registry import Dataset
from ..obs.journal import canonical_json
from .plan import CellTask
from .serialize import PAYLOAD_VERSION

__all__ = ["ResultCache", "cell_key", "code_fingerprint", "dataset_fingerprint"]

#: repro subpackages whose source determines simulated results
_RESULT_PACKAGES = (
    "chaos", "cluster", "core", "datasets", "engines", "graph", "obs",
    "partitioning", "workloads",
)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the result-determining simulation source, this install."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in _RESULT_PACKAGES:
        base = root / package
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def dataset_fingerprint(dataset: Dataset) -> str:
    """Digest of a dataset's identity *and* generated content.

    Hashing the edge array (not just the name) means a changed generator
    seed or a re-shaped synthetic graph busts every dependent cache
    entry, exactly like a new copy of a real dataset would.

    Memoized per process: datasets are immutable and the registry
    returns the same object for the same (name, size), so the O(edges)
    SHA-256 runs once per dataset, not once per grid cell.
    """
    digest = hashlib.sha256()
    digest.update(canonical_json({
        "name": dataset.name,
        "size": dataset.size,
        "num_vertices": dataset.graph.num_vertices,
        "num_edges": dataset.graph.num_edges,
        "sssp_source": dataset.sssp_source,
        "metadata": repr(dataset.metadata),
        "profile": repr(dataset.profile),
    }).encode("utf-8"))
    edges = dataset.graph.edge_array()
    digest.update(str(edges.dtype).encode("ascii"))
    digest.update(edges.tobytes())
    return digest.hexdigest()


def cell_key(
    task: CellTask,
    dataset: Dataset,
    code_version: Optional[str] = None,
) -> str:
    """The cell's content-addressed cache key."""
    if code_version is None:
        code_version = code_fingerprint()
    return hashlib.sha256(canonical_json({
        "payload_version": PAYLOAD_VERSION,
        "system": task.system,
        "workload": task.workload,
        "cluster_size": task.cluster_size,
        "dataset": dataset_fingerprint(dataset),
        "code": code_version,
        # the full fault schedule, seed included: a different chaos plan
        # is a different cell
        "chaos": None if task.chaos is None else task.chaos.to_dict(),
    }).encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk memo of finished cells, keyed by :func:`cell_key`.

    ``max_cells`` bounds the cache in cells (one entry each): exceeding
    it evicts the least-recently-used entries from disk and counts them
    in :attr:`evictions`. ``None`` (the default) keeps the cache
    unbounded with zero tracking overhead.
    """

    def __init__(self, cache_dir: Union[str, Path],
                 max_cells: Optional[int] = None) -> None:
        if max_cells is not None and max_cells <= 0:
            raise ValueError("max_cells must be positive (or None)")
        self.cache_dir = Path(cache_dir)
        self.max_cells = max_cells
        self.evictions = 0
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        if self.max_cells is not None and self.cache_dir.is_dir():
            # adopt pre-existing entries, oldest-position first by key
            # (deterministic: no usable access order survives a restart)
            for path in sorted(self.cache_dir.glob("*/*.json")):
                self._lru[path.stem] = None

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload, or None on miss or a corrupt entry."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="ascii")
            payload = json.loads(text)
        except (OSError, ValueError):
            if self.max_cells is not None:
                self._lru.pop(key, None)
            return None
        if not isinstance(payload, dict) or payload.get("version") != PAYLOAD_VERSION:
            if self.max_cells is not None:
                self._lru.pop(key, None)
            return None
        if self.max_cells is not None:
            self._lru[key] = None
            self._lru.move_to_end(key)
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Store a payload atomically; concurrent writers are safe.

        Under a ``max_cells`` budget, the put that exceeds it evicts
        the least-recently-used entries from disk first.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(canonical_json(payload), encoding="ascii")
        os.replace(tmp, path)
        if self.max_cells is not None:
            self._lru[key] = None
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_cells:
                victim, _ = self._lru.popitem(last=False)
                try:
                    self.path_for(victim).unlink()
                except OSError:
                    pass
                self.evictions += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"ResultCache({str(self.cache_dir)!r}, {len(self)} entries)"
