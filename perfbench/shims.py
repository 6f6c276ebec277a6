"""Run-time trace shims: attribute host time to the repo's layers.

The traced run wraps public functions and methods of the program's
modules in timing shims, installed at run time and removed afterwards;
nothing under ``src/`` is edited. Each call records one span (target,
start, end, parent) in per-thread buffers held in memory; :meth:`Trace.dump`
writes them out at the end and :meth:`Trace.summary` folds them into
per-layer call counts and self time. A span's self time is its duration
minus the time its child spans cover.

A function imported by name into other modules is patched in every
``repro`` module that holds it; a method is patched on its class and on
every loaded subclass that overrides it.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, counter group, module, qualified name). A counter group
#: counts outermost calls only: a method that calls its parent class's
#: version counts once.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("datasets", "datasets.load", "repro.datasets.registry", "load_dataset"),
    ("graph.stats", "graph.stats", "repro.graph.stats", "estimate_diameter"),
    ("graph.stats", "graph.stats", "repro.graph.stats", "effective_diameter"),
    ("graph.stats", "graph.stats", "repro.graph.stats", "bfs_levels"),
    ("graph.stats", "graph.stats", "repro.graph.stats", "compute_stats"),
    ("graph.stats", "graph.stats", "repro.graph.stats", "largest_wcc_fraction"),
) + tuple(
    ("partitioning", "partitioning.partition", module, name)
    for module, name in (
        ("repro.partitioning.edge_cut", "random_vertex_partition"),
        ("repro.partitioning.vertex_cut", "random_edge_partition"),
        ("repro.partitioning.vertex_cut", "grid_partition"),
        ("repro.partitioning.vertex_cut", "pds_partition"),
        ("repro.partitioning.vertex_cut", "oblivious_partition"),
        ("repro.partitioning.vertex_cut", "auto_partition"),
        ("repro.partitioning.voronoi", "voronoi_partition"),
        ("repro.partitioning.dataset_specific", "coordinate_partition"),
        ("repro.partitioning.dataset_specific", "url_prefix_partition"),
    )
) + tuple(
    ("partitioning", group, "repro.partitioning.vertex_cut", f"EdgePartition.{m}")
    for m, group in (
        ("edge_counts", "partitioning.metric"),
        ("balance_skew", "partitioning.metric"),
        ("replica_counts", "partitioning.replica_counts"),
        ("replication_factor", "partitioning.replication_factor"),
        ("vertex_master", "partitioning.metric"),
    )
) + tuple(
    ("partitioning", "partitioning.metric", "repro.partitioning.edge_cut",
     f"VertexPartition.{m}")
    for m in ("vertices_of", "vertex_counts", "edge_counts", "cut_edges",
              "cut_fraction", "balance_skew")
) + tuple(
    ("partitioning", "partitioning.metric", "repro.partitioning.voronoi",
     f"BlockPartition.{m}")
    for m in ("machine_of_vertex", "block_sizes", "machine_loads",
              "balance_skew", "cut_fraction", "block_cut_fraction",
              "block_graph_edges")
) + (
    ("workloads", "workloads.superstep", "repro.workloads.base", "Workload.superstep"),
    ("workloads", "workloads.init", "repro.workloads.base", "Workload.init_state"),
) + tuple(
    ("cluster", "cluster.primitive", "repro.cluster.cluster", f"Cluster.{m}")
    for m in ("advance", "rescale", "parallel_compute", "uniform_compute",
              "shuffle", "gather_to_master", "broadcast", "barrier",
              "hdfs_read", "hdfs_write", "local_disk_io", "sample_memory")
) + tuple(
    ("cluster.tracker", "cluster.tracker", "repro.cluster.tracker",
     f"ResourceTracker.{m}")
    for m in ("record_cpu", "record_memory", "record_network", "record_disk",
              "record_rescale", "record_memory_integral",
              "peak_memory_bytes", "total_memory_bytes", "memory_series",
              "cpu_totals", "max_cpu_utilization", "network_total_bytes",
              "memory_byte_seconds")
) + (
    ("engines", "engines.run", "repro.engines.base", "Engine.run"),
    ("obs", "obs.spans", "repro.obs.spans", "Tracer.start"),
    ("obs", "obs.span_end", "repro.obs.spans", "Tracer.end"),
    ("obs", "obs.journal", "repro.obs.observation", "RunObservation.journal"),
    ("obs", "obs.journal", "repro.obs.journal", "build_journal"),
    ("obs", "obs.journal.dumps", "repro.obs.journal", "Journal.dumps"),
    ("obs", "obs.journal.write", "repro.obs.journal", "Journal.write"),
    ("exec.cell_key", "exec.cell_key", "repro.exec.cache", "cell_key"),
    ("exec.serialize", "exec.serialize", "repro.exec.serialize", "result_to_payload"),
    ("exec.serialize", "exec.serialize", "repro.exec.serialize", "payload_to_result"),
    ("exec.cache.get", "exec.cache.get", "repro.exec.cache", "ResultCache.get"),
    ("exec.cache.put", "exec.cache.put", "repro.exec.cache", "ResultCache.put"),
    ("exec.retry", "exec.retries", "repro.exec.retry", "RetryPolicy.delay"),
    # dispatch spans include the blocking ``wait`` op, so the serve layer
    # reports per-op durations, never its self time
    ("serve", "serve.dispatch", "repro.serve.daemon", "ServeDaemon.dispatch"),
)

#: layers whose self time the summary reports (order = report order)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class _Buffer:
    """One thread's spans: parallel arrays plus the open-span stack."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.target = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []


class Trace:
    """Installs the shims, holds the spans, and removes the shims."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: extra per-target tallies (bytes, hits), filled by post hooks
        self.tallies: Dict[str, float] = defaultdict(float)
        #: (op, seconds) for every daemon dispatch
        self.ops: List[Tuple[str, float]] = []
        self.installed = False

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, tid: int, fn: Callable, post: Optional[Callable]) -> Callable:
        clock = time.perf_counter

        def shim(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.target)
            buf.target.append(tid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(clock())
            buf.end.append(0.0)
            buf.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if post is not None:
                post(args, result, buf.end[idx] - buf.start[idx])
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        shim.__name__ = getattr(fn, "__name__", "shim")
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    def _post_hook(self, group: str) -> Optional[Callable]:
        tallies = self.tallies
        if group == "obs.journal.dumps":
            def post(args, result, dur):
                tallies["obs.journal.bytes"] += len(result)
            return post
        if group == "exec.cache.put":
            def post(args, result, dur):
                tallies["exec.cache.put.bytes"] += result.stat().st_size
            return post
        if group == "exec.cache.get":
            def post(args, result, dur):
                tallies["exec.cache.get.hits"] += result is not None
            return post
        if group == "serve.dispatch":
            def post(args, result, dur):
                self.ops.append((str(args[1].get("op")), dur))
            return post
        return None

    # -- install / remove ---------------------------------------------------

    def install(self) -> "Trace":
        """Patch every target; the modules must be importable."""
        if self.installed:
            raise RuntimeError("trace shims are already installed")
        for tid, (_, group, module_name, qualname) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            post = self._post_hook(group)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                self._patch_method(getattr(module, cls_name), meth, tid, post)
            else:
                self._patch_function(getattr(module, qualname), tid, post)
        self.installed = True
        return self

    def remove(self) -> None:
        """Put every original object back, newest patch first."""
        while self._restore:
            self._restore.pop()()
        self.installed = False

    def _patch_function(self, original: Callable, tid: int, post) -> None:
        shim = self._wrap(tid, original, post)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, shim)
                    self._restore.append(
                        lambda m=module, a=attr: setattr(m, a, original))

    def _patch_method(self, cls: type, meth: str, tid: int, post) -> None:
        classes = [cls]
        todo = [cls]
        while todo:
            for sub in todo.pop().__subclasses__():
                classes.append(sub)
                todo.append(sub)
        for klass in classes:
            raw = vars(klass).get(meth)
            if raw is None:
                continue
            if isinstance(raw, property):
                patched = property(self._wrap(tid, raw.fget, post),
                                   raw.fset, raw.fdel, raw.__doc__)
            elif callable(raw):
                patched = self._wrap(tid, raw, post)
            else:
                continue
            setattr(klass, meth, patched)
            self._restore.append(
                lambda k=klass, m=meth, r=raw: setattr(k, m, r))

    # -- results ------------------------------------------------------------

    def arrays(self):
        """All spans as numpy arrays: target, parent, start, end, thread
        (an index into the returned thread names), thread names."""
        import numpy as np

        def joined(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        targets, parents, starts, ends, threads, names = [], [], [], [], [], []
        offset = 0
        for number, buf in enumerate(self._buffers):
            parent = np.frombuffer(buf.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            targets.append(np.frombuffer(buf.target, dtype=np.int32))
            parents.append(parent)
            starts.append(np.frombuffer(buf.start, dtype=np.float64))
            ends.append(np.frombuffer(buf.end, dtype=np.float64))
            threads.append(np.full(len(buf.target), number, dtype=np.int32))
            names.append(buf.thread)
            offset += len(buf.target)
        return (joined(targets, np.int32), joined(parents, np.int64),
                joined(starts, np.float64), joined(ends, np.float64),
                joined(threads, np.int32), names)

    def dump(self, path) -> None:
        """Write every span (the in-memory record) to one .npz file."""
        import numpy as np

        target, parent, start, end, thread, names = self.arrays()
        np.savez_compressed(
            path, target=target, parent=parent, start=start, end=end,
            thread=thread, thread_names=np.array(names, dtype=str),
            target_names=np.array(
                [f"{m}:{q}" for _, _, m, q in TARGETS], dtype=str),
        )

    def summary(self, top_thread: Optional[str] = None,
                since: float = float("-inf")) -> dict:
        """Per-layer self seconds and per-group outermost call counts.

        ``top_seconds`` sums the outermost spans (those with no shimmed
        parent) that started at or after ``since`` (a ``perf_counter``
        reading) — on ``top_thread`` only when it is given.
        """
        import numpy as np

        target, parent, start, end, thread, names = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        layer_of = np.array([LAYERS.index(t[0]) for t in TARGETS])
        groups = tuple(dict.fromkeys(t[1] for t in TARGETS))
        group_of = np.array([groups.index(t[1]) for t in TARGETS])
        span_layer = layer_of[target]
        span_group = group_of[target]
        parent_group = np.where(has_parent, span_group[np.maximum(parent, 0)], -1)
        outermost = span_group != parent_group
        self_s = np.bincount(span_layer, weights=self_time,
                             minlength=len(LAYERS))
        group_busy = np.bincount(span_group, weights=self_time,
                                 minlength=len(groups))
        calls = np.bincount(span_group[outermost], minlength=len(groups))
        top = ~has_parent & (start >= since)
        if top_thread is not None:
            wanted = [i for i, n in enumerate(names) if n == top_thread]
            top &= np.isin(thread, wanted)
        return {
            "self_s": {layer: float(self_s[i]) for i, layer in enumerate(LAYERS)},
            "group_self_s": {g: float(group_busy[i]) for i, g in enumerate(groups)},
            "calls": {g: int(calls[i]) for i, g in enumerate(groups)},
            "top_seconds": float(dur[top].sum()),
            "spans": int(len(dur)),
        }
