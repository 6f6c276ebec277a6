"""The grid scheduler: plan → cache scan → fan-out → ordered assembly.

This is the driver-level machinery the paper's EC2 harness needed for
its 8 systems × 4 workloads × 4 datasets × 4 cluster-sizes matrix
(§4.1): every cell is independent, so the executor fans the plan's
cache misses out over a process pool, memoizes each finished cell in
the content-addressed :class:`~repro.exec.cache.ResultCache`, and
re-attempts crashed *workers* under a bounded exponential-backoff
:class:`~repro.exec.retry.RetryPolicy`. Simulated failure cells
(TO/OOM/MPI/SHFL) are results and are cached, reported, and never
retried.

Two guarantees shape the implementation:

* **Bit-equivalence.** ``jobs=N`` produces the same
  :class:`~repro.core.runner.ResultGrid` as ``jobs=1`` — cells are
  deterministic, grids assemble in plan order regardless of completion
  order, and per-cell journals are canonical JSONL, so they byte-match
  across modes (and across cache replay).
* **Resumability.** Cells land in the cache the moment they finish, so
  a killed grid re-run with ``resume=True`` executes only the missing
  cells.

One loop, :meth:`_GridRun.run_cells`, serves two backends behind one
``submit``: a process pool at ``jobs > 1``, and :class:`_InProcess`,
which runs a batch as it is submitted, at ``jobs=1`` and for cells
whose dataset a worker cannot rebuild. The pool receives **batches**:
the portable misses, sorted by (dataset, size, workload, cluster size)
so that a worker's partition, diameter and trajectory memos stay warm,
then cut into contiguous runs (:func:`_batches`: ``BATCHES_PER_WORKER``
per worker). In process, every cell is its own batch, in plan order.
At most ``jobs`` batches are in flight; the next goes out as one
returns. A batch runs cell by cell and writes each finished cell's
cache entry itself; the scheduler records that entry against the
cache's budget (:meth:`~repro.exec.cache.ResultCache.record`) and
assembles results in plan order. A cell that raises comes back as its
own outcome; the cells of a batch that raised go back to the front of
the queue as one batch, after one backoff. A broken pool loses only
the batches that were running: the cells of those batches whose
entries a worker already wrote are read back, neither re-run nor
counted as retries, and the rest cost one backoff between them and
one attempt each. Every exit sets the workers' stop event and cancels
queued batches, so an interrupted grid stops at the next cell
boundary; the scheduler then waits for the running batches to stop
and records every entry their workers wrote, so a bounded cache stays
bounded.

The executor observes itself: scheduler spans (plan, one per cell) and
cache hit/miss/retry counters land in a host-clock
:class:`~repro.obs.RunObservation`, journalable next to the per-cell
simulated-clock journals. A cell span's ``host_seconds`` runs from the
submission of the cell's batch until the cell finished, plus the
batch's trip back: in process, that is the cell's own run and cache
write; pooled, it adds queueing for a worker and the earlier cells of
its batch.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from queue import SimpleQueue
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from ..datasets.registry import Dataset, load_dataset
from ..engines.base import RunResult
from ..obs import Journal, RunObservation, Tracer
from ..obs.hostclock import host_now, host_sleep
from .cache import ResultCache, cell_key
from .plan import CellTask, plan_grids
from .progress import (
    SOURCE_CACHE,
    SOURCE_INLINE,
    SOURCE_RUN,
    CellEvent,
    ProgressFn,
)
from .retry import ExecutorError, RetryPolicy
from .serialize import payload_to_result
from .workers import run_cell_task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.runner import ExperimentSpec, ResultGrid

__all__ = ["ExecutionReport", "GridExecution", "execute_grid", "execute_specs"]

#: batches per pool worker: enough that the last batches to finish keep
#: every worker busy, few enough that a batch's round trip through the
#: parent is paid by many cells
BATCHES_PER_WORKER = 4

#: one pooled cell in flight: its task, cache key and attempt number
_Cell = Tuple[CellTask, Optional[str], int]


def _affinity(cell: _Cell) -> Tuple[str, str, str, int]:
    """Cells that share a dataset, workload and size share worker memos."""
    task = cell[0]
    return (task.dataset, task.size, task.workload, task.cluster_size)


def _batches(cells: List[_Cell], jobs: int) -> List[List[_Cell]]:
    """Split cells, in affinity order, into contiguous near-equal batches.

    ``jobs * BATCHES_PER_WORKER`` batches, never more than cells. The
    sort is stable, so cells with equal coordinates keep plan order.
    """
    ordered = sorted(cells, key=_affinity)
    count = min(jobs * BATCHES_PER_WORKER, len(ordered))
    bounds = [len(ordered) * i // count for i in range(count + 1)]
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# -- the worker side of the pool -----------------------------------------------
# It lives here, not in ``workers``, because catching a cell's exception
# to hand it back is failure recovery, which belongs in this module.

#: the scheduler's stop event, handed to each worker when it starts
_stop: Any = None


def _init_worker(stop: Any) -> None:
    """Pool initializer: keep the scheduler's stop event for batches."""
    global _stop
    _stop = stop


class _WorkerTraceback(Exception):
    """The traceback text of an exception a cell raised in a pool worker.

    Tracebacks do not pickle, so a worker sends the text, and the
    scheduler chains it as the ``__cause__`` of the unpickled exception.
    """


@dataclass
class _CellError:
    """A cell's exception on its way back from a worker."""

    exc: Exception
    trace: str

    def unwrap(self) -> Exception:
        self.exc.__cause__ = _WorkerTraceback(self.trace)
        return self.exc


def run_cell_batch(
    cells: List[Tuple[dict, Optional[str]]],
    cache_dir: Optional[Path],
) -> List[Tuple[float, object]]:
    """The pool's entry point: run ``(task payload, key)`` pairs in order.

    Returns one ``(seconds, payload)`` outcome per cell that ran, or
    ``(seconds, _CellError)`` per cell that raised, where ``seconds`` is
    how far into the batch the cell ended. A finished cell with a key
    is written to ``cache_dir`` before the next cell starts. Once the
    stop event is set the batch ends early with fewer outcomes than
    cells; the scheduler that set it reads none of them.
    """
    cache = None if cache_dir is None else ResultCache(cache_dir)
    start = host_now()
    outcomes: List[Tuple[float, object]] = []
    for task, key in cells:
        if _stop is not None and _stop.is_set():
            break
        try:
            payload = run_cell_task(task)
        except Exception as exc:  # this cell's failure goes back to retry
            trace = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            outcomes.append((host_now() - start, _CellError(exc, trace)))
            continue
        if cache is not None and key is not None:
            cache.put(key, payload)
        outcomes.append((host_now() - start, payload))
    return outcomes


class _InProcess:
    """The serial backend: runs each batch in this process as it is submitted."""

    def submit(self, fn: Any, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # the batch is lost, as in a pool
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing is queued or running between submissions."""


@dataclass
class ExecutionReport:
    """What one grid execution did, for progress lines and benchmarks."""

    cells: int
    cache_hits: int
    executed: int
    retries: int
    jobs: int
    resumed: bool
    host_seconds: float

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells served from the cache."""
        return self.cache_hits / self.cells if self.cells else 0.0

    def summary(self) -> str:
        """The one-line account printed after ``repro grid``."""
        return (
            f"exec: {self.cells} cells · {self.cache_hits} cached · "
            f"{self.executed} executed · {self.retries} retries · "
            f"jobs={self.jobs} · {self.host_seconds:.2f}s host"
        )


@dataclass
class GridExecution:
    """An executed grid: the results plus the scheduler's own story."""

    grid: "ResultGrid"
    report: ExecutionReport
    observation: RunObservation
    #: every cell's result in plan order — unlike ``grid`` (keyed by
    #: coordinates) this keeps cells distinct when several specs run the
    #: same coordinates under different chaos plans
    results: List[RunResult] = field(default_factory=list)

    def scheduler_journal(self) -> Journal:
        """The executor's host-clock journal (spans + cache counters)."""
        return self.observation.journal()


def _resolve_cache(
    cache: Union[None, str, Path, ResultCache]
) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


class _GridRun:
    """One execution's mutable state (kept off the public API)."""

    def __init__(
        self,
        specs: Sequence["ExperimentSpec"],
        jobs: int,
        cache: Optional[ResultCache],
        resume: bool,
        progress: Optional[ProgressFn],
        retry: RetryPolicy,
    ) -> None:
        self.specs = list(specs)
        self.jobs = jobs
        self.cache = cache
        self.resume = resume
        self.progress = progress
        self.retry = retry
        self.start = host_now()
        self.obs = RunObservation(
            tracer=Tracer(lambda: host_now() - self.start)
        )
        self.results: Dict[int, RunResult] = {}
        self.hits = 0
        self.executed = 0
        self.retries = 0
        self.done = 0
        self.tasks: List[CellTask] = []
        self.datasets: Dict[Tuple[str, str], Dataset] = {}
        self.keys: Dict[int, str] = {}
        #: keys of the cells handed to a pool worker and not yet finished
        self.outstanding: Set[str] = set()

    # -- bookkeeping -------------------------------------------------------

    def _finish(
        self,
        task: CellTask,
        payload: dict,
        source: str,
        attempts: int,
        host_seconds: float,
    ) -> None:
        """Record one finished cell: span, counters, progress, result."""
        result = payload_to_result(payload)
        span = self.obs.tracer.start(
            "cell", cat="scheduler", cell=task.cell_id, source=source,
            attempts=attempts,
        )
        self.obs.tracer.end(span, host_seconds=host_seconds)
        counter = "exec.cache_hits" if source == SOURCE_CACHE else "exec.cells_executed"
        self.obs.metrics.counter(counter).inc()
        if source == SOURCE_CACHE:
            self.hits += 1
        else:
            self.executed += 1
        self.results[task.index] = result
        self.done += 1
        if self.progress is not None:
            self.progress(CellEvent(
                task=task, result=result, payload=payload, source=source,
                attempts=attempts, done=self.done, total=len(self.tasks),
            ))

    def _count_retry(self) -> None:
        """Count one cell that goes around again."""
        self.retries += 1
        self.obs.metrics.counter("exec.retries").inc()

    def _exhausted(self, task: CellTask, attempt: int, exc: Exception) -> ExecutorError:
        return ExecutorError(
            f"cell {task.cell_id} failed after {attempt} attempt(s): "
            f"{type(exc).__name__}: {exc}"
        )

    # -- phases ------------------------------------------------------------

    def plan(self) -> List[Tuple[CellTask, Optional[str]]]:
        """Expand the spec; compute cache keys; serve the cache hits."""
        with self.obs.tracer.span("plan", cat="scheduler") as span:
            self.tasks = plan_grids(self.specs)
            for task in self.tasks:
                ds_key = (task.dataset, task.size)
                if ds_key not in self.datasets:
                    self.datasets[ds_key] = load_dataset(*ds_key)
            if self.cache is not None:
                for task in self.tasks:
                    self.keys[task.index] = cell_key(
                        task, self.datasets[(task.dataset, task.size)]
                    )
            span.attrs["cells"] = len(self.tasks)

        misses: List[Tuple[CellTask, Optional[str]]] = []
        for task in self.tasks:
            key = self.keys.get(task.index)
            payload = (self.cache.get(key)
                       if self.cache is not None and key else None)
            if payload is not None:
                self._finish(task, payload, SOURCE_CACHE, attempts=1,
                             host_seconds=0.0)
            else:
                misses.append((task, key))
        return misses

    def run_cells(self, misses: List[Tuple[CellTask, Optional[str]]], jobs: int) -> None:
        """Run cells in batches, at most ``jobs`` in flight, with retry.

        ``jobs > 1`` sends the batches of :func:`_batches` to a process
        pool; ``jobs == 1`` sends one cell per batch, in plan order, to
        :class:`_InProcess`. A batch goes out as one returns, and each
        announces itself on one queue when it finishes. An exit that
        leaves keyed cells unfinished waits for the running batches to
        stop, then records the entries their workers wrote, so they
        count against the cache's budget.
        """
        if not misses:
            return
        fresh = [(task, key, 1) for task, key in misses]
        if jobs > 1:
            stop: Any = multiprocessing.get_context().Event()
            queue = deque(_batches(fresh, jobs))
            new_pool: Any = partial(ProcessPoolExecutor, max_workers=jobs,
                                    initializer=_init_worker, initargs=(stop,))
        else:
            stop = threading.Event()  # in process, nothing runs between submits
            queue = deque([cell] for cell in fresh)
            new_pool = _InProcess
        source = SOURCE_RUN if jobs > 1 else SOURCE_INLINE

        pool = new_pool()
        cache_dir = None if self.cache is None else self.cache.cache_dir
        pending: Dict[Future, Tuple[List[_Cell], float]] = {}
        finished: "SimpleQueue[Future]" = SimpleQueue()

        def fill() -> None:
            """Submit queued batches until ``jobs`` are in flight."""
            while queue and len(pending) < jobs:
                batch = queue.popleft()
                self.outstanding.update(key for _, key, _ in batch if key)
                work = [(task.payload(attempt), key) for task, key, attempt in batch]
                submitted = host_now()
                try:
                    future = pool.submit(run_cell_batch, work, cache_dir)
                except BrokenProcessPool as exc:
                    # a worker died while this batch was submitted: fail
                    # it like the ones in flight, so the loop below
                    # rebuilds the pool once for all of them
                    future = Future()
                    future.set_exception(exc)
                pending[future] = (batch, submitted)
                future.add_done_callback(finished.put)

        def retry_or_raise(cells: List[_Cell], exc: Exception) -> None:
            """Back off once, then requeue the cells first, as one batch.

            A broken pool fails every batch in flight at once; one
            worker death is still one backoff, not one per cell.
            """
            for task, _, attempt in cells:
                if attempt >= self.retry.max_attempts:
                    raise self._exhausted(task, attempt, exc) from exc
            host_sleep(self.retry.delay(max(a for _, _, a in cells)))
            for _ in cells:
                self._count_retry()
            queue.appendleft([(task, key, attempt + 1)
                              for task, key, attempt in cells])

        def salvage(cells: List[_Cell], submitted: float) -> List[_Cell]:
            """Finish the lost cells whose entries a worker wrote; return the rest."""
            unfinished = []
            for task, key, attempt in cells:
                payload = (self.cache.get(key)
                           if self.cache is not None and key else None)
                if payload is None:
                    unfinished.append((task, key, attempt))
                else:
                    self._finish_ran(task, key, payload, source, attempt,
                                     host_now() - submitted)
            return unfinished

        try:
            fill()
            while pending:
                future = finished.get()
                if future not in pending:
                    continue  # from a pool already replaced as broken
                batch, submitted = pending.pop(future)
                try:
                    outcomes = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    # The batch is lost; the cells of it that a worker
                    # already wrote to the cache are done, not retried.
                    lost = salvage(batch, submitted)
                    if isinstance(exc, BrokenProcessPool):
                        # The pool died with every batch in flight.
                        # Rebuild it; batches that returned before the
                        # break still arrive through the queue.
                        for other, (cells, sent) in list(pending.items()):
                            if not (other.done() and not other.cancelled()
                                    and other.exception() is None):
                                del pending[other]
                                lost += salvage(cells, sent)
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = new_pool()
                    if lost:
                        retry_or_raise(lost, exc)
                else:
                    received = host_now() - submitted
                    ran = outcomes[-1][0]
                    failed: List[_Cell] = []
                    error: Optional[Exception] = None
                    for (task, key, attempt), (ended, outcome) in zip(batch, outcomes):
                        if isinstance(outcome, _CellError):
                            failed.append((task, key, attempt))
                            error = outcome.unwrap()
                        else:
                            # submit-to-result, less the batch's later cells
                            self._finish_ran(task, key, outcome, source, attempt,
                                             received - (ran - ended))
                    if error is not None:
                        retry_or_raise(failed, error)
                fill()
        finally:
            stop.set()
            # Running batches end at their next cell boundary; wait for
            # that only when their entries still need counting.
            pool.shutdown(wait=bool(self.outstanding), cancel_futures=True)
            for key in sorted(self.outstanding):
                if self.cache is not None and key in self.cache:
                    self.cache.record(key)

    def _finish_ran(self, task: CellTask, key: Optional[str], payload: dict,
                    source: str, attempt: int, host_seconds: float) -> None:
        """Finish a cell that ran; ``run_cell_batch`` wrote its cache entry."""
        if self.cache is not None and key is not None:
            self.outstanding.discard(key)
            self.cache.record(key)
        self._finish(task, payload, source, attempt, host_seconds)

    def _aggregate_costs(self, ordered: List[RunResult]) -> None:
        """Fold every cell's cost record into the scheduler's metrics.

        Each run journal ends with a ``cost`` event (live, pooled, and
        cached cells alike), read from the journal's last line, so the
        grid's bill lands in ``_scheduler.jsonl`` as ``cost.*`` counters
        next to the cache-hit/retry story.
        """
        from ..obs.cost import aggregate_costs

        events = []
        for result in ordered:
            event = (None if result.observation is None
                     else result.observation.cost())
            if event is not None:
                events.append(event)
        if not events:
            return
        totals = aggregate_costs(events)
        for name in sorted(totals):
            self.obs.metrics.counter(f"cost.{name}").inc(totals[name])

    def build(self) -> GridExecution:
        """Assemble the grid in plan order and close the scheduler story."""
        from ..core.runner import ResultGrid

        grid = ResultGrid()
        ordered = [self.results[task.index] for task in self.tasks]
        for result in ordered:
            grid.put(result)
        elapsed = host_now() - self.start
        self.obs.metrics.gauge("exec.jobs").set(self.jobs)
        self._aggregate_costs(ordered)
        report = ExecutionReport(
            cells=len(self.tasks),
            cache_hits=self.hits,
            executed=self.executed,
            retries=self.retries,
            jobs=self.jobs,
            resumed=self.resume,
            host_seconds=elapsed,
        )
        self.obs.meta = {
            "kind": "scheduler",
            "cells": report.cells,
            "cache_hits": report.cache_hits,
            "executed": report.executed,
            "retries": report.retries,
            "jobs": report.jobs,
            "resume": report.resumed,
            "cache": self.cache is not None,
        }
        return GridExecution(
            grid=grid, report=report, observation=self.obs, results=ordered
        )


def execute_grid(
    spec: "ExperimentSpec",
    *,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    retry: Optional[RetryPolicy] = None,
) -> GridExecution:
    """Run one experiment grid: parallel, cached, resumable.

    Parameters
    ----------
    spec:
        The experiment matrix to run.
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``. ``1`` runs
        every cell inline in this process (the classic sequential loop).
    cache:
        A :class:`ResultCache`, a cache directory path, or ``None`` to
        disable caching entirely.
    resume:
        Pick up an interrupted grid: requires an existing cache
        directory (so a mistyped path fails loudly instead of silently
        recomputing everything).
    progress:
        Per-cell callback (see :mod:`repro.exec.progress`); the CLI,
        the runner's ``verbose`` mode, and the tests all share it.
    retry:
        Bounded backoff policy for crashed workers.
    """
    return execute_specs(
        [spec], jobs=jobs, cache=cache, resume=resume, progress=progress,
        retry=retry,
    )


def execute_specs(
    specs: Sequence["ExperimentSpec"],
    *,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    retry: Optional[RetryPolicy] = None,
) -> GridExecution:
    """Run several specs as one pooled, cached execution.

    The plan concatenates each spec's cells in caller order; everything
    else — cache scan, fan-out, retry, plan-order assembly — behaves
    exactly like :func:`execute_grid`. This is how the chaos experiment
    runs the same (system, workload, dataset, size) coordinates under
    many fault plans at once: consume ``GridExecution.results`` (plan
    order) rather than the coordinate-keyed ``grid``, where cells that
    share coordinates overwrite each other.
    """
    resolved_cache = _resolve_cache(cache)
    if resume:
        if resolved_cache is None:
            raise ExecutorError("resume requires a result cache")
        if not resolved_cache.cache_dir.is_dir():
            raise ExecutorError(
                f"nothing to resume: cache directory "
                f"{resolved_cache.cache_dir} does not exist"
            )
    run = _GridRun(
        specs=specs,
        jobs=max(1, jobs if jobs is not None else (os.cpu_count() or 1)),
        cache=resolved_cache,
        resume=resume,
        progress=progress,
        retry=retry if retry is not None else RetryPolicy(),
    )
    root = run.obs.tracer.start(
        "grid", cat="scheduler", jobs=run.jobs, resume=resume,
        cache=resolved_cache is not None,
    )
    try:
        misses = run.plan()
        pooled = run.jobs > 1
        run.run_cells([m for m in misses if pooled and m[0].portable], run.jobs)
        run.run_cells([m for m in misses if not (pooled and m[0].portable)], 1)
    finally:
        run.obs.tracer.end(
            root, cells=len(run.tasks), cache_hits=run.hits,
            executed=run.executed, retries=run.retries,
        )
    return run.build()
