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

The executor observes itself: scheduler spans (plan, one per cell) and
cache hit/miss/retry counters land in a host-clock
:class:`~repro.obs.RunObservation`, journalable next to the per-cell
simulated-clock journals.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from queue import SimpleQueue
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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
from .serialize import payload_to_result, result_to_payload
from .workers import _maybe_inject_fault, run_cell_task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.runner import ExperimentSpec, ResultGrid

__all__ = ["ExecutionReport", "GridExecution", "execute_grid", "execute_specs"]


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

    # -- bookkeeping -------------------------------------------------------

    def _finish(
        self,
        task: CellTask,
        result: RunResult,
        source: str,
        attempts: int,
        host_seconds: float,
    ) -> None:
        """Record one finished cell: span, counters, progress, result."""
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
                task=task, result=result, source=source, attempts=attempts,
                done=self.done, total=len(self.tasks),
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
                self._finish(
                    task, payload_to_result(payload), SOURCE_CACHE,
                    attempts=1, host_seconds=0.0,
                )
            else:
                misses.append((task, key))
        return misses

    def run_inline(self, task: CellTask, key: Optional[str]) -> None:
        """Execute one cell in this process (the ``jobs=1`` path)."""
        from ..core.runner import run_cell

        dataset = self.datasets[(task.dataset, task.size)]
        attempt = 1
        while True:
            t0 = host_now()
            try:
                _maybe_inject_fault(task.payload(attempt))
                result = run_cell(
                    task.system, task.workload, dataset, task.cluster_size,
                    chaos=task.chaos,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # worker-equivalent failure: retry
                if attempt >= self.retry.max_attempts:
                    raise self._exhausted(task, attempt, exc) from exc
                self._count_retry()
                host_sleep(self.retry.delay(attempt))
                attempt += 1
                continue
            if self.cache is not None and key is not None:
                self.cache.put(key, result_to_payload(result))
            self._finish(
                task, result, SOURCE_INLINE, attempt, host_now() - t0
            )
            return

    def run_pool(self, misses: List[Tuple[CellTask, Optional[str]]]) -> None:
        """Fan portable cells out over a process pool, with retry.

        Each future announces itself on one queue when it finishes, so a
        completion costs one ``get`` rather than a waiter on every
        pending future.
        """
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        pending: Dict[Future, Tuple[CellTask, Optional[str], int, float]] = {}
        finished: "SimpleQueue[Future]" = SimpleQueue()

        def submit(task: CellTask, key: Optional[str], attempt: int) -> None:
            try:
                future = pool.submit(run_cell_task, task.payload(attempt))
            except BrokenProcessPool as exc:
                # a worker died before every cell was submitted: fail
                # this cell like the ones in flight, so the loop below
                # rebuilds the pool once for all of them
                future = Future()
                future.set_exception(exc)
            pending[future] = (task, key, attempt, host_now())
            future.add_done_callback(finished.put)

        def retry_or_raise(
            cells: List[Tuple[CellTask, Optional[str], int]], exc: Exception
        ) -> None:
            """Back off once for one failure, then resubmit every cell.

            A broken pool fails every cell in flight at once; one
            worker death is still one backoff, not one per cell.
            """
            for task, _, attempt in cells:
                if attempt >= self.retry.max_attempts:
                    raise self._exhausted(task, attempt, exc) from exc
            host_sleep(self.retry.delay(max(a for _, _, a in cells)))
            for task, key, attempt in cells:
                self._count_retry()
                submit(task, key, attempt + 1)

        try:
            for task, key in misses:
                submit(task, key, 1)
            while pending:
                future = finished.get()
                if future not in pending:
                    continue  # from a pool already replaced as broken
                task, key, attempt, submitted = pending.pop(future)
                try:
                    payload = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BrokenProcessPool as exc:
                    # The pool is dead: rebuild it, re-queue this cell and
                    # everything still in flight (their results, if any,
                    # died with the workers).
                    pool.shutdown(wait=False)
                    pool = ProcessPoolExecutor(max_workers=self.jobs)
                    requeue = [(task, key, attempt)] + [
                        (t, k, a) for (t, k, a, _) in pending.values()
                    ]
                    pending.clear()
                    retry_or_raise(requeue, exc)
                except Exception as exc:
                    retry_or_raise([(task, key, attempt)], exc)
                else:
                    if self.cache is not None and key is not None:
                        self.cache.put(key, payload)
                    self._finish(
                        task, payload_to_result(payload), SOURCE_RUN,
                        attempt, host_now() - submitted,
                    )
        finally:
            pool.shutdown(wait=False)

    def _aggregate_costs(self, ordered: List[RunResult]) -> None:
        """Fold every cell's cost record into the scheduler's metrics.

        Each run journal ends with a ``cost`` event (live, pooled, and
        cached cells alike), read from the frozen journal's last line,
        so the grid's bill lands in ``_scheduler.jsonl`` as ``cost.*``
        counters next to the cache-hit/retry story.
        """
        from ..obs.cost import CostReport, aggregate_costs

        reports = []
        for result in ordered:
            if result.observation is None:
                continue
            event = result.observation.cost()
            if event is not None:
                reports.append(CostReport.from_event(event))
        if not reports:
            return
        totals = aggregate_costs(reports)
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
        if run.jobs > 1:
            parallel = [(t, k) for t, k in misses if t.portable]
            inline = [(t, k) for t, k in misses if not t.portable]
        else:
            parallel, inline = [], misses
        if parallel:
            run.run_pool(parallel)
        for task, key in inline:
            run.run_inline(task, key)
    finally:
        run.obs.tracer.end(
            root, cells=len(run.tasks), cache_hits=run.hits,
            executed=run.executed, retries=run.retries,
        )
    return run.build()
