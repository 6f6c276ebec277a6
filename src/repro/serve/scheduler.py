"""The serving scheduler: one job at a time through the shared executor.

This is the ``run()`` half of the submit/run split (seisflows'
``Cluster.submit()`` hands work to a workload manager that executes it;
here the daemon's event loop is the submitter and this module the
manager). :class:`JobRunner` runs on the daemon's one executor thread,
``serve-scheduler``, and routes every job through
:func:`repro.exec.execute_specs` with one shared
:class:`~repro.exec.cache.ResultCache`, which is what makes the daemon
worth sharing:

* the **warm dataset pool** — datasets are process-memoized by
  ``load_dataset``, so the first job to touch (name, size) pays
  generation and every later job reuses the object;
* the **warm result cache** — content-addressed cells survive across
  jobs *and* across clients, so overlapping submissions replay
  byte-identical results instead of recomputing.

Because cells execute through the very same code path as a one-shot
``repro grid``, a served result is bit-equal to the grid the client
would have computed alone (``ResultGrid.same_results`` plus
byte-identical per-cell journals) — the serving layer adds queueing,
never new numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..exec.cache import ResultCache
from ..exec.executor import execute_specs
from ..exec.progress import SOURCE_CACHE, CellEvent
from ..exec.retry import ExecutorError
from ..exec.serialize import result_to_payload
from .protocol import JOB_DONE, JOB_FAILED

__all__ = ["JobInterrupted", "JobOutcome", "JobRunner"]


@dataclass(frozen=True)
class JobOutcome:
    """A finished job's terminal verdict, as the executor thread posts it.

    ``run_job`` returns one of these instead of touching the daemon's
    :class:`~repro.serve.protocol.Job` record; the event loop applies
    it in one step, so a job is running, then done/failed/cancelled.
    """

    state: str
    error: Optional[str] = None
    cost_dollars: float = 0.0


class JobInterrupted(Exception):
    """Raised inside the progress hook to stop a running job's grid.

    The progress callback fires at every cell boundary *outside* the
    executor's retry machinery, so raising here unwinds cleanly out of
    :func:`execute_specs` — the cooperative path that makes running
    jobs cancellable (``serve-ctl cancel``, deadline expiry) without
    killing the executor thread.
    """

    def __init__(self, state: str, error: str) -> None:
        super().__init__(error)
        self.state = state
        self.error = error


class JobRunner:
    """Executes admitted jobs against the shared warm cache pool."""

    def __init__(
        self,
        cache: Union[None, str, Path, ResultCache],
        jobs: int = 1,
        cache_budget: Optional[int] = None,
    ) -> None:
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache, max_cells=cache_budget)
        self.cache = cache
        self.jobs = max(1, jobs)

    def run_job(self, job, on_cell, should_stop=None) -> JobOutcome:
        """Execute one job's grid, streaming payloads in plan order.

        ``job`` is anything with a ``request`` (the daemon passes its
        immutable work order) and is only handed back to the callbacks:
        every rendered payload goes to the mandatory ``on_cell``
        callback as ``on_cell(job, payload, from_cache)``, which is how
        the daemon publishes it. ``should_stop`` is polled at the same
        cell boundary: returning a ``(state, error)`` pair interrupts
        the grid cooperatively with the completed payload prefix
        intact — how a running job honours ``cancel`` and deadline
        expiry. The terminal verdict
        comes back as a :class:`JobOutcome`; an executor-level failure
        (retry exhaustion, broken cache) fails the job rather than
        killing the daemon.
        """

        def progress(event: CellEvent) -> None:
            payload = result_to_payload(event.result)
            on_cell(job, payload, event.source == SOURCE_CACHE)
            if should_stop is not None:
                stop = should_stop(job)
                if stop is not None:
                    raise JobInterrupted(*stop)

        try:
            execution = execute_specs(
                [job.request.to_spec()],
                jobs=self.jobs,
                cache=self.cache,
                progress=progress,
            )
        except JobInterrupted as exc:
            return JobOutcome(state=exc.state, error=exc.error)
        except ExecutorError as exc:
            return JobOutcome(state=JOB_FAILED, error=str(exc))
        return JobOutcome(
            state=JOB_DONE,
            cost_dollars=_metric(execution, "cost.dollars"),
        )


def _metric(execution, name: str) -> float:
    try:
        return float(execution.observation.metrics.value(name))
    except KeyError:
        return 0.0
