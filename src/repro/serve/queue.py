"""Weighted fair queueing with strict priority classes and admission control.

The daemon serves many clients from one queue, so two policies decide
who runs next and who gets in at all:

* **Service order** — strict priority classes first (a higher
  ``priority`` always preempts queued lower-priority work), and
  *weighted fair queueing* inside a class: each job is tagged at
  admission with a virtual finish time ``vstart + cells / weight``,
  where ``vstart`` chains off the same client's previous job (a client
  cannot bank idle credit) and the queue's virtual clock advances with
  served work. Picking the smallest tag gives each client a long-run
  share proportional to its weight — the classic start-time fair
  queueing scheme — with the global submission sequence as the
  deterministic tie-breaker, so the same submission history always
  yields the same service order.

* **Admission** — the queue bounds its backlog in *cells* (the unit of
  service cost), not jobs, so one client cannot wedge the daemon behind
  a thousand-cell grid. A submission that would overflow is rejected
  with a ``retry_after`` hint proportional to the backlog; clients back
  off and resubmit (see :meth:`ServeClient.submit`).

* **Load shedding** — before rejecting a *strictly higher-priority*
  submission, the daemon may shed queued work from the lowest priority
  class (:meth:`FairQueue.shed_for`): victims are taken from the back
  of the service order and cancelled with a ``shed`` error, so urgent
  work displaces background work instead of bouncing off a queue the
  background work filled.

The queue is plain single-threaded state: only the daemon's event loop
calls it, which keeps the policy deterministic and directly
unit-testable without threads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .protocol import JOB_CANCELLED, JOB_QUEUED, Job

__all__ = ["FairQueue"]

#: retry_after grows with backlog: a rough 50 ms of host time per
#: queued cell — a pacing hint, never a simulated quantity
_RETRY_PER_CELL = 0.05


class FairQueue:
    """The daemon's pending-job set: priorities, fairness, admission."""

    def __init__(self, max_cells: int = 256) -> None:
        if max_cells <= 0:
            raise ValueError("max_cells must be positive")
        self.max_cells = max_cells
        self._pending: List[Job] = []
        #: the queue's virtual clock: advances as work is served
        self._vtime = 0.0
        #: each client's last assigned virtual finish tag
        self._client_vfinish: Dict[str, float] = {}

    # -- admission ---------------------------------------------------------

    def backlog_cells(self) -> int:
        """Cells waiting in the queue (the admission-control quantity).

        Only live (still-queued) jobs count: cancelled entries awaiting
        the lazy sweep hold no capacity against new admissions.
        """
        return sum(job.request.cells for job in self._live())

    def offer(self, job: Job) -> Optional[float]:
        """Admit ``job`` or reject it.

        Returns ``None`` on admission; on rejection returns the
        ``retry_after`` hint (host seconds) and leaves the queue
        untouched.
        """
        backlog = self.backlog_cells()
        if backlog + job.request.cells > self.max_cells:
            overflow = backlog + job.request.cells - self.max_cells
            return round(_RETRY_PER_CELL * max(1, overflow), 3)
        client = job.request.client
        vstart = max(self._vtime, self._client_vfinish.get(client, 0.0))
        job.vfinish = vstart + job.request.cells / job.request.weight
        self._client_vfinish[client] = job.vfinish
        self._pending.append(job)
        return None

    # -- service order -----------------------------------------------------

    @staticmethod
    def _service_key(job: Job):
        return (-job.request.priority, job.vfinish, job.seq)

    def _live(self) -> List[Job]:
        return [job for job in self._pending if job.state == JOB_QUEUED]

    def take(self) -> Optional[Job]:
        """Pop the next job to serve (or ``None`` when idle).

        Cancelled entries are swept out lazily here; taking a job
        advances the virtual clock to its finish tag so newly admitted
        work cannot start "in the past".
        """
        live = self._live()
        if not live:
            self._pending = []
            return None
        job = min(live, key=self._service_key)
        self._pending = [j for j in live if j is not job]
        self._vtime = max(self._vtime, job.vfinish)
        return job

    def order(self) -> List[Job]:
        """Every queued job in current service order (for ``status``)."""
        return sorted(self._live(), key=self._service_key)

    def position(self, job_id: str) -> Optional[int]:
        """0-based place in the service order, or ``None`` if not queued."""
        for index, job in enumerate(self.order()):
            if job.id == job_id:
                return index
        return None

    # -- load shedding -----------------------------------------------------

    def shed_for(self, job: Job) -> List[Job]:
        """Evict queued lower-priority work until ``job`` would fit.

        Victims come from the back of the service order and only from
        priority classes *strictly below* the newcomer's — equal-priority
        work is never displaced, so two same-class clients cannot shed
        each other. Returns the shed jobs (state already
        ``cancelled``, removed from the queue); empty when shedding
        cannot make room.
        """
        shed: List[Job] = []
        while self.backlog_cells() + job.request.cells > self.max_cells:
            live = self._live()
            if not live:
                break
            victim = max(live, key=self._service_key)
            if victim.request.priority >= job.request.priority:
                break
            victim.state = JOB_CANCELLED
            self._pending = [j for j in self._pending if j is not victim]
            shed.append(victim)
        return shed

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job in place; running/finished jobs are not ours."""
        for job in self._pending:
            if job.id == job_id and job.state == JOB_QUEUED:
                job.state = JOB_CANCELLED
                return True
        return False

    def __len__(self) -> int:
        return len(self._live())

    def __repr__(self) -> str:
        return (f"FairQueue({len(self)} jobs, {self.backlog_cells()}/"
                f"{self.max_cells} cells)")
