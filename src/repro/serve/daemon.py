"""The benchmark-as-a-service daemon: one event loop, one executor thread.

``repro serve`` starts a long-lived process that accepts experiment
submissions over a local stream socket (a unix path, or ``host:port``
on loopback for environments without ``AF_UNIX``). One ``selectors``
loop owns everything that changes: the listening and client sockets,
the :class:`~repro.serve.queue.FairQueue`, the job registry and the
:class:`~repro.serve.stats.ServerStats`. Cells run on exactly one
executor thread, ``serve-scheduler``, through
:meth:`~repro.serve.scheduler.JobRunner.run_job`. That thread gets an
immutable :class:`WorkOrder` and answers only by posting messages to a
queue and writing one byte to a wake socket the loop selects on. No
state is shared, so nothing is locked. The service order is exactly the
queue's deterministic policy, and a served grid is bit-equal to the
one-shot ``repro grid`` a client would have run alone.

Lifecycle of a submission::

    submit ──admission──▶ queued ──fair order──▶ running ──▶ done
        │ (queue-full → retry_after,                │
        │  or shed lower-priority queued work)      │
        └── cancel / deadline / shed ──▶ cancelled ─┘──▶ failed

Cancellation is cooperative all the way: a queued job flips in place,
a *running* job gets ``cancel_requested`` set and its work order's
cancel event fired, and stops at its next cell boundary (the executor
checks the event — and the order's deadline — from the progress hook),
keeping its completed payload prefix streamable. Deadlines are
host-seconds budgets from submission: a queued job is cancelled when
its deadline passes, a running one at its next cell boundary.

A ``wait`` on a live job is parked in the loop and answered when the
job reaches a terminal state or the wait times out; the loop's
``select`` sleeps until the nearest such deadline, so no thread blocks
on a client.

Two ways down. ``shutdown`` (or :meth:`ServeDaemon.stop`) drains
nothing: the running job stops at its next cell boundary and queued
jobs fail with a clean error. ``drain`` stops admissions (submissions
answer ``draining``), lets the running job and the whole queue finish,
then shuts the daemon down cleanly. Either way the daemon writes its
own journal — ``_server.jsonl`` with meta ``kind="server"``, per-job
spans, queue-wait/service/latency histograms, and the sheds /
deadline-expiry / cache-eviction counters — before returning, so every
serving session leaves the same evidence trail a grid run does.
"""

from __future__ import annotations

import math
import queue
import selectors
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Set, Tuple, Union

from ..obs import Tracer
from ..obs.hostclock import host_now
from .protocol import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    Job,
    JobRequest,
    ProtocolError,
    decode_frame,
    dumps_message,
    error_response,
    ok_response,
)
from .queue import FairQueue
from .scheduler import JobOutcome, JobRunner
from .stats import ServerStats, server_observation

__all__ = ["ServeDaemon", "WorkOrder", "parse_address", "DEFAULT_SOCKET"]

#: the CLI's default rendezvous point, relative to the working directory
DEFAULT_SOCKET = ".repro-serve.sock"

#: how a deadline cancellation's error message starts (queued or running)
DEADLINE_EXCEEDED = "deadline-exceeded"

#: bytes taken from a readable client socket per loop turn
_RECV_BYTES = 1 << 16

#: host seconds a closing daemon spends flushing each client's last answer
_FLUSH_TIMEOUT = 1.0

#: the longest one ``select`` sleeps before re-checking its deadlines
#: (epoll refuses timeouts past ~24.8 days, and a wait may ask for more)
_MAX_SLEEP = 3600.0


def parse_address(text: str) -> Tuple[str, object]:
    """Classify an address string: a unix socket path or ``host:port``.

    Anything containing a path separator (or with no ``:`` at all) is a
    filesystem path; ``host:port`` with a numeric port is TCP on that
    interface (use ``127.0.0.1:0`` to let the OS pick a test port).
    """
    if "/" in text or ":" not in text:
        return ("unix", text)
    host, _, port = text.rpartition(":")
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        return ("unix", text)


# -- the executor thread ----------------------------------------------------

@dataclass(frozen=True)
class WorkOrder:
    """All the executor thread learns about one job."""

    job_id: str
    request: JobRequest
    #: absolute host time the job must finish by (0 = no deadline)
    deadline_host: float
    #: set by the loop to stop the job at its next cell boundary
    cancel: threading.Event


def stop_reason(order: WorkOrder, completed: int) -> Optional[Tuple[str, str]]:
    """Cell-boundary check: must the order stop here? Cancel wins."""
    progress = f"after {completed} of {order.request.cells} cells"
    if order.cancel.is_set():
        return (JOB_CANCELLED, f"cancelled {progress}")
    if 0.0 < order.deadline_host <= host_now():
        return (JOB_CANCELLED, f"{DEADLINE_EXCEEDED} {progress}")
    return None


def _run_order(runner: JobRunner, order: WorkOrder, post) -> JobOutcome:
    completed = 0

    def on_cell(_order: WorkOrder, payload: dict, from_cache: bool) -> None:
        nonlocal completed
        completed += 1
        post(("cell", order.job_id, payload, from_cache))

    return runner.run_job(order, on_cell,
                          should_stop=lambda _order: stop_reason(order, completed))


#: the verdict on a job whose run raised instead of returning an outcome
_CRASHED = JobOutcome(state=JOB_FAILED, error="executor crashed")


def _execute_orders(runner: JobRunner, orders: "queue.Queue",
                    outbox: "queue.Queue", wake: socket.socket) -> None:
    """The ``serve-scheduler`` thread: run each order, post what happens.

    It sees only its arguments: work orders arrive on ``orders`` (``None``
    ends the thread), and every payload and verdict leaves through
    ``outbox`` followed by one byte on ``wake``.
    """

    def post(message: tuple) -> None:
        outbox.put(message)
        _ring(wake)

    while True:
        order = orders.get()
        if order is None:
            return
        outcome = None
        try:
            outcome = _run_order(runner, order, post)
        finally:
            evictions = runner.cache.evictions if runner.cache is not None else 0
            post(("done", order.job_id, outcome or _CRASHED, evictions))
            if outcome is None:
                # the daemon cannot serve without this thread: stop it
                # cleanly while the traceback goes to stderr
                post(("stop",))


def _ring(wake: socket.socket) -> None:
    """Wake the loop; a full wake buffer already guarantees a wake-up."""
    try:
        wake.send(b"\0")
    except OSError:
        pass


# -- the event loop -----------------------------------------------------------

class _Parked(NamedTuple):
    """A ``wait`` the loop answers once its job ends or its time is up."""

    job_id: str
    deadline: float


class _Connection:
    """One client socket and its unparsed input and unsent output."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = selectors.EVENT_READ
        self.parked: Optional[_Parked] = None
        #: hang up once ``outbuf`` is flushed
        self.closing = False


class ServeDaemon:
    """The serving process: socket front, fair queue, one executor thread."""

    def __init__(
        self,
        address: str = DEFAULT_SOCKET,
        cache: Union[None, str, Path] = None,
        jobs: int = 1,
        max_queue_cells: int = 256,
        journal_path: Union[None, str, Path] = None,
        cache_budget: Optional[int] = None,
        default_deadline: float = 0.0,
    ) -> None:
        if not (math.isfinite(default_deadline) and default_deadline >= 0):
            raise ValueError("default_deadline must be finite and >= 0 "
                             "host seconds")
        self.journal_path = Path(journal_path) if journal_path else None
        self.start_host = host_now()
        self.tracer = Tracer(lambda: host_now() - self.start_host)
        self.stats = ServerStats(start_host=self.start_host)
        self.runner = JobRunner(cache, jobs=jobs, cache_budget=cache_budget)
        self.queue = FairQueue(max_cells=max_queue_cells)
        #: host-seconds budget stamped on jobs that carry none of their own
        self.default_deadline = default_deadline
        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        self._stopping = False
        self._draining = False
        #: the order on the executor thread, and its job's ``job`` span
        self._running: Optional[WorkOrder] = None
        self._span = None
        self._conns: Set[_Connection] = set()
        self._orders: "queue.Queue" = queue.Queue()
        self._outbox: "queue.Queue" = queue.Queue()
        self._wake_r, self._wake_w = socket.socketpair()
        for end in (self._wake_r, self._wake_w):
            end.setblocking(False)
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[threading.Thread] = None
        self._closed = threading.Event()
        self._failure: Optional[BaseException] = None

        kind, target = parse_address(address)
        if kind == "unix":
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
                raise OSError("AF_UNIX is unavailable; use host:port")
            path = Path(target)
            if path.exists():
                path.unlink()
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(str(target))
            self._listener.listen(128)
            self.address = str(target)
            self._socket_path: Optional[Path] = path
        else:
            self._listener = socket.create_server(tuple(target), backlog=128)
            host, port = self._listener.getsockname()[:2]
            self.address = f"{host}:{port}"
            self._socket_path = None
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Run the event loop on a background thread."""
        self._thread = threading.Thread(
            target=self._serve_in_background, name="serve-loop", daemon=True
        )
        self._thread.start()
        return self

    def _serve_in_background(self) -> None:
        try:
            self.serve_forever()
        except BaseException as exc:  # re-raised by stop() in its caller
            self._failure = exc

    def serve_forever(self) -> None:
        """Run the loop here until shutdown or drain (the ``repro serve`` path)."""
        self._executor = threading.Thread(
            target=_execute_orders, name="serve-scheduler", daemon=True,
            args=(self.runner, self._orders, self._outbox, self._wake_w),
        )
        self._executor.start()
        try:
            while not self._exiting():
                self._turn()
        finally:
            self._finish()

    def stop(self) -> None:
        """Stop serving, wind down the running job, write the journal.

        The in-flight job (if any) is cancelled cooperatively at its
        next cell boundary; still-queued jobs are failed with a clean
        error payload. Use the ``drain`` op to finish the backlog
        instead. Safe to call from any thread, and more than once. An
        error that ended the background loop (say, an unwritable journal
        path) is raised here.
        """
        if self._thread is None and self._executor is None:
            self._finish()  # never served: no loop owns the state
            return
        self._outbox.put(("stop",))
        _ring(self._wake_w)
        if self._thread is None:
            self._closed.wait()  # serve_forever's own thread finishes
            return
        self._thread.join()
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def _exiting(self) -> bool:
        if self._running is not None:
            return False
        return self._stopping or (self._draining and len(self.queue) == 0)

    def _begin_stop(self) -> None:
        self._stopping = True
        if self._running is not None:
            self.jobs[self._running.job_id].cancel_requested = True
            self._running.cancel.set()

    def _finish(self) -> None:
        if self._closed.is_set():
            return
        try:
            self._wind_down()
        finally:
            self._closed.set()  # even if the journal write failed

    def _wind_down(self) -> None:
        self._begin_stop()
        self._orders.put(None)
        if self._executor is not None:
            self._executor.join()
        self._apply_outbox()  # the executor's last payloads and verdict
        for job in self.jobs.values():
            if not job.done:
                # whatever never reached a terminal state gets a clean
                # error payload instead of limbo
                self.queue.cancel(job.id)
                job.state = JOB_FAILED
                job.error = "daemon stopped before the job was served"
                self._settle(job)
        for conn in list(self._conns):
            if conn.outbuf:
                try:
                    conn.sock.settimeout(_FLUSH_TIMEOUT)
                    conn.sock.sendall(conn.outbuf)
                except OSError:
                    pass
            self._close(conn)
        self._selector.close()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        if self._socket_path is not None and self._socket_path.exists():
            self._socket_path.unlink()
        if self.journal_path is not None:
            self.write_journal(self.journal_path)

    def write_journal(self, path: Union[str, Path]) -> Path:
        """Write ``_server.jsonl`` for this serving session.

        It reads the loop's stats, so call it while the daemon is idle
        or after it stopped (the daemon itself writes it on the way out).
        """
        obs = server_observation(self.stats, self.address, tracer=self.tracer)
        path = Path(path)
        obs.journal().write(path)
        return path

    # -- one loop turn --------------------------------------------------------

    def _turn(self) -> None:
        for key, _ in self._selector.select(self._timeout()):
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._wake_r:
                try:
                    self._wake_r.recv(4096)
                except OSError:
                    pass
            else:
                conn = key.data
                if conn in self._conns:
                    self._on_ready(conn, key.events)
        self._apply_outbox()
        now = host_now()
        self._expire(now)
        self._start_next(now)

    def _timeout(self) -> Optional[float]:
        """Seconds until the nearest parked-wait or queued-job deadline."""
        deadlines = [c.parked.deadline for c in self._conns if c.parked]
        deadlines += [j.deadline_host for j in self.queue.order()
                      if j.deadline_host > 0.0]
        if not deadlines:
            return None
        return min(_MAX_SLEEP, max(0.0, min(deadlines) - host_now()))

    def _apply_outbox(self) -> None:
        """Fold the executor's messages (and ``stop()``) into loop state."""
        while True:
            try:
                message = self._outbox.get_nowait()
            except queue.Empty:
                return
            if message[0] == "cell":
                _, job_id, payload, from_cache = message
                job = self.jobs[job_id]
                job.payloads.append(payload)
                if from_cache:
                    job.cache_hits += 1
                else:
                    job.executed += 1
            elif message[0] == "done":
                _, job_id, outcome, evictions = message
                job = self.jobs[job_id]
                job.state = outcome.state
                job.error = outcome.error
                job.cost_dollars = outcome.cost_dollars
                self.stats.evictions = evictions
                self.tracer.end(self._span)
                self._running = self._span = None
                self._settle(job)
            else:
                self._begin_stop()

    def _expire(self, now: float) -> None:
        """Cancel queued jobs past their deadline; time out parked waits."""
        for job in self.queue.order():
            if job.expired(now):
                self.queue.cancel(job.id)
                job.error = f"{DEADLINE_EXCEEDED} before start"
                self._settle(job)
        for conn in list(self._conns):
            if conn.parked is not None and conn.parked.deadline <= now:
                job = self.jobs[conn.parked.job_id]
                conn.parked = None
                self._send(conn, error_response(
                    "timeout", f"job {job.id} still {job.state}",
                    **job.status_dict(),
                ))
                self._serve_frames(conn)

    def _start_next(self, now: float) -> None:
        """Hand the next queued job to the executor when it is idle."""
        if self._running is not None or self._stopping:
            return
        job = self.queue.take()
        if job is None:
            return
        job.state = JOB_RUNNING
        job.started_host = now
        request = job.request
        self._span = self.tracer.start(
            "job", cat="serve", job=job.id, client=request.client,
            cells=request.cells, priority=request.priority,
        )
        self._running = WorkOrder(job.id, request, job.deadline_host,
                                  threading.Event())
        self._orders.put(self._running)

    def _settle(self, job: Job) -> None:
        """Book a job that just reached a terminal state; answer its waits."""
        job.finished_host = host_now()
        if job.error is not None and job.error.startswith(DEADLINE_EXCEEDED):
            self.stats.deadline_expired += 1
        self.stats.record_job(job)
        for conn in list(self._conns):
            if conn.parked is not None and conn.parked.job_id == job.id:
                conn.parked = None
                self._send(conn, ok_response(**job.status_dict()))
                self._serve_frames(conn)

    # -- sockets --------------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError: nobody else is waiting
                return
            sock.setblocking(False)
            conn = _Connection(sock)
            self._conns.add(conn)
            self._selector.register(sock, conn.events, conn)

    def _on_ready(self, conn: _Connection, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            self._flush(conn)
        if not events & selectors.EVENT_READ or conn not in self._conns:
            return
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            # the client hung up: a parked wait goes with it, its job runs on
            self._close(conn)
            return
        conn.inbuf += data
        self._serve_frames(conn)

    def _serve_frames(self, conn: _Connection) -> None:
        """Answer every complete frame, in order, until a wait parks."""
        while conn in self._conns and conn.parked is None and not conn.closing:
            end = conn.inbuf.find(b"\n")
            if end < 0 and len(conn.inbuf) <= MAX_LINE_BYTES:
                return  # the rest of the frame is still on its way
            line = bytes(conn.inbuf[:end + 1] if end >= 0 else conn.inbuf)
            del conn.inbuf[:len(line)]
            try:
                message = decode_frame(line)
            except ProtocolError as exc:
                # the stream may be desynchronized: answer once, hang up
                conn.closing = True
                self._send(conn, error_response("protocol", str(exc)))
                return
            try:
                response = self.dispatch(message)
            except ProtocolError as exc:
                response = error_response("protocol", str(exc))
            if isinstance(response, _Parked):
                conn.parked = response
            else:
                self._send(conn, response)

    def _send(self, conn: _Connection, response: dict) -> None:
        conn.outbuf += dumps_message(response)
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(conn)
                return
            del conn.outbuf[:sent]
        if conn.closing and not conn.outbuf:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.outbuf else 0
        if not conn.closing:
            events |= selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    # -- protocol dispatch --------------------------------------------------

    def dispatch(self, message: dict) -> Union[dict, _Parked]:
        """Answer one request frame; a ``wait`` on a live job parks."""
        op = message.get("op")
        if op not in OPS:
            return error_response("unknown-op", f"unknown op {op!r}")
        return getattr(self, f"_op_{op}")(message)

    def _job_for(self, message: dict) -> Job:
        job_id = message.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        return job

    def _op_ping(self, message: dict) -> dict:
        return ok_response(version=PROTOCOL_VERSION, address=self.address)

    def _op_submit(self, message: dict) -> dict:
        request = JobRequest.from_dict(message.get("job"))
        if self._stopping:
            return error_response("shutting-down", "daemon is stopping")
        if self._draining:
            return error_response("draining", "daemon is draining")
        self._seq += 1
        job = Job(
            id=f"j-{self._seq:06d}", request=request, seq=self._seq,
            submitted_host=host_now(),
        )
        deadline = request.deadline or self.default_deadline
        if deadline > 0:
            job.deadline_host = job.submitted_host + deadline
        retry_after = self.queue.offer(job)
        if retry_after is not None:
            # before bouncing a higher-priority job, displace queued
            # lower-class work (the shed victims get a clean error)
            shed = self.queue.shed_for(job)
            for victim in shed:
                victim.error = "shed: displaced by higher-priority submission"
                self.stats.shed += 1
                self._settle(victim)
            if shed:
                retry_after = self.queue.offer(job)
        if retry_after is not None:
            self._seq -= 1  # rejected submissions do not consume ids
            self.stats.record_rejection(request.client)
            return error_response(
                "queue-full",
                f"queue holds {self.queue.backlog_cells()} of "
                f"{self.queue.max_cells} cells",
                retry_after=retry_after,
            )
        self.jobs[job.id] = job
        return ok_response(job=job.id, position=self.queue.position(job.id),
                           cells=request.cells)

    def _op_status(self, message: dict) -> dict:
        job = self._job_for(message)
        position = (self.queue.position(job.id)
                    if job.state == JOB_QUEUED else None)
        return ok_response(**job.status_dict(position=position))

    def _op_results(self, message: dict) -> dict:
        after = message.get("after", 0)
        if not isinstance(after, int) or isinstance(after, bool) or after < 0:
            raise ProtocolError(f"bad results cursor {after!r}")
        job = self._job_for(message)
        payloads = job.payloads[after:]
        next_cursor = after + len(payloads)
        return ok_response(
            job=job.id, state=job.state, payloads=payloads,
            next=next_cursor,
            complete=job.done and next_cursor >= len(job.payloads),
            error_message=job.error,
        )

    def _op_wait(self, message: dict) -> Union[dict, _Parked]:
        timeout = message.get("timeout", 300.0)
        if (not isinstance(timeout, (int, float))
                or not (math.isfinite(timeout) and timeout > 0)):
            raise ProtocolError(f"bad wait timeout {timeout!r}")
        job = self._job_for(message)
        if job.done:
            return ok_response(**job.status_dict())
        return _Parked(job.id, host_now() + float(timeout))

    def _op_cancel(self, message: dict) -> dict:
        job = self._job_for(message)
        if job.done:
            return error_response(
                "not-cancellable", f"job {job.id} already {job.state}"
            )
        if job.state == JOB_RUNNING:
            # cooperative: the executor sees the event at the next cell
            # boundary and the job lands in ``cancelled``
            job.cancel_requested = True
            if self._running is not None:
                self._running.cancel.set()
            return ok_response(cancelling=True, **job.status_dict())
        self.queue.cancel(job.id)
        self._settle(job)
        return ok_response(**job.status_dict())

    def _op_stats(self, message: dict) -> dict:
        # stats.evictions mirrors the executor's cache counter, posted
        # at every job boundary — it may lag a job in flight
        return ok_response(
            stats=self.stats.snapshot(),
            queue={
                "depth": len(self.queue),
                "backlog_cells": self.queue.backlog_cells(),
                "max_cells": self.queue.max_cells,
            },
            draining=self._draining,
            uptime=host_now() - self.start_host,
        )

    def _op_drain(self, message: dict) -> dict:
        # graceful: close admissions now; the loop serves the remaining
        # backlog and then shuts the daemon down itself
        self._draining = True
        return ok_response(draining=True, queued=len(self.queue))

    def _op_shutdown(self, message: dict) -> dict:
        # the answer goes out at once; the loop exits when the running
        # job's verdict arrives from its next cell boundary
        self._begin_stop()
        return ok_response(stopping=True)
