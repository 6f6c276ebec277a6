"""The serve client: submit, back off, stream results, rebuild the grid.

:class:`ServeClient` speaks the line protocol over one connection and
hides the serving mechanics from callers:

* **submission with backoff** — an admission-control rejection
  (``queue-full``) is retried a bounded number of times under capped
  exponential backoff seeded from the daemon's ``retry_after`` hint,
  with deterministic jitter (a client-seeded RNG, so two clients named
  differently never thundering-herd in lockstep while any one client's
  schedule stays reproducible); exhaustion raises the typed
  :class:`QueueFullError`, through the host-clock door throughout;
* **resumable result streams** — cell payloads are fetched with an
  ``after`` cursor, so a client that reconnects (or a test that drops
  the connection mid-stream) continues from where it stopped instead of
  re-transferring the prefix;
* **grid reconstruction** — :func:`grid_from_payloads` turns the
  streamed payloads back into a :class:`~repro.core.runner.ResultGrid`
  through the executor's own deserializer, so everything downstream
  (tables, figures, ``same_results``) treats a served grid exactly like
  a locally computed one. Each payload carries the cell's canonical
  journal text; writing it back out reproduces the ``repro grid
  --trace`` files byte for byte.
"""

from __future__ import annotations

import random
import socket
from typing import Iterator, List, Optional

from ..core.runner import ResultGrid
from ..exec.serialize import payload_to_result
from ..obs.hostclock import host_now, host_sleep
from .daemon import parse_address
from .protocol import (
    JOB_FAILED,
    JobRequest,
    recv_message,
    send_message,
)

__all__ = [
    "ServeError", "QueueFullError", "ServeClient", "grid_from_payloads",
]

#: how many queue-full rejections submit() absorbs before giving up
DEFAULT_SUBMIT_RETRIES = 20

#: polling cadence while streaming a job that is still producing cells
_STREAM_POLL = 0.05

#: backoff never sleeps longer than this per attempt (host seconds)
_BACKOFF_CAP = 2.0


class ServeError(RuntimeError):
    """The daemon answered with an error this client cannot recover from."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class QueueFullError(ServeError):
    """Admission control rejected every bounded submit attempt."""

    def __init__(self, message: str, rejections: int) -> None:
        super().__init__("queue-full", message)
        self.rejections = rejections


def grid_from_payloads(payloads: List[dict]) -> ResultGrid:
    """Rebuild a result grid from a streamed payload sequence."""
    grid = ResultGrid()
    for payload in payloads:
        grid.put(payload_to_result(payload))
    return grid


class ServeClient:
    """One connection to a :class:`~repro.serve.daemon.ServeDaemon`."""

    def __init__(self, address: str, client: str = "anonymous",
                 timeout: float = 60.0) -> None:
        self.client = client
        kind, target = parse_address(address)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(str(target))
        else:
            host, port = target
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    # -- plumbing -----------------------------------------------------------

    def call(self, message: dict) -> dict:
        """One request/response round trip (raw frames)."""
        send_message(self._wfile, message)
        response = recv_message(self._rfile)
        if response is None:
            raise ServeError("disconnected", "daemon closed the connection")
        return response

    def _ok(self, message: dict) -> dict:
        response = self.call(message)
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "error")),
                str(response.get("message", "request failed")),
            )
        return response

    def close(self) -> None:
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations ---------------------------------------------------------

    def ping(self) -> dict:
        return self._ok({"op": "ping"})

    def request(self, systems, workloads, datasets, cluster_sizes,
                dataset_size: str = "small", priority: int = 0,
                weight: float = 1.0, deadline: float = 0.0) -> JobRequest:
        """A validated submission carrying this client's identity."""
        return JobRequest(
            client=self.client,
            systems=tuple(systems),
            workloads=tuple(workloads),
            datasets=tuple(datasets),
            cluster_sizes=tuple(int(s) for s in cluster_sizes),
            dataset_size=dataset_size,
            priority=priority,
            weight=weight,
            deadline=deadline,
        ).validate()

    def submit(self, request: JobRequest,
               retries: int = DEFAULT_SUBMIT_RETRIES,
               backoff_cap: float = _BACKOFF_CAP) -> str:
        """Submit a job, backing off on admission rejections; job id.

        Rejections sleep under capped exponential backoff — the
        daemon's ``retry_after`` hint doubled per consecutive
        rejection, clamped to ``backoff_cap``, jittered into
        ``[0.5, 1.0]×`` by a client-name-seeded RNG (deterministic per
        client, decorrelated across clients). ``retries`` bounds the
        loop; exhaustion raises :class:`QueueFullError`.
        """
        rng = random.Random(f"serve-submit:{self.client}")
        rejections = 0
        doubling = 1
        while True:
            response = self.call({"op": "submit", "job": request.to_dict()})
            if response.get("ok"):
                return str(response["job"])
            if response.get("error") != "queue-full":
                raise ServeError(
                    str(response.get("error", "error")),
                    str(response.get("message", "submit failed")),
                )
            if rejections >= retries:
                raise QueueFullError(
                    f"rejected {rejections + 1} times: "
                    + str(response.get("message", "queue full")),
                    rejections=rejections + 1,
                )
            hint = float(response.get("retry_after", _STREAM_POLL))
            delay = min(backoff_cap, hint * doubling)
            if 0 < delay < backoff_cap:  # no doubling past the cap
                doubling *= 2
            rejections += 1
            host_sleep(delay * (0.5 + 0.5 * rng.random()))

    def status(self, job_id: str) -> dict:
        return self._ok({"op": "status", "job": job_id})

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job reaches a terminal state; its status."""
        return self._ok({"op": "wait", "job": job_id, "timeout": timeout})

    def cancel(self, job_id: str) -> dict:
        return self._ok({"op": "cancel", "job": job_id})

    def stats(self) -> dict:
        return self._ok({"op": "stats"})

    def drain(self) -> dict:
        """Stop admissions; the daemon finishes its backlog, then exits."""
        return self._ok({"op": "drain"})

    def shutdown(self) -> dict:
        return self._ok({"op": "shutdown"})

    # -- result streaming ---------------------------------------------------

    def results(self, job_id: str, after: int = 0) -> dict:
        """One raw batch of the payload stream (cursor-resumable)."""
        return self._ok({"op": "results", "job": job_id, "after": after})

    def stream_payloads(self, job_id: str, after: int = 0,
                        timeout: Optional[float] = None) -> Iterator[dict]:
        """Yield cell payloads in plan order until the job completes.

        ``timeout`` bounds the whole stream in host seconds (a stalled
        daemon raises instead of polling forever); ``None`` trusts the
        job to terminate.
        """
        deadline = None if timeout is None else host_now() + timeout
        cursor = after
        while True:
            if deadline is not None and host_now() >= deadline:
                raise ServeError(
                    "timeout", f"job {job_id} still streaming after "
                    f"{timeout} host seconds",
                )
            batch = self.results(job_id, after=cursor)
            for payload in batch["payloads"]:
                yield payload
            cursor = int(batch["next"])
            if batch["complete"]:
                if batch["state"] == JOB_FAILED:
                    raise ServeError(
                        "job-failed",
                        str(batch.get("error_message") or "job failed"),
                    )
                return
            if not batch["payloads"]:
                host_sleep(_STREAM_POLL)

    def fetch_payloads(self, job_id: str, after: int = 0,
                       timeout: Optional[float] = None) -> List[dict]:
        """The complete payload stream, blocking until the job is done."""
        return list(self.stream_payloads(job_id, after=after, timeout=timeout))
