"""The serve wire protocol: typed jobs, canonical-JSON line framing.

Every conversation with the daemon is a sequence of request/response
pairs over one stream socket, one canonical JSON object per line (the
same sorted-keys/no-whitespace form the run journals use, so a captured
protocol transcript is byte-stable for a given exchange). Requests name
an ``op`` — ``ping``, ``submit``, ``status``, ``results``, ``wait``,
``cancel``, ``stats``, ``drain``, ``shutdown`` — and responses always
carry ``ok``; failures add ``error`` (a stable code) and ``message``.

The submission payload is typed: :class:`JobRequest` validates systems,
workloads, datasets, and cluster sizes against the same registries the
CLI uses *before* the job touches the queue, so a typo is a protocol
error, not a crashed worker. Admission-control rejections are ordinary
responses (``error="queue-full"``) carrying a ``retry_after`` hint in
host seconds.

Result streams are resumable: ``results`` takes an ``after`` cursor and
returns cell payloads (the executor's wire format, journal text
included) from that index on, so a client that lost its connection
re-attaches to the same job id and continues where it stopped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATES",
    "OPS",
    "JobRequest",
    "dumps_message",
    "send_message",
    "decode_frame",
    "recv_message",
    "ok_response",
    "error_response",
]

#: bump when the request/response layout changes incompatibly
PROTOCOL_VERSION = 1

#: one framed line may not exceed this (a tiny grid's payloads are ~100
#: KB; the bound exists so a garbage client cannot balloon the daemon)
MAX_LINE_BYTES = 64 * 1024 * 1024

#: every operation the daemon answers
OPS = (
    "ping", "submit", "status", "results", "wait", "cancel", "stats",
    "drain", "shutdown",
)

# -- job lifecycle ----------------------------------------------------------

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: states a job can never leave
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


class ProtocolError(ValueError):
    """A malformed frame, an unknown op, or an invalid job payload."""


# -- the typed submission ---------------------------------------------------

@dataclass(frozen=True)
class JobRequest:
    """One client's experiment submission, validated before queueing.

    The coordinates mirror :class:`~repro.core.runner.ExperimentSpec`;
    ``priority`` picks the strict service class (higher first) and
    ``weight`` the client's share inside its class (see
    :mod:`repro.serve.queue`). ``deadline`` is a host-seconds budget
    counted from submission: an expired job is cancelled cooperatively
    — before it starts, or at its next cell boundary once running
    (0 means no deadline; the daemon may impose a default).
    """

    client: str
    systems: Tuple[str, ...]
    workloads: Tuple[str, ...]
    datasets: Tuple[str, ...]
    cluster_sizes: Tuple[int, ...]
    dataset_size: str = "small"
    priority: int = 0
    weight: float = 1.0
    deadline: float = 0.0

    @property
    def cells(self) -> int:
        """How many experiment cells this job expands into."""
        return (len(self.systems) * len(self.workloads) * len(self.datasets)
                * len(self.cluster_sizes))

    def validate(self) -> "JobRequest":
        """Raise :class:`ProtocolError` unless every field is servable."""
        from ..datasets.registry import DATASET_NAMES, SIZE_NAMES
        from ..engines import ENGINE_KEYS, EXTENSION_WORKLOADS, WORKLOAD_NAMES

        if not self.client or not isinstance(self.client, str):
            raise ProtocolError("job needs a non-empty client id")
        if not (self.systems and self.workloads and self.datasets
                and self.cluster_sizes):
            raise ProtocolError("job expands to zero cells")
        for system in self.systems:
            if system not in ENGINE_KEYS:
                raise ProtocolError(f"unknown system {system!r}")
        for workload in self.workloads:
            if workload not in WORKLOAD_NAMES + EXTENSION_WORKLOADS:
                raise ProtocolError(f"unknown workload {workload!r}")
        for dataset in self.datasets:
            # only built-in datasets are servable: the daemon regenerates
            # them deterministically in its own process
            if dataset not in DATASET_NAMES:
                raise ProtocolError(f"unknown dataset {dataset!r}")
        if self.dataset_size not in SIZE_NAMES:
            raise ProtocolError(f"unknown dataset size {self.dataset_size!r}")
        for size in self.cluster_sizes:
            # bool is an int subclass; reject it explicitly
            if (not isinstance(size, int) or isinstance(size, bool)
                    or not 0 < size <= 4096):
                raise ProtocolError(f"bad cluster size {size!r}")
        if not (isinstance(self.weight, (int, float)) and self.weight > 0):
            raise ProtocolError(f"weight must be positive, got {self.weight!r}")
        if not isinstance(self.priority, int):
            raise ProtocolError(f"priority must be an int, got {self.priority!r}")
        if (not isinstance(self.deadline, (int, float))
                or isinstance(self.deadline, bool)
                or not (math.isfinite(self.deadline) and self.deadline >= 0)):
            raise ProtocolError(
                "deadline must be finite and >= 0 host seconds, "
                f"got {self.deadline!r}"
            )
        return self

    def to_dict(self) -> dict:
        """The wire form carried by a ``submit`` request."""
        return {
            "client": self.client,
            "systems": list(self.systems),
            "workloads": list(self.workloads),
            "datasets": list(self.datasets),
            "cluster_sizes": list(self.cluster_sizes),
            "dataset_size": self.dataset_size,
            "priority": self.priority,
            "weight": self.weight,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "JobRequest":
        """Parse and validate a ``submit`` request's ``job`` field."""
        if not isinstance(payload, dict):
            raise ProtocolError("submit needs a 'job' object")
        try:
            request = cls(
                client=payload["client"],
                systems=tuple(payload["systems"]),
                workloads=tuple(payload["workloads"]),
                datasets=tuple(payload["datasets"]),
                cluster_sizes=tuple(payload["cluster_sizes"]),
                dataset_size=payload.get("dataset_size", "small"),
                priority=payload.get("priority", 0),
                weight=payload.get("weight", 1.0),
                deadline=payload.get("deadline", 0.0),
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed job payload: {exc}") from exc
        return request.validate()

    def to_spec(self):
        """The executor-facing :class:`ExperimentSpec` for this job."""
        from ..core.runner import ExperimentSpec

        return ExperimentSpec(
            systems=self.systems,
            workloads=self.workloads,
            datasets=self.datasets,
            cluster_sizes=self.cluster_sizes,
            dataset_size=self.dataset_size,
        )


# -- framing ----------------------------------------------------------------

def dumps_message(message: dict) -> bytes:
    """One canonical-JSON frame, newline-terminated ASCII bytes."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def send_message(stream: IO[bytes], message: dict) -> None:
    """Write one frame and flush it."""
    stream.write(dumps_message(message))
    stream.flush()


def decode_frame(line: bytes) -> dict:
    """Parse one frame's bytes (its newline optional) into a request dict.

    The one decoder for both readers: the client's blocking stream and
    the daemon's per-connection buffer. A line longer than
    :data:`MAX_LINE_BYTES` is refused before it is parsed, so a peer
    that never sends a newline cannot grow a buffer past the bound.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not canonical JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frames are JSON objects")
    return message


def recv_message(stream: IO[bytes]) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF, errors on garbage."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    return decode_frame(line)


def ok_response(**fields: object) -> dict:
    """A successful response frame."""
    response: Dict[str, object] = {"ok": True}
    response.update(fields)
    return response


def error_response(code: str, message: str, **fields: object) -> dict:
    """A failed response frame with a stable error code."""
    response: Dict[str, object] = {
        "ok": False, "error": code, "message": message,
    }
    response.update(fields)
    return response


# -- job records (shared by queue, daemon, and stats) -----------------------

@dataclass
class Job:
    """One submission's full lifecycle, as the daemon tracks it."""

    id: str
    request: JobRequest
    seq: int                      # global submission order (tie-breaker)
    state: str = JOB_QUEUED
    #: virtual finish tag assigned by the fair queue at admission
    vfinish: float = 0.0
    #: host-clock timestamps (profiling only, never simulated quantities)
    submitted_host: float = 0.0
    started_host: float = 0.0
    finished_host: float = 0.0
    #: absolute host time the job must finish by (0 = no deadline)
    deadline_host: float = 0.0
    #: cooperative-cancel flag: checked at every cell boundary while the
    #: job runs, so ``cancel`` works on running jobs too
    cancel_requested: bool = False
    #: completed cell payloads in plan order (the resumable stream)
    payloads: List[dict] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    cost_dollars: float = 0.0
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        """True once the job can never change again."""
        return self.state in TERMINAL_STATES

    def expired(self, now: float) -> bool:
        """True when the job's deadline has passed at host time ``now``."""
        return self.deadline_host > 0.0 and now >= self.deadline_host

    @property
    def queue_wait(self) -> float:
        """Host seconds spent queued before service began."""
        if self.started_host <= 0.0:
            return 0.0
        return max(0.0, self.started_host - self.submitted_host)

    @property
    def service_seconds(self) -> float:
        """Host seconds spent executing."""
        if self.started_host <= 0.0 or self.finished_host <= 0.0:
            return 0.0
        return max(0.0, self.finished_host - self.started_host)

    @property
    def latency(self) -> float:
        """Submit-to-finish host seconds (queue wait + service)."""
        if self.finished_host <= 0.0:
            return 0.0
        return max(0.0, self.finished_host - self.submitted_host)

    def status_dict(self, position: Optional[int] = None) -> dict:
        """The ``status`` response body."""
        status: Dict[str, object] = {
            "job": self.id,
            "state": self.state,
            "client": self.request.client,
            "cells": self.request.cells,
            "completed": len(self.payloads),
            "cache_hits": self.cache_hits,
            "executed": self.executed,
        }
        if position is not None:
            status["position"] = position
        if self.error is not None:
            status["message"] = self.error
        return status
