"""Typed fault events a :class:`~repro.chaos.plan.ChaosPlan` can schedule.

Every event is a frozen dataclass with a simulated ``time`` (seconds on
the run's clock) at which it fires and a ``kind`` tag used in spans,
journals, and cache keys. Events carry only *what* happens; *where* it
happens (which machine) is resolved deterministically at run time by
:class:`~repro.chaos.runtime.ChaosRuntime` from the plan seed, unless
the event pins a machine explicitly.

The taxonomy (one class per row of the README's fault table):

========================  ====================================================
``crash``                 a worker dies; Table 1's recovery mechanism applies
``straggler``             one machine's compute slows ``slowdown``x for
                          ``supersteps`` supersteps
``netdegrade``            every NIC's bandwidth is divided by ``factor`` for
                          ``supersteps`` supersteps
``netsplit``              a machine group is unreachable for ``seconds``;
                          BSP barriers stall, Vertica aborts and restarts
``msgloss``               ``fraction`` of the last superstep's messages are
                          lost and redelivered (at-least-once accounting)
``blockloss``             ``fraction`` of the dataset's HDFS blocks lose a
                          replica: surviving replicas are re-read and
                          re-replicated
``ckptcorrupt``           the most recent checkpoint is unreadable; the next
                          crash falls back to an older one (or to zero)
``scaleout``              ``n_machines`` workers join the cluster *before*
                          superstep ``at_superstep``; the engine repartitions
                          per its Table 1 mechanism
``scalein``               ``machines`` workers leave the cluster before
                          superstep ``at_superstep``; survivors absorb the
                          departed partitions (OOM is a legitimate outcome)
========================  ====================================================

Most events fire on the simulated clock (``time``); the elasticity
events fire on the *superstep counter* instead (``at_superstep``), so a
rescale always lands exactly between two supersteps regardless of how
long each engine's supersteps take. The ``trigger`` class attribute
tells :class:`~repro.chaos.runtime.ChaosRuntime` which cursor an event
belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Type

__all__ = [
    "ChaosEvent",
    "MachineCrash",
    "Straggler",
    "NetworkDegradation",
    "NetworkPartition",
    "MessageLoss",
    "BlockLoss",
    "CheckpointCorruption",
    "ScaleOut",
    "ScaleIn",
    "EVENT_KINDS",
    "event_from_dict",
]


@dataclass(frozen=True)
class ChaosEvent:
    """Base class: one scheduled fault on the simulated clock."""

    kind: ClassVar[str] = ""
    #: which cursor fires the event: "time" (the simulated clock) or
    #: "superstep" (the loop's iteration counter — elasticity events)
    trigger: ClassVar[str] = "time"

    #: simulated seconds at which the event fires
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"{type(self).__name__}.time must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form (stable keys; used in cache keys/journals)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload


@dataclass(frozen=True)
class MachineCrash(ChaosEvent):
    """A worker machine dies and is replaced after recovery."""

    kind: ClassVar[str] = "crash"

    #: pin the victim; None lets the runtime derive one from the seed
    machine: Optional[int] = None


@dataclass(frozen=True)
class Straggler(ChaosEvent):
    """One machine computes ``slowdown``x slower for ``supersteps`` rounds."""

    kind: ClassVar[str] = "straggler"

    slowdown: float = 4.0
    supersteps: int = 3
    machine: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slowdown <= 1.0:
            raise ValueError("Straggler.slowdown must be > 1")
        if self.supersteps < 1:
            raise ValueError("Straggler.supersteps must be >= 1")


@dataclass(frozen=True)
class NetworkDegradation(ChaosEvent):
    """Every NIC's bandwidth is cut by ``factor`` for ``supersteps`` rounds."""

    kind: ClassVar[str] = "netdegrade"

    factor: float = 4.0
    supersteps: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValueError("NetworkDegradation.factor must be > 1")
        if self.supersteps < 1:
            raise ValueError("NetworkDegradation.supersteps must be >= 1")


@dataclass(frozen=True)
class NetworkPartition(ChaosEvent):
    """A machine group is unreachable for ``seconds`` of simulated time.

    BSP systems stall at the next barrier until the partition heals;
    a system with no fault tolerance aborts and restarts from zero.
    """

    kind: ClassVar[str] = "netsplit"

    seconds: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seconds <= 0:
            raise ValueError("NetworkPartition.seconds must be > 0")


@dataclass(frozen=True)
class MessageLoss(ChaosEvent):
    """``fraction`` of the last superstep's messages are redelivered."""

    kind: ClassVar[str] = "msgloss"

    fraction: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("MessageLoss.fraction must be in (0, 1]")


@dataclass(frozen=True)
class BlockLoss(ChaosEvent):
    """``fraction`` of the input's HDFS blocks lose one replica."""

    kind: ClassVar[str] = "blockloss"

    fraction: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("BlockLoss.fraction must be in (0, 1]")


@dataclass(frozen=True)
class CheckpointCorruption(ChaosEvent):
    """The latest checkpoint is unreadable; recovery falls back further."""

    kind: ClassVar[str] = "ckptcorrupt"


@dataclass(frozen=True)
class ScaleOut(ChaosEvent):
    """``n_machines`` workers join before superstep ``at_superstep``.

    The engine pays its Table 1 mechanism's repartitioning bill (see
    :meth:`~repro.engines.base.RecoveryModel.rescale`), then continues
    on the larger cluster. Answers are unaffected by construction — the
    workload computes on the real graph regardless of cluster size.
    """

    kind: ClassVar[str] = "scaleout"
    trigger: ClassVar[str] = "superstep"

    n_machines: int = 1
    at_superstep: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_machines < 1:
            raise ValueError("ScaleOut.n_machines must be >= 1")
        if self.at_superstep < 1:
            raise ValueError("ScaleOut.at_superstep must be >= 1")


@dataclass(frozen=True)
class ScaleIn(ChaosEvent):
    """``machines`` workers leave before superstep ``at_superstep``.

    Survivors absorb the departed partitions; a cluster shrunk below
    its memory needs OOMs, which is a legitimate experiment outcome.
    The worker count never drops below one.
    """

    kind: ClassVar[str] = "scalein"
    trigger: ClassVar[str] = "superstep"

    machines: int = 1
    at_superstep: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.machines < 1:
            raise ValueError("ScaleIn.machines must be >= 1")
        if self.at_superstep < 1:
            raise ValueError("ScaleIn.at_superstep must be >= 1")


EVENT_KINDS: Mapping[str, Type[ChaosEvent]] = {
    cls.kind: cls
    for cls in (
        MachineCrash,
        Straggler,
        NetworkDegradation,
        NetworkPartition,
        MessageLoss,
        BlockLoss,
        CheckpointCorruption,
        ScaleOut,
        ScaleIn,
    )
}


def event_from_dict(payload: Mapping[str, Any]) -> ChaosEvent:
    """Rebuild an event from its :meth:`ChaosEvent.to_dict` form."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown chaos event kind {kind!r}")
    return cls(**data)
