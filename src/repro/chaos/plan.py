"""The chaos schedule: which faults fire when, under which seed.

A :class:`ChaosPlan` is pure immutable data — events, a checkpoint
interval for the checkpointing systems, and a seed that resolves any
machine choices the events leave open. Per-run mutable state (which
events have fired, which stragglers are active) lives in
:class:`~repro.chaos.runtime.ChaosRuntime`, built fresh by every
:class:`~repro.cluster.cluster.Cluster`; reusing one plan (or one
``ClusterSpec``) across many runs therefore injects the same faults in
every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from .events import ChaosEvent, event_from_dict

__all__ = ["ChaosPlan"]


@dataclass(unsafe_hash=True)
class ChaosPlan:
    """Scheduled fault events for one run (immutable; seeded)."""

    #: typed fault events (any order; fired in time order)
    events: Tuple[ChaosEvent, ...] = ()
    #: supersteps between global checkpoints (checkpointing systems)
    checkpoint_interval: int = 10
    #: resolves machine choices the events leave open
    seed: int = 0

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form — the chaos component of exec cache keys."""
        return {
            "events": [event.to_dict() for event in self.events],
            "checkpoint_interval": self.checkpoint_interval,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosPlan":
        """Rebuild a plan from :meth:`to_dict` (workers, cached cells)."""
        return cls(
            events=tuple(
                event_from_dict(event) for event in payload.get("events", ())
            ),
            checkpoint_interval=int(payload.get("checkpoint_interval", 10)),
            seed=int(payload.get("seed", 0)),
        )

    def label(self) -> str:
        """Short human tag, e.g. ``crash x2@s7`` (used in trace names)."""
        if not self.events:
            return f"quiet@s{self.seed}"
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        parts = "+".join(
            f"{kind}x{count}" for kind, count in sorted(kinds.items())
        )
        return f"{parts}@s{self.seed}"
