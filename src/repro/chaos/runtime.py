"""Per-run chaos state: the cursor over a plan's events.

A :class:`ChaosRuntime` is built by every
:class:`~repro.cluster.cluster.Cluster` from the spec's (immutable)
:class:`~repro.chaos.plan.ChaosPlan`. It owns everything mutable about
fault injection — which events have fired, which stragglers and
bandwidth cuts are active, how many supersteps they have left — so a
plan or ``ClusterSpec`` reused across grid cells re-arms every fault on
each run (see tests/test_faults.py::TestPlanReuse).

Machine choices an event leaves open resolve deterministically from
``sha256(seed, event_index)`` — no RNG state, no ordering sensitivity:
the same plan always hurts the same machines.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from .events import ChaosEvent
from .plan import ChaosPlan

__all__ = ["ChaosRuntime", "derive_machine"]


def derive_machine(seed: int, index: int, num_workers: int) -> int:
    """Deterministic victim choice for event ``index`` under ``seed``."""
    digest = hashlib.sha256(f"chaos:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") % max(1, num_workers)


class _ActiveEffect:
    """A compute/network effect with a superstep countdown."""

    __slots__ = ("factor", "remaining")

    def __init__(self, factor: float, supersteps: int) -> None:
        self.factor = factor
        self.remaining = supersteps


class ChaosRuntime:
    """Mutable per-run view over a :class:`ChaosPlan`."""

    def __init__(self, plan: ChaosPlan, num_workers: int) -> None:
        self.plan = plan
        self.num_workers = max(1, num_workers)
        # two cursors: clock-triggered events fire by simulated time,
        # superstep-triggered ones (the elasticity events) by iteration
        timed = [
            (i, e) for i, e in enumerate(plan.events) if e.trigger == "time"
        ]
        # firing order: by time, ties by plan position (sorted is stable)
        indexed = sorted(timed, key=lambda pair: pair[1].time)
        self._pending: List[Tuple[int, ChaosEvent]] = list(indexed)
        self._pending_supersteps: List[Tuple[int, ChaosEvent]] = sorted(
            (
                (i, e)
                for i, e in enumerate(plan.events)
                if e.trigger == "superstep"
            ),
            key=lambda pair: pair[1].at_superstep,
        )
        self._machines: Dict[int, int] = {}
        for index, event in indexed + self._pending_supersteps:
            pinned = getattr(event, "machine", None)
            self._machines[index] = (
                int(pinned) if pinned is not None
                else derive_machine(plan.seed, index, self.num_workers)
            )
        self._stragglers: Dict[int, _ActiveEffect] = {}
        self._degradations: List[_ActiveEffect] = []

    # -- event cursor -------------------------------------------------------

    def pop_due(self, now: float) -> List[Tuple[int, ChaosEvent]]:
        """``(index, event)`` pairs that have fired by ``now`` (once each)."""
        due = [(i, e) for i, e in self._pending if e.time <= now]
        self._pending = [(i, e) for i, e in self._pending if e.time > now]
        return due

    def pop_due_superstep(self, iteration: int) -> List[Tuple[int, ChaosEvent]]:
        """Superstep-triggered ``(index, event)`` pairs due by ``iteration``.

        An event with ``at_superstep == n`` fires in the chaos round
        *after* superstep ``n`` completes — i.e. the rescale happens on
        the boundary before superstep ``n + 1`` runs.
        """
        due = [
            (i, e)
            for i, e in self._pending_supersteps
            if e.at_superstep <= iteration
        ]
        self._pending_supersteps = [
            (i, e)
            for i, e in self._pending_supersteps
            if e.at_superstep > iteration
        ]
        return due

    @property
    def pending(self) -> Tuple[ChaosEvent, ...]:
        """Events not yet fired, in firing order (clock, then superstep)."""
        return tuple(
            event
            for _, event in self._pending + self._pending_supersteps
        )

    def machine_for(self, index: int) -> int:
        """The (seed-derived or pinned) machine event ``index`` hits."""
        return self._machines[index]

    # -- active effects -----------------------------------------------------

    def add_straggler(self, machine: int, slowdown: float, supersteps: int) -> None:
        """Slow ``machine``'s compute by ``slowdown``x for ``supersteps``."""
        current = self._stragglers.get(machine)
        if current is None or slowdown > current.factor:
            self._stragglers[machine] = _ActiveEffect(slowdown, supersteps)
        else:
            current.remaining = max(current.remaining, supersteps)

    def add_degradation(self, factor: float, supersteps: int) -> None:
        """Cut every NIC's bandwidth by ``factor`` for ``supersteps``."""
        self._degradations.append(_ActiveEffect(factor, supersteps))

    def compute_factor(self, machine: int) -> float:
        """Multiplier on ``machine``'s compute time this superstep."""
        effect = self._stragglers.get(machine)
        return effect.factor if effect is not None else 1.0

    def apply_compute(self, loads: Sequence[float]) -> List[float]:
        """Per-machine compute seconds with active stragglers applied."""
        if not self._stragglers:
            return list(loads)
        return [
            seconds * self.compute_factor(machine)
            for machine, seconds in enumerate(loads)
        ]

    def bandwidth_factor(self) -> float:
        """Divisor on every NIC's bandwidth (1.0 = healthy network)."""
        factor = 1.0
        for effect in self._degradations:
            factor *= effect.factor
        return factor

    def end_superstep(self) -> None:
        """Tick active effects down one superstep; expire finished ones."""
        expired = [
            machine
            for machine, effect in self._stragglers.items()
            if self._tick(effect)
        ]
        for machine in expired:
            del self._stragglers[machine]
        self._degradations = [
            effect for effect in self._degradations if not self._tick(effect)
        ]

    @staticmethod
    def _tick(effect: _ActiveEffect) -> bool:
        effect.remaining -= 1
        return effect.remaining <= 0

    @property
    def exhausted(self) -> bool:
        """True when every scheduled event has fired."""
        return not self._pending and not self._pending_supersteps
