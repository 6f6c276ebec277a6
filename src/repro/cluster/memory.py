"""Per-machine memory accounting with OOM semantics.

The paper's clusters fail whenever *any one machine* runs out of its
30.5 GB (§5: "out-of-memory at any machine in the cluster (OOM)").
The accountant therefore tracks allocations per machine, labelled by
purpose, and raises :class:`SimulatedOOM` the moment any machine's
resident total would exceed capacity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..obs.metrics import fold_sum
from .failures import SimulatedOOM
from .specs import GB, MachineSpec

__all__ = ["MemoryAccountant"]


class MemoryAccountant:
    """Tracks labelled allocations per machine against a hard capacity."""

    def __init__(self, num_machines: int, machine: MachineSpec) -> None:
        if num_machines < 1:
            raise ValueError("need at least one machine")
        self.machine = machine
        self.num_machines = num_machines
        self._used: List[float] = [0.0] * num_machines
        self._peak: List[float] = [0.0] * num_machines
        self._by_label: List[Dict[str, float]] = [dict() for _ in range(num_machines)]

    @property
    def capacity_bytes(self) -> int:
        """Per-machine capacity."""
        return self.machine.memory_bytes

    def used_bytes(self, machine_id: int) -> float:
        """Current resident bytes on one machine."""
        return self._used[machine_id]

    def used_by_machine(self) -> Tuple[float, ...]:
        """Current resident bytes on every machine, in machine order."""
        return tuple(self._used)

    def peak_bytes(self, machine_id: int) -> float:
        """Peak resident bytes on one machine."""
        return self._peak[machine_id]

    def total_used_bytes(self) -> float:
        """Current resident bytes across every machine (cost integrand)."""
        return fold_sum(self._used)

    def total_peak_bytes(self) -> float:
        """Sum of per-machine peaks (what Table 8 reports)."""
        return fold_sum(self._peak)

    def max_peak_bytes(self) -> float:
        """Largest peak on any live machine (a run's peak memory)."""
        return max(self._peak[:self.num_machines])

    def label_bytes(self, machine_id: int, label: str) -> float:
        """Bytes currently attributed to a label on one machine."""
        return self._by_label[machine_id].get(label, 0.0)

    def allocate(self, machine_id: int, nbytes: float, label: str) -> None:
        """Charge an allocation; raises :class:`SimulatedOOM` over capacity."""
        self._charge(((machine_id, nbytes),), label)

    def allocate_even(self, nbytes: float, label: str, skew: float = 0.0) -> None:
        """Spread an allocation across machines, optionally skewed.

        ``skew`` is the extra fraction the most-loaded machine carries
        over a perfectly even split — partitioners are never perfectly
        balanced (Figure 11), and OOM triggers on the *heaviest* machine.
        """
        n = self.num_machines
        if n == 1:
            shares = [nbytes]
        else:
            heavy = nbytes / n * (1.0 + skew)
            shares = [heavy] + [(nbytes - heavy) / (n - 1)] * (n - 1)
        self._charge(enumerate(shares), label)

    def _charge(self, shares: Iterable[Tuple[int, float]], label: str) -> None:
        """Charge ``(machine, bytes)`` shares in order.

        The first negative or over-capacity share raises; the shares
        before it stay charged, exactly as separate allocations would.
        """
        capacity = self.capacity_bytes
        used, peak, by_label = self._used, self._peak, self._by_label
        for machine_id, nbytes in shares:
            if nbytes < 0:
                raise ValueError("allocation size must be non-negative")
            new_total = used[machine_id] + nbytes
            if new_total > capacity:
                raise SimulatedOOM(
                    f"machine {machine_id} needs {new_total / GB:.1f} GB for "
                    f"{label!r} but has {capacity / GB:.1f} GB",
                    machine=machine_id,
                )
            used[machine_id] = new_total
            if new_total > peak[machine_id]:
                peak[machine_id] = new_total
            labels = by_label[machine_id]
            labels[label] = labels.get(label, 0.0) + nbytes

    def rescale(self, num_machines: int) -> None:
        """Redistribute every live allocation across a new machine count.

        The elasticity path: per-label totals are gathered and re-spread
        evenly (skew resets — repartitioning rebalances), so a scale-in
        that concentrates state past one machine's capacity raises
        :class:`SimulatedOOM` exactly like any other allocation would.
        Peaks are never forgotten: ``_peak`` keeps an entry for every
        machine that ever participated, so Table 8's sum-of-peaks covers
        departed workers too.
        """
        if num_machines < 1:
            raise ValueError("need at least one machine")
        totals: Dict[str, float] = {}
        for labels in self._by_label:
            for label, held in labels.items():
                if held > 0.0:
                    totals[label] = totals.get(label, 0.0) + held
        self.num_machines = num_machines
        self._used = [0.0] * num_machines
        self._by_label = [dict() for _ in range(num_machines)]
        if len(self._peak) < num_machines:
            self._peak.extend([0.0] * (num_machines - len(self._peak)))
        for label in sorted(totals):
            self.allocate_even(totals[label], label)

    def free(self, machine_id: int, nbytes: float, label: str) -> None:
        """Release a previous allocation (never below zero)."""
        labels = self._by_label[machine_id]
        held = labels.get(label, 0.0)
        release = min(nbytes, held)
        labels[label] = held - release
        self._used[machine_id] = max(0.0, self._used[machine_id] - release)

    def free_label(self, label: str) -> None:
        """Release everything attributed to ``label`` on all machines."""
        for m in range(self.num_machines):
            held = self._by_label[m].pop(label, 0.0)
            self._used[m] = max(0.0, self._used[m] - held)

    def free_all(self) -> None:
        """Release every allocation (end of a run)."""
        for m in range(self.num_machines):
            self._used[m] = 0.0
            self._by_label[m].clear()
