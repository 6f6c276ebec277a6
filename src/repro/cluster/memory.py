"""Per-machine memory accounting with OOM semantics.

The paper's clusters fail whenever *any one machine* runs out of its
30.5 GB (§5: "out-of-memory at any machine in the cluster (OOM)").
The accountant therefore tracks allocations per machine, labelled by
purpose, and raises :class:`SimulatedOOM` the moment any machine's
resident total would exceed capacity.

The fleet's state is held in float64 arrays: resident and peak bytes
per machine, and one per-machine array for each label. An allocation
charges its whole share vector in one step and a label is freed with
one masked subtract. The resident total, which every cluster primitive
reads, and the live peak, read every superstep, are memoised between
mutations. Each charge still acts as the separate per-machine
allocations would, down to which machine an OOM names.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

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
        self._used = np.zeros(num_machines)
        # one entry for every machine that ever participated (rescale)
        self._peak = np.zeros(num_machines)
        self._by_label: Dict[str, np.ndarray] = {}
        # memoised fleet totals: the resident sum is dropped by every
        # mutation, the live peak raised by every charge
        self._total_used: Optional[float] = None
        self._max_peak: Optional[float] = None

    @property
    def capacity_bytes(self) -> int:
        """Per-machine capacity."""
        return self.machine.memory_bytes

    def used_bytes(self, machine_id: int) -> float:
        """Current resident bytes on one machine."""
        return float(self._used[machine_id])

    def used_array(self) -> np.ndarray:
        """The same bytes as a read-only float64 view (no copy)."""
        view = self._used.view()
        view.flags.writeable = False
        return view

    def peak_bytes(self, machine_id: int) -> float:
        """Peak resident bytes on one machine."""
        return float(self._peak[machine_id])

    def total_used_bytes(self) -> float:
        """Current resident bytes across every machine (cost integrand)."""
        if self._total_used is None:
            self._total_used = fold_sum(self._used.tolist())
        return self._total_used

    def total_peak_bytes(self) -> float:
        """Sum of per-machine peaks (what Table 8 reports)."""
        return fold_sum(self._peak.tolist())

    def max_peak_bytes(self) -> float:
        """Largest peak on any live machine (a run's peak memory)."""
        if self._max_peak is None:
            self._max_peak = float(self._peak[:self.num_machines].max())
        return self._max_peak

    def label_bytes(self, machine_id: int, label: str) -> float:
        """Bytes currently attributed to a label on one machine."""
        held = self._by_label.get(label)
        return 0.0 if held is None else float(held[machine_id])

    def allocate(self, machine_id: int, nbytes: float, label: str) -> None:
        """Charge an allocation; raises :class:`SimulatedOOM` over capacity."""
        self._charge(machine_id, 1, nbytes, nbytes, label)

    def allocate_even(self, nbytes: float, label: str, skew: float = 0.0) -> None:
        """Spread an allocation across machines, optionally skewed.

        ``skew`` is the extra fraction the most-loaded machine carries
        over a perfectly even split — partitioners are never perfectly
        balanced (Figure 11), and OOM triggers on the *heaviest* machine.
        """
        n = self.num_machines
        if n == 1:
            self._charge(0, 1, nbytes, nbytes, label)
            return
        heavy = nbytes / n * (1.0 + skew)
        self._charge(0, n, heavy, (nbytes - heavy) / (n - 1), label)

    def _charge(self, first: int, count: int, head: float, rest: float,
                label: str) -> None:
        """Charge ``head`` to machine ``first`` and ``rest`` to each of
        the next ``count - 1`` machines, in machine order.

        The first negative or over-capacity share raises; the shares
        before it stay charged, exactly as separate allocations would.
        """
        capacity = self.capacity_bytes
        shares = np.empty(count)
        shares.fill(rest)
        shares[0] = head
        new = self._used[first:first + count] + shares
        top = np.fmax.reduce(new)  # skips NaN, as a comparison per share does
        bad = count
        if top > capacity or head < 0 or (count > 1 and rest < 0):
            bad = int(((shares < 0) | (new > capacity)).argmax())
            bad_share, bad_total = shares[bad], new[bad]
            shares, new = shares[:bad], new[:bad]
        end = first + bad
        self._used[first:end] = new
        peak = self._peak[first:end]
        # fmax keeps the old peak unless the new total is greater
        np.fmax(peak, new, out=peak)
        held = self._by_label.get(label)
        if held is None:
            held = self._by_label[label] = np.zeros(self.num_machines)
        held[first:end] += shares
        self._total_used = None
        if bad == count:
            if self._max_peak is not None:
                # the live peak is the old one or the largest new total
                self._max_peak = max(self._max_peak, float(top))
            return
        self._max_peak = None
        if bad_share < 0:
            raise ValueError("allocation size must be non-negative")
        raise SimulatedOOM(
            f"machine {end} needs {bad_total / GB:.1f} GB for "
            f"{label!r} but has {capacity / GB:.1f} GB",
            machine=end,
        )

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
        totals = {label: fold_sum(held[held > 0.0].tolist())
                  for label, held in self._by_label.items()
                  if (held > 0.0).any()}
        self.num_machines = num_machines
        self._used = np.zeros(num_machines)
        self._by_label = {}
        if self._peak.size < num_machines:
            self._peak = np.concatenate(
                (self._peak, np.zeros(num_machines - self._peak.size)))
        self._total_used = self._max_peak = None
        for label in sorted(totals):
            self.allocate_even(totals[label], label)

    def free(self, machine_id: int, nbytes: float, label: str) -> None:
        """Release a previous allocation (never below zero)."""
        if nbytes < 0:
            raise ValueError("release size must be non-negative")
        held = self._by_label.get(label)
        current = 0.0 if held is None else float(held[machine_id])
        release = min(nbytes, current)
        if held is not None:
            held[machine_id] = current - release
        self._used[machine_id] = max(0.0, float(self._used[machine_id]) - release)
        self._total_used = None

    def free_label(self, label: str) -> None:
        """Release everything attributed to ``label`` on all machines."""
        held = self._by_label.pop(label, None)
        used = self._used
        if held is not None:
            used -= held
        # max(0.0, used): -0.0 and NaN become 0.0
        used[~(used > 0.0)] = 0.0
        self._total_used = None

