"""Simulated clock and resource usage tracking.

The paper records CPU utilization per process type, memory usage every
second, and network-card byte counts before/after each run (§4.2), then
analyses "20 GB of log files". Figures 10 and 13 are drawn straight
from these series. :class:`ResourceTracker` is the simulated
equivalent: every engine phase reports what each machine did, and the
tracker folds each report into running aggregates as it arrives —
cluster-wide CPU seconds by category, the peak per-phase user and
iowait fractions, each machine's memory peak and (time, bytes) series,
and the network, disk and memory-time counters. No per-phase sample is
kept, so every query costs O(1) or O(series) however long the run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["SimClock", "ResourceTracker"]


class SimClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are a bug."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds
        return self._now


class ResourceTracker:
    """Accumulates the per-run resource series the paper logs."""

    def __init__(self, num_machines: int) -> None:
        self.num_machines = num_machines
        self._initial_machines = num_machines
        # Running CPU aggregates, folded in by record_cpu in arrival
        # order — the same order a scan over every sample would add
        # them in, so the floats match such a scan bit for bit.
        self._cpu_user = 0.0
        self._cpu_system = 0.0
        self._cpu_iowait = 0.0
        self._cpu_idle = 0.0
        self._best_user_ratio = 0.0
        self._best_iowait_ratio = 0.0
        # Running per-machine memory aggregates, maintained by
        # record_memory so the peak/series queries are O(1)/O(series).
        self._memory_peaks: Dict[int, int] = {}
        self._memory_series: Dict[int, List[Tuple[float, int]]] = {}
        self.network_bytes_sent: float = 0.0
        self.network_bytes_received: float = 0.0
        self.disk_bytes_read: float = 0.0
        self.disk_bytes_written: float = 0.0
        self._memory_byte_seconds: float = 0.0

    # -- recording -------------------------------------------------------

    def record_cpu(
        self,
        time: float,
        machine: int,
        user: float = 0.0,
        system: float = 0.0,
        iowait: float = 0.0,
        idle: float = 0.0,
    ) -> None:
        """Record one machine's CPU breakdown for a completed phase."""
        self._cpu_user += user
        self._cpu_system += system
        self._cpu_iowait += iowait
        self._cpu_idle += idle
        denom = user + system + iowait + idle
        if denom > 0:
            self._best_user_ratio = max(self._best_user_ratio, user / denom)
            self._best_iowait_ratio = max(self._best_iowait_ratio,
                                          iowait / denom)

    def record_memory(self, time: float, machine: int, used_bytes: int) -> None:
        """Record a resident-memory sample, updating the running peaks."""
        if used_bytes > self._memory_peaks.get(machine, 0):
            self._memory_peaks[machine] = used_bytes
        self._memory_series.setdefault(machine, []).append((time, used_bytes))

    def record_network(self, sent: float, received: float) -> None:
        """Add to the NIC byte counters."""
        self.network_bytes_sent += sent
        self.network_bytes_received += received

    def record_disk(self, read: float = 0.0, written: float = 0.0) -> None:
        """Add to the disk byte counters."""
        self.disk_bytes_read += read
        self.disk_bytes_written += written

    def record_rescale(self, num_machines: int) -> None:
        """Track an elastic rescale: billing covers the widest fleet.

        The paper's cost figures bill per provisioned machine, so the
        tracker keeps the high-water machine count — a scale-in does
        not retroactively shrink the bill for capacity already used.
        """
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        self.num_machines = max(self.num_machines, num_machines)

    @property
    def machines_joined(self) -> int:
        """Machines added beyond the initial fleet (never negative)."""
        return max(0, self.num_machines - self._initial_machines)

    def record_memory_integral(self, byte_seconds: float) -> None:
        """Accrue resident-memory × time for one cluster operation.

        The cost model (:mod:`repro.obs.cost`) bills memory by the
        GB-hour, so every clock-advancing primitive charges its
        duration × the cluster's resident bytes here. Like disk and
        network records, this is simulated work — RPL013 requires call
        sites to sit inside an obs span.
        """
        if byte_seconds < 0:
            raise ValueError(
                f"memory integral cannot be negative ({byte_seconds})"
            )
        self._memory_byte_seconds += byte_seconds

    # -- queries (what the figures plot) ----------------------------------

    def peak_memory_bytes(self) -> int:
        """Largest single-machine resident memory seen (O(machines))."""
        return max(self._memory_peaks.values(), default=0)

    def total_memory_bytes(self) -> int:
        """Sum of every machine's peak memory (Table 8's metric)."""
        return sum(self._memory_peaks.values())

    def memory_series(self, machine: int) -> List[Tuple[float, int]]:
        """(time, bytes) series for one machine (Figure 10's lines)."""
        return list(self._memory_series.get(machine, ()))

    def cpu_totals(self) -> Dict[str, float]:
        """Aggregate CPU seconds by category across the cluster."""
        return {"user": self._cpu_user, "system": self._cpu_system,
                "iowait": self._cpu_iowait, "idle": self._cpu_idle}

    def max_cpu_utilization(self) -> Dict[str, float]:
        """Peak per-phase fraction of (user, iowait) CPU (Figure 13a)."""
        return {"user": self._best_user_ratio,
                "iowait": self._best_iowait_ratio}

    def network_total_bytes(self) -> float:
        """Total bytes through the NICs (Figure 13c's metric)."""
        return self.network_bytes_sent + self.network_bytes_received

    def memory_byte_seconds(self) -> float:
        """The run's resident-memory × time integral (cost accounting)."""
        return self._memory_byte_seconds
