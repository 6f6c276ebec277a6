"""Simulated clock and resource usage tracking.

The paper records CPU utilization per process type, memory usage every
second, and network-card byte counts before/after each run (§4.2), then
analyses "20 GB of log files". Figures 10 and 13 are drawn straight
from these series. :class:`ResourceTracker` is the simulated
equivalent, charged once per fleet-wide event rather than once per
machine:

* one :meth:`~ResourceTracker.record_cpu` call per compute phase takes
  every machine's load, derives each machine's user/system/iowait/idle
  split and folds it, in machine order, into cluster-wide CPU seconds
  and the peak per-machine user and iowait fractions;
* one :meth:`~ResourceTracker.record_memory` call per snapshot keeps
  the whole fleet's resident bytes as one row, from which the
  per-machine peaks and (time, bytes) series are derived on query;
* network, disk and memory-time counters are running sums.

No per-machine sample object is ever built, so recording costs one
call per phase however wide the cluster.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

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
        # Running CPU aggregates, folded in by record_cpu in phase and
        # machine order — the order a scan over per-machine samples
        # would add them in, so the floats match such a scan bit for bit.
        self._cpu_user = 0.0
        self._cpu_system = 0.0
        self._cpu_iowait = 0.0
        self._cpu_idle = 0.0
        self._best_user_ratio = 0.0
        self._best_iowait_ratio = 0.0
        # One (time, bytes per machine) row per memory snapshot; rows
        # change length when the fleet is rescaled.
        self._memory_rows: List[Tuple[float, Tuple[int, ...]]] = []
        self.network_bytes_sent: float = 0.0
        self.network_bytes_received: float = 0.0
        self.disk_bytes_read: float = 0.0
        self.disk_bytes_written: float = 0.0
        self._memory_byte_seconds: float = 0.0

    # -- recording -------------------------------------------------------

    def record_cpu(
        self,
        loads: Sequence[float],
        step: float,
        system_fraction: float = 0.0,
        iowait: float = 0.0,
    ) -> None:
        """Record one compute phase of ``step`` seconds on every machine.

        ``loads[m]`` is machine ``m``'s busy time; ``system_fraction``
        of it is framework overhead, every machine also waits ``iowait``
        seconds on disk, and the rest of the step is idle (never
        negative). Machines fold into the running sums in order, so the
        totals match adding one machine at a time bit for bit.
        """
        user_total, system_total = self._cpu_user, self._cpu_system
        iowait_total, idle_total = self._cpu_iowait, self._cpu_idle
        best_user, best_iowait = self._best_user_ratio, self._best_iowait_ratio
        keep = 1.0 - system_fraction
        for busy in loads:
            user = busy * keep
            system = busy * system_fraction
            idle = step - busy - iowait
            if not idle > 0.0:  # max(0.0, idle): -0.0 and NaN become 0.0
                idle = 0.0
            user_total += user
            system_total += system
            iowait_total += iowait
            idle_total += idle
            denom = user + system + iowait + idle
            if denom > 0:
                ratio = user / denom
                if ratio > best_user:
                    best_user = ratio
                ratio = iowait / denom
                if ratio > best_iowait:
                    best_iowait = ratio
        self._cpu_user, self._cpu_system = user_total, system_total
        self._cpu_iowait, self._cpu_idle = iowait_total, idle_total
        self._best_user_ratio, self._best_iowait_ratio = best_user, best_iowait

    def record_memory(self, time: float, used_bytes: Iterable[float]) -> None:
        """Snapshot every machine's resident bytes (as ints) at ``time``."""
        self._memory_rows.append((time, tuple(map(int, used_bytes))))

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

    def _memory_peaks(self) -> List[int]:
        """Each machine's largest sample (0 if never above 0)."""
        peaks: List[int] = []
        for _, row in self._memory_rows:
            if len(row) > len(peaks):
                peaks.extend([0] * (len(row) - len(peaks)))
            peaks[:len(row)] = map(max, peaks, row)
        return peaks

    def peak_memory_bytes(self) -> int:
        """Largest single-machine resident memory seen."""
        return max(self._memory_peaks(), default=0)

    def total_memory_bytes(self) -> int:
        """Sum of every machine's peak memory (Table 8's metric)."""
        return sum(self._memory_peaks())

    def memory_series(self, machine: int) -> List[Tuple[float, int]]:
        """(time, bytes) series for one machine (Figure 10's lines)."""
        return [(time, row[machine]) for time, row in self._memory_rows
                if machine < len(row)]

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
