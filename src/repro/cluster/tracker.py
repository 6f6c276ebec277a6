"""Simulated clock and resource usage tracking.

The paper records CPU utilization per process type, memory usage every
second, and network-card byte counts before/after each run (§4.2), then
analyses "20 GB of log files". Figures 10 and 13 are drawn straight
from these series. :class:`ResourceTracker` is the simulated
equivalent, charged once per fleet-wide event rather than once per
machine, and folded once per run rather than once per event:

* one :meth:`~ResourceTracker.record_cpu` call per compute phase keeps
  a copy of every machine's load; the first CPU query folds every
  phase recorded since the last one in a single array pass, deriving
  each machine's user/system/iowait/idle split and adding it, in phase
  then machine order, into cluster-wide CPU seconds and the peak
  per-machine user and iowait fractions;
* one :meth:`~ResourceTracker.record_memory` call per snapshot keeps
  the whole fleet's resident bytes as one int64 row, from which the
  per-machine peaks and (time, bytes) series are derived on query;
* network, disk and memory-time counters are running sums.

Disk, network and memory-time records are simulated work that the
run's journal must show, so the tracker holds the run's
:class:`~repro.obs.Tracer` and refuses such a record unless the
innermost open span is a cluster operation's (``cat="cluster"``): the
:class:`~repro.cluster.Cluster` primitives open one around every
charge, and an engine charging bytes directly opens its own. The check
runs in every run, tests included.

No per-machine sample object is ever built and no Python loop runs per
machine. The totals stay bit-equal to adding one machine at a time:
elementwise IEEE operations are exact, and the sums go through
:func:`~repro.obs.fold_rows`, a sequential scan.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..obs.metrics import fold_rows
from ..obs.spans import SpanError, Tracer

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
    """Accumulates the per-run resource series the paper logs.

    ``tracer`` is the run's span tracer; disk, network and memory-time
    records raise :class:`~repro.obs.SpanError` outside a cluster span.
    """

    def __init__(self, num_machines: int, tracer: Tracer) -> None:
        self.num_machines = num_machines
        self._tracer = tracer
        self._initial_machines = num_machines
        # Running CPU aggregates (user, system, iowait, idle seconds),
        # folded in phase and machine order — the order a scan over
        # per-machine samples would add them in, so the floats match
        # such a scan bit for bit.
        self._cpu_totals: Tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)
        self._best_user_ratio = 0.0
        self._best_iowait_ratio = 0.0
        # Phases recorded since the last fold, flat: every machine's
        # load, and (machines, step, system fraction, iowait) per phase.
        self._pending_loads: List[float] = []
        self._pending_phases: List[float] = []
        # One (time, int64 bytes per machine) row per memory snapshot;
        # rows change length when the fleet is rescaled.
        self._memory_rows: List[Tuple[float, np.ndarray]] = []
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
        negative). The loads are copied, and folded into the running
        sums by the next CPU query (:meth:`_fold_cpu`).
        """
        self._pending_loads.extend(loads)
        self._pending_phases += (len(loads), step, system_fraction, iowait)

    def _fold_cpu(self) -> None:
        """Fold every pending phase into the CPU aggregates in one pass.

        The result is bit-equal to folding one machine at a time:
        user/system/idle and the utilization ratios are elementwise
        IEEE operations, and the totals are a sequential scan over the
        running total followed by the phases' values in order.
        """
        loads, phases = self._pending_loads, self._pending_phases
        if not phases:
            return
        self._pending_loads, self._pending_phases = [], []
        busy = np.fromiter(loads, np.float64, len(loads))
        phase = np.fromiter(phases, np.float64, len(phases)).reshape(-1, 4)
        # each phase's step, system fraction and iowait, once per machine
        step, system_fraction, iowait = np.repeat(
            phase[:, 1:], phase[:, 0].astype(np.intp), axis=0).T
        # Python float arithmetic on inf and NaN never warns; nor does this
        with np.errstate(all="ignore"):
            # row 0 of each series is the running total the scan continues
            series = np.empty((4, busy.size + 1))
            series[:, 0] = self._cpu_totals
            user, system, waits, idle = series[:, 1:]
            np.multiply(busy, 1.0 - system_fraction, out=user)
            np.multiply(busy, system_fraction, out=system)
            waits[:] = iowait
            np.subtract(step, busy, out=idle)
            idle -= iowait
            # max(0.0, idle): -0.0 and NaN become 0.0
            idle[~(idle > 0.0)] = 0.0
            self._cpu_totals = tuple(fold_rows(series).tolist())
            denom = user + system + waits + idle
            live = denom > 0
            denom = denom[live]
            self._best_user_ratio = _raise_best(
                self._best_user_ratio, user[live] / denom)
            self._best_iowait_ratio = _raise_best(
                self._best_iowait_ratio, waits[live] / denom)

    def record_memory(self, time: float, used_bytes: Sequence[float]) -> None:
        """Snapshot every machine's resident bytes (as ints) at ``time``."""
        # one int64 cast (a copy) truncates toward zero, as int() does
        row = np.asarray(used_bytes).astype(np.int64)
        self._memory_rows.append((time, row))

    def _require_cluster_span(self, record: str) -> None:
        """Raise unless the innermost open span is a cluster operation's."""
        span = self._tracer.current
        if span is None or span.cat != "cluster":
            raise SpanError(
                f"{record} outside a cluster span (innermost open span: "
                f"{span!r}); charge simulated work inside "
                f"`with tracer.span(..., cat=\"cluster\")` so the journal "
                f"shows it"
            )

    def record_network(self, sent: float, received: float) -> None:
        """Add to the NIC byte counters (inside a cluster span)."""
        self._require_cluster_span("record_network")
        self.network_bytes_sent += sent
        self.network_bytes_received += received

    def record_disk(self, read: float = 0.0, written: float = 0.0) -> None:
        """Add to the disk byte counters (inside a cluster span)."""
        self._require_cluster_span("record_disk")
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
        network records, this is simulated work, so it must be charged
        inside a cluster span.
        """
        self._require_cluster_span("record_memory_integral")
        if byte_seconds < 0:
            raise ValueError(
                f"memory integral cannot be negative ({byte_seconds})"
            )
        self._memory_byte_seconds += byte_seconds

    # -- queries (what the figures plot) ----------------------------------

    def _memory_peaks(self) -> np.ndarray:
        """Each machine's largest sample (0 if never above 0)."""
        by_width: Dict[int, List[np.ndarray]] = {}
        for _, row in self._memory_rows:
            by_width.setdefault(row.size, []).append(row)
        peaks = np.zeros(max(by_width, default=0), dtype=np.int64)
        for width, rows in by_width.items():
            np.maximum(peaks[:width], np.max(rows, axis=0), out=peaks[:width])
        return peaks

    def peak_memory_bytes(self) -> int:
        """Largest single-machine resident memory seen."""
        peaks = self._memory_peaks()
        return int(peaks.max()) if peaks.size else 0

    def total_memory_bytes(self) -> int:
        """Sum of every machine's peak memory (Table 8's metric)."""
        return int(self._memory_peaks().sum())

    def memory_series(self, machine: int) -> List[Tuple[float, int]]:
        """(time, bytes) series for one machine (Figure 10's lines)."""
        return [(time, int(row[machine])) for time, row in self._memory_rows
                if machine < row.size]

    def cpu_totals(self) -> Dict[str, float]:
        """Aggregate CPU seconds by category across the cluster."""
        self._fold_cpu()
        return dict(zip(("user", "system", "iowait", "idle"),
                        self._cpu_totals))

    def max_cpu_utilization(self) -> Dict[str, float]:
        """Peak per-phase fraction of (user, iowait) CPU (Figure 13a)."""
        self._fold_cpu()
        return {"user": self._best_user_ratio,
                "iowait": self._best_iowait_ratio}

    def network_total_bytes(self) -> float:
        """Total bytes through the NICs (Figure 13c's metric)."""
        return self.network_bytes_sent + self.network_bytes_received

    def memory_byte_seconds(self) -> float:
        """The run's resident-memory × time integral (cost accounting)."""
        return self._memory_byte_seconds


def _raise_best(best: float, ratios: np.ndarray) -> float:
    """``best`` raised to the largest ratio above it; NaN never wins."""
    above = ratios[ratios > best]
    return float(above.max()) if above.size else best
