"""Network fabric model.

Machines are connected through a non-blocking switch; each machine is
limited by its own NIC bandwidth. The dominant pattern in every system
under study is the all-to-all shuffle (BSP message exchange, MapReduce
shuffle, Vertica's distributed self-join), whose duration is set by the
most-loaded NIC.
"""

from __future__ import annotations

from typing import Optional

from .specs import MachineSpec

__all__ = ["NetworkModel"]


class NetworkModel:
    """Time and byte accounting for cluster communication."""

    #: fixed per-message-exchange latency (switch + protocol), seconds
    base_latency: float = 0.002

    def __init__(self, num_machines: int, machine: MachineSpec) -> None:
        self.num_machines = num_machines
        self.machine = machine
        self.total_bytes: float = 0.0
        #: chaos NIC-bandwidth divisor (1.0 = healthy; set each superstep
        #: from the run's active NetworkDegradation events)
        self.degradation: float = 1.0

    def _record(self, nbytes: float) -> None:
        self.total_bytes += nbytes

    def _bps(self) -> float:
        """Effective per-NIC bandwidth under the current degradation."""
        return self.machine.network_bps / self.degradation

    def broadcast_time(self, nbytes: float) -> float:
        """Master sends ``nbytes`` to every worker (tree-structured)."""
        import math

        self._record(nbytes * (self.num_machines - 1))
        rounds = max(1, math.ceil(math.log2(max(2, self.num_machines))))
        return rounds * (self.base_latency + nbytes / self._bps())

    def gather_time(self, nbytes_per_machine: float) -> float:
        """Every worker sends ``nbytes_per_machine`` to the master.

        The master NIC is the bottleneck — this is exactly the hot spot
        in Blogel-B's Voronoi aggregation (§5.1).
        """
        total = nbytes_per_machine * (self.num_machines - 1)
        self._record(total)
        return self.base_latency + total / self._bps()

    def shuffle_time(
        self,
        total_bytes: float,
        skew: float = 0.0,
        local_fraction: Optional[float] = None,
    ) -> float:
        """All-to-all exchange of ``total_bytes`` across the cluster.

        ``local_fraction`` is the share of bytes that stay on-machine
        (hash partitioning keeps 1/M locally by default). ``skew`` adds
        the imbalance of the most-loaded machine over an even split —
        stragglers stretch shuffles (Figure 11's GraphX behaviour).
        """
        if self.num_machines <= 1:
            return 0.0
        if local_fraction is None:
            local_fraction = 1.0 / self.num_machines
        wire_bytes = total_bytes * (1.0 - local_fraction)
        self._record(wire_bytes)
        per_machine = wire_bytes / self.num_machines
        bottleneck = per_machine * (1.0 + skew)
        return self.base_latency + bottleneck / self._bps()

    def barrier_time(self) -> float:
        """A BSP synchronization barrier (small all-to-master-to-all)."""
        import math

        rounds = max(1, math.ceil(math.log2(max(2, self.num_machines))))
        return rounds * self.base_latency
