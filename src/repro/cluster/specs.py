"""Hardware specifications of the simulated cluster.

The paper runs everything on Amazon EC2 r3.xlarge instances: 4 cores,
30.5 GB memory, SSD storage, "moderate" network — and clusters of 16,
32, 64, and 128 machines (one of which is the master). A separate
512 GB machine hosts the single-thread COST runs (§5.13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from ..chaos.plan import ChaosPlan

__all__ = [
    "MachineSpec",
    "ClusterSpec",
    "R3_XLARGE",
    "COST_MACHINE",
    "CLUSTER_SIZES",
    "GB",
    "MB",
]

GB = 1024 ** 3
MB = 1024 ** 2

CLUSTER_SIZES = (16, 32, 64, 128)


@dataclass(frozen=True)
class MachineSpec:
    """One machine: cores, memory, and I/O throughput."""

    name: str
    cores: int
    memory_bytes: int
    disk_read_bps: float      # sequential SSD read bandwidth
    disk_write_bps: float     # sequential SSD write bandwidth
    network_bps: float        # per-machine NIC bandwidth (full duplex)

    @property
    def memory_gb(self) -> float:
        """Memory capacity in GB."""
        return self.memory_bytes / GB


# r3.xlarge: 4 vCPU, 30.5 GB, 1x80 GB SSD, "moderate" network; placement
# groups sustain ~2.4 Gbps effective.
R3_XLARGE = MachineSpec(
    name="r3.xlarge",
    cores=4,
    memory_bytes=int(30.5 * GB),
    disk_read_bps=250.0 * MB,
    disk_write_bps=200.0 * MB,
    network_bps=300.0 * MB,
)

# The 512 GB single-thread machine used in the COST experiment (§5.13).
COST_MACHINE = MachineSpec(
    name="cost-512gb",
    cores=1,
    memory_bytes=512 * GB,
    disk_read_bps=500.0 * MB,
    disk_write_bps=400.0 * MB,
    network_bps=1000.0 * MB,
)


@dataclass(frozen=True)
class ClusterSpec:
    """A shared-nothing cluster of identical machines.

    ``num_machines`` counts workers plus the master, matching the
    paper's "128 machines (one master)".
    """

    num_machines: int
    machine: MachineSpec = R3_XLARGE
    timeout_seconds: float = 24 * 3600.0   # the paper's TO budget
    #: scheduled fault events — a :class:`~repro.chaos.ChaosPlan`
    #: (None = the paper's failure-free runs)
    fault_plan: Optional["ChaosPlan"] = None

    def __post_init__(self) -> None:
        if self.num_machines < 2:
            raise ValueError("a cluster needs a master and at least one worker")

    @property
    def num_workers(self) -> int:
        """Machines that run computation (all but the master)."""
        return self.num_machines - 1

    @property
    def total_cores(self) -> int:
        """Worker cores available for computation."""
        return self.num_workers * self.machine.cores

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate worker memory."""
        return self.num_workers * self.machine.memory_bytes

    def __repr__(self) -> str:
        return (
            f"ClusterSpec({self.num_machines}x{self.machine.name}, "
            f"{self.total_cores} worker cores, "
            f"{self.total_memory_bytes / GB:.0f} GB)"
        )
