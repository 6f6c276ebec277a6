"""Simulated shared-nothing cluster: specs, memory, network, HDFS, tracking."""

from .cluster import Cluster
from .faults import FaultPlan
from .failures import (
    FailureKind,
    MPIOverflowError,
    ShuffleError,
    SimulatedFailure,
    SimulatedOOM,
    SimulatedTimeout,
)
from .hdfs import DEFAULT_BLOCK_SIZE, HdfsModel
from .memory import MemoryAccountant
from .network import NetworkModel
from .specs import CLUSTER_SIZES, COST_MACHINE, GB, MB, R3_XLARGE, ClusterSpec, MachineSpec
from .tracker import ResourceTracker, SimClock

__all__ = [
    "Cluster",
    "ClusterSpec",
    "MachineSpec",
    "R3_XLARGE",
    "COST_MACHINE",
    "CLUSTER_SIZES",
    "GB",
    "MB",
    "MemoryAccountant",
    "NetworkModel",
    "HdfsModel",
    "DEFAULT_BLOCK_SIZE",
    "ResourceTracker",
    "SimClock",
    "FailureKind",
    "FaultPlan",
    "SimulatedFailure",
    "SimulatedOOM",
    "SimulatedTimeout",
    "MPIOverflowError",
    "ShuffleError",
]
