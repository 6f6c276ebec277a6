"""repro.chaos: seeded, deterministic fault injection for the simulation.

The package turns Table 1's qualitative fault-tolerance column into
measured recovery cost. A :class:`ChaosPlan` schedules typed events
(crash, straggler, network degradation/partition, message loss, HDFS
block loss, checkpoint corruption); every engine consumes them between
supersteps through its :class:`~repro.engines.base.RecoveryModel`,
charging simulated recovery time and emitting ``fault``/``recover``
spans plus ``recovery_seconds`` / ``supersteps_replayed`` /
``bytes_rereplicated`` metrics. Faulted runs still produce bit-exact
answers — chaos only ever costs time, never correctness.

Layering: ``events``/``plan``/``runtime`` are leaf modules (imported by
``repro.cluster``); ``recovery``, ``experiment`` (the one perturbation
harness: fault and rescale grids) and ``bench`` sit above
``repro.engines`` / ``repro.exec`` and load lazily to keep the import
graph acyclic.
"""

from .events import (
    EVENT_KINDS,
    BlockLoss,
    ChaosEvent,
    CheckpointCorruption,
    MachineCrash,
    MessageLoss,
    NetworkDegradation,
    NetworkPartition,
    Straggler,
    event_from_dict,
)
from .plan import ChaosPlan
from .runtime import ChaosRuntime, derive_machine

__all__ = [
    "ChaosEvent",
    "MachineCrash",
    "Straggler",
    "NetworkDegradation",
    "NetworkPartition",
    "MessageLoss",
    "BlockLoss",
    "CheckpointCorruption",
    "EVENT_KINDS",
    "event_from_dict",
    "ChaosPlan",
    "ChaosRuntime",
    "derive_machine",
    "RecoveryContext",
    "recovery_model_for",
    "RecoveryCell",
    "ChaosReport",
    "recovery_cost_experiment",
]

_LAZY = {
    "RecoveryContext": "recovery",
    "recovery_model_for": "recovery",
    "RecoveryCell": "experiment",
    "ChaosReport": "experiment",
    "recovery_cost_experiment": "experiment",
}


def __getattr__(name):
    # recovery/experiment import repro.engines / repro.exec, which import
    # repro.cluster, which imports chaos.runtime — eager re-export here
    # would close that cycle during package init.
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.chaos' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
