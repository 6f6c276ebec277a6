"""What a worker process runs per cell: one cell in, one payload out.

The pool's entry point, :func:`repro.exec.executor.run_cell_batch`,
calls :func:`run_cell_task` for each cell of its batch: it rebuilds the
(deterministic) dataset in the worker's process, runs the cell, and
returns the serialized result. Simulated failures — TO/OOM/MPI/SHFL —
are *results* and come back inside the payload like any completed run;
only a real exception escaping the simulation (a bug, a dying
interpreter) goes back to the scheduler, where the retry policy deals
with it.

``_REPRO_EXEC_FAULT`` is the retry path's failure drill (the process-
level counterpart of :mod:`repro.chaos`): set it to
``SYSTEM:N`` and every cell of that system crashes its first ``N``
attempts, deterministically, in the worker — which is how the tests
exercise backoff and retry exhaustion without a flaky dependency.
"""

from __future__ import annotations

import os

from ..chaos.plan import ChaosPlan
from ..core.runner import run_cell
from ..datasets.registry import load_dataset
from .serialize import result_to_payload

__all__ = ["run_cell_task", "WorkerCrash"]

#: env hook injecting deterministic worker crashes: ``"SYSTEM:attempts"``
FAULT_ENV = "_REPRO_EXEC_FAULT"


class WorkerCrash(RuntimeError):
    """An injected worker-process failure (the retry drill)."""


def _maybe_inject_fault(task: dict) -> None:
    drill = os.environ.get(FAULT_ENV, "")
    if not drill:
        return
    system, _, attempts = drill.partition(":")
    if task["system"] == system and task["attempt"] <= int(attempts or 0):
        raise WorkerCrash(
            f"injected worker crash for {task['system']} "
            f"(attempt {task['attempt']})"
        )


def run_cell_task(task: dict) -> dict:
    """Execute one planned cell; returns the serialized result payload."""
    _maybe_inject_fault(task)
    dataset = load_dataset(task["dataset"], task["size"])
    chaos_dict = task.get("chaos")
    result = run_cell(
        task["system"], task["workload"], dataset, task["cluster_size"],
        chaos=None if chaos_dict is None else ChaosPlan.from_dict(chaos_dict),
    )
    return result_to_payload(result)
