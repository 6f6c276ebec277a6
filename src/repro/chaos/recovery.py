"""Concrete recovery models: Table 1's fault-tolerance column, costed.

Three mechanisms cover every system under study:

* :class:`CheckpointRecovery` — the in-memory BSP systems (Giraph,
  Blogel, GraphLab, GraphX, Gelly, ...) write a replicated global
  checkpoint of the vertex state every ``checkpoint_interval``
  supersteps; a crash reloads partitions from HDFS and re-executes
  everything since the last usable checkpoint.
* :class:`ReexecutionRecovery` — Hadoop/HaLoop re-run only the dead
  machine's tasks of the current iteration; the blast radius is one
  machine's shard, not the cluster.
* :class:`RestartRecovery` — Vertica has no fault tolerance: any crash
  or partition aborts the query and the run restarts from zero.

Each method charges simulated time through the run's cluster; the
superstep loop wraps the calls in ``recover`` spans and accumulates
``recovery_seconds`` (see ``BspExecutionMixin._chaos_round``). The
protocol itself — :class:`~repro.engines.base.RecoveryModel` — lives in
``engines/base.py`` next to :class:`~repro.engines.base.Engine`.
"""

from __future__ import annotations

from ..engines.base import RecoveryContext, RecoveryModel

__all__ = [
    "CheckpointRecovery",
    "ReexecutionRecovery",
    "RestartRecovery",
    "recovery_model_for",
]


class CheckpointRecovery(RecoveryModel):
    """Global checkpoints + replay-since-checkpoint (the BSP systems)."""

    name = "checkpoint"

    def __init__(self, checkpoint_interval: int) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.checkpoint_interval = checkpoint_interval

    def maybe_checkpoint(self, ctx: RecoveryContext) -> None:
        if ctx.iteration % self.checkpoint_interval:
            return
        cluster = ctx.cluster
        with cluster.tracer.span("checkpoint", cat="chaos",
                                 iteration=ctx.iteration):
            cluster.hdfs_write(ctx.state_bytes)
        ctx.checkpoints.append((cluster.now, ctx.iteration))
        ctx.result.metrics.gauge("checkpoints").inc()

    def recover_crash(self, ctx, event, machine) -> None:
        cluster = ctx.cluster
        # every machine reloads its partitions plus the checkpointed state
        cluster.hdfs_read(ctx.dataset.profile.raw_size_bytes + ctx.state_bytes)
        ckpt_time, ckpt_iteration = ctx.last_checkpoint
        cluster.advance(max(0.0, cluster.now - ckpt_time))
        ctx.count_replayed(max(0, ctx.iteration - ckpt_iteration))

    def corrupt_checkpoint(self, ctx, event) -> None:
        if ctx.checkpoints:
            ctx.checkpoints.pop()
            ctx.cluster.metrics.counter("checkpoints_corrupted").inc()

    def rescale(self, ctx, event, old_workers, new_workers) -> None:
        # a checkpointing system has no partition-migration protocol:
        # the new cluster reloads everything from HDFS (input partitions
        # plus the checkpointed state) and replays since the checkpoint
        cluster = ctx.cluster
        cluster.hdfs_read(ctx.dataset.profile.raw_size_bytes + ctx.state_bytes)
        ckpt_time, ckpt_iteration = ctx.last_checkpoint
        cluster.advance(max(0.0, cluster.now - ckpt_time))
        ctx.count_replayed(max(0, ctx.iteration - ckpt_iteration))


class ReexecutionRecovery(RecoveryModel):
    """Per-task re-execution (Hadoop/HaLoop): redo one iteration's shard."""

    name = "reexecution"

    def recover_crash(self, ctx, event, machine) -> None:
        ctx.cluster.advance(max(0.0, ctx.cluster.now - ctx.superstep_start))
        ctx.count_replayed(1)

    def rescale(self, ctx, event, old_workers, new_workers) -> None:
        # task-granular systems migrate only the moved shards: going
        # from o to n workers relocates |n - o| / max(o, n) of the data
        # (each machine owns 1/max share), shipped over the wire, then
        # the interrupted iteration's tasks re-run on the new layout
        cluster = ctx.cluster
        moved = abs(new_workers - old_workers) / max(old_workers, new_workers)
        nbytes = (ctx.dataset.profile.raw_size_bytes + ctx.state_bytes) * moved
        if nbytes > 0.0:
            cluster.shuffle(nbytes)
        ctx.count_replayed(1)


class RestartRecovery(RecoveryModel):
    """No fault tolerance (Vertica): abort and restart from zero."""

    name = "none"

    def recover_crash(self, ctx, event, machine) -> None:
        ctx.cluster.advance(max(0.0, ctx.cluster.now - ctx.loop_start))
        ctx.count_replayed(ctx.iteration)

    def recover_partition(self, ctx, event, machine) -> None:
        # the query dies when the split hits, waits out the partition,
        # then redoes everything since the start of the loop
        ctx.cluster.advance(
            event.seconds + max(0.0, ctx.cluster.now - ctx.loop_start)
        )
        ctx.count_replayed(ctx.iteration)

    def rescale(self, ctx, event, old_workers, new_workers) -> None:
        # no online membership change: the query aborts and the whole
        # run restarts from zero on the resized cluster
        ctx.cluster.advance(max(0.0, ctx.cluster.now - ctx.loop_start))
        ctx.count_replayed(ctx.iteration)


def recovery_model_for(mechanism: str, checkpoint_interval: int) -> RecoveryModel:
    """Build the model for an engine's ``fault_tolerance`` class attr."""
    if mechanism == "checkpoint":
        return CheckpointRecovery(checkpoint_interval)
    if mechanism == "reexecution":
        return ReexecutionRecovery()
    if mechanism == "none":
        return RestartRecovery()
    raise ValueError(
        f"unknown fault-tolerance mechanism {mechanism!r}; expected "
        "'checkpoint', 'reexecution', or 'none'"
    )
