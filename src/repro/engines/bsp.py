"""Shared superstep-loop machinery for the BSP-style engines.

Giraph, Blogel, GraphLab, Gelly, and GraphX all run the workload as a
sequence of synchronized supersteps; what differs is what each
superstep *costs*. :class:`BspExecutionMixin` owns the loop — run the
real superstep on the real graph, then let the engine charge simulated
time/memory/network for it — and applies the iteration scale factor
(see :func:`repro.engines.base.iteration_scale`) so each observed
superstep stands in for the right number of paper-scale supersteps.

Because the supersteps are the same for every engine, the loop reads
them from a per-process trajectory memo
(:func:`repro.engines.common.superstep_trajectory`): the first run of a
workload configuration on a graph computes them, later runs replay
them and compute only past the recorded prefix.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..chaos.events import ChaosEvent
from ..chaos.runtime import ChaosRuntime
from ..cluster import Cluster
from ..datasets.registry import Dataset
from ..graph.structures import Graph
from ..workloads.base import SuperstepStats, Workload, WorkloadState
from .base import RecoveryContext, RecoveryModel, RunResult
from .common import SuperstepScope, superstep_trajectory

__all__ = ["BspExecutionMixin", "ChaosRounds"]


class BspExecutionMixin(abc.ABC):
    """Superstep loop + scale bookkeeping for BSP engines."""

    #: hard cap to keep buggy configurations from spinning forever
    max_supersteps: int = 200_000

    @abc.abstractmethod
    def charge_superstep(
        self,
        dataset: Dataset,
        workload: Workload,
        cluster: Cluster,
        stats: SuperstepStats,
        first: bool,
    ) -> None:
        """Charge one superstep's simulated cost (time/memory/network)."""

    #: multiplier for per-superstep *fixed* costs (barriers, sweeps,
    #: per-job overhead, invariant-data I/O): one per paper superstep
    scale_fixed: float = 1.0
    #: multiplier for *message-volume* costs. Message totals grow far
    #: slower than the superstep count when the diameter stretches (a
    #: vertex's label changes like a record process, not once per hop),
    #: so volume costs scale by sqrt of the superstep ratio.
    scale_messages: float = 1.0

    def _execute(
        self, dataset: Dataset, workload: Workload, cluster: Cluster,
        result: RunResult, scale: float,
    ) -> WorkloadState:
        """Run the superstep loop on the engine's graph (``graph_for``)."""
        return self.run_superstep_loop(
            self.graph_for(dataset, workload),  # type: ignore[attr-defined]
            dataset, workload, cluster, result, scale,
        )

    def run_superstep_loop(
        self,
        graph: Graph,
        dataset: Dataset,
        workload: Workload,
        cluster: Cluster,
        result: RunResult,
        scale: float,
        state: Optional[WorkloadState] = None,
    ) -> WorkloadState:
        """Execute the workload with paper-scale superstep charging.

        Supersteps come from :func:`superstep_trajectory`, so only
        those past its recorded prefix are computed; charging is per
        run. A caller-seeded ``state`` gets a private trajectory, and
        the caller receives a private copy of the final state.

        Each observed superstep stands in for ``scale`` paper
        supersteps: engines multiply their per-superstep fixed costs by
        :attr:`scale_fixed` and their message-volume costs by
        :attr:`scale_messages`. The timeout can therefore fire mid-loop,
        exactly like the paper's 24-hour TO cells.
        """
        self.scale_fixed = scale
        self.scale_messages = scale ** 0.5
        loop_start = cluster.now
        rounds = self.chaos_rounds(cluster, dataset, result)
        observe = SuperstepScope(cluster, getattr(self, "trace_model", "bsp"))
        try:
            with superstep_trajectory(workload, graph, state) as trajectory:
                step = 0
                iteration, done = trajectory.start
                while not done:
                    if iteration >= self.max_supersteps:
                        raise RuntimeError(
                            f"{workload.name} exceeded {self.max_supersteps} supersteps"
                        )
                    if rounds is not None:
                        rounds.begin()
                    stats, iteration, done = trajectory.step(step)
                    with observe(stats):
                        try:
                            self.charge_superstep(
                                dataset, workload, cluster, stats, step == 0
                            )
                        finally:
                            # progress survives failures: Table 6 reports
                            # per-iteration times for runs that later
                            # TO/OOMed. Numerator is loop time only (the
                            # superstep spans' interval); denominator is
                            # paper supersteps — observed iterations x the
                            # diameter scale each observed superstep
                            # stands in for.
                            result.iterations = iteration
                            if cluster.now > loop_start:
                                result.per_iteration_time = (
                                    (cluster.now - loop_start)
                                    / (iteration * scale)
                                )
                    step += 1
                    if rounds is not None:
                        rounds.end(iteration)
                return trajectory.final_state()
        finally:
            self.scale_fixed = 1.0
            self.scale_messages = 1.0

    # -- fault injection (Table 1's fault-tolerance column) -----------------

    def chaos_rounds(
        self, cluster: Cluster, dataset: Dataset, result: RunResult,
    ) -> Optional["ChaosRounds"]:
        """The chaos rounds of a superstep loop starting now, or ``None``
        when the run has no fault plan (the paper's failure-free
        experiments are untouched)."""
        chaos = cluster.chaos
        if chaos is None:
            return None
        return ChaosRounds(self, cluster, chaos, RecoveryContext(
            cluster=cluster,
            dataset=dataset,
            result=result,
            loop_start=cluster.now,
            state_bytes=dataset.profile.num_vertices * 16.0,
        ))

    def _chaos_round(
        self,
        cluster: Cluster,
        chaos: ChaosRuntime,
        recovery: RecoveryModel,
        ctx: RecoveryContext,
    ) -> None:
        """One between-supersteps chaos round.

        Ticks down effects that were active during the superstep just
        run, writes a checkpoint if one is due, fires every event whose
        time has come (a zero-duration ``fault`` marker span each, plus
        a ``recover`` span wherever recovery time is charged), and syncs
        the network-degradation factor for the next superstep. Absent a
        plan no loop calls this.
        """
        chaos.end_superstep()
        recovery.maybe_checkpoint(ctx)
        for index, event in chaos.pop_due_superstep(ctx.iteration):
            machine = chaos.machine_for(index)
            cluster.metrics.counter("faults_injected").inc()
            with cluster.tracer.span(
                "fault", cat="chaos", kind=event.kind, machine=machine,
                scheduled=event.at_superstep, iteration=ctx.iteration,
            ):
                pass
            self._rescale(cluster, recovery, ctx, event, machine)
        for index, event in chaos.pop_due(cluster.now):
            machine = chaos.machine_for(index)
            cluster.metrics.counter("faults_injected").inc()
            with cluster.tracer.span(
                "fault", cat="chaos", kind=event.kind, machine=machine,
                scheduled=event.time, iteration=ctx.iteration,
            ):
                pass
            if event.kind == "straggler":
                chaos.add_straggler(machine, event.slowdown, event.supersteps)
            elif event.kind == "netdegrade":
                chaos.add_degradation(event.factor, event.supersteps)
            elif event.kind == "ckptcorrupt":
                recovery.corrupt_checkpoint(ctx, event)
            else:
                self._recover(cluster, chaos, recovery, ctx, event, machine)
        cluster.network.degradation = chaos.bandwidth_factor()

    def _rescale(
        self,
        cluster: Cluster,
        recovery: RecoveryModel,
        ctx: RecoveryContext,
        event: ChaosEvent,
        machine: int,
    ) -> None:
        """Resize the cluster on a superstep boundary, billed per model.

        The recovery model charges its repartitioning bill on the *old*
        cluster (under a ``recover`` span, so the time lands in the cost
        record's priced ``recovery_seconds``), then the cluster itself
        rescales and the next superstep runs on the new worker count.
        Answers are untouched by construction — supersteps compute on
        the real graph regardless of cluster size.
        """
        old_workers = cluster.num_workers
        if event.kind == "scaleout":
            new_workers = old_workers + event.n_machines
        else:
            new_workers = max(1, old_workers - event.machines)
        started = cluster.now
        span = cluster.tracer.start(
            "recover", cat="chaos", kind=event.kind, model=recovery.name,
            machine=machine, iteration=ctx.iteration,
            workers_before=old_workers, workers_after=new_workers,
        )
        try:
            if new_workers != old_workers:
                recovery.rescale(ctx, event, old_workers, new_workers)
                cluster.rescale(new_workers)
        finally:
            seconds = cluster.now - started
            cluster.metrics.counter("recovery_seconds").inc(seconds)
            cluster.metrics.counter("rescales").inc()
            ctx.result.metrics.gauge("recoveries").inc()
            cluster.tracer.end(span, seconds=seconds)

    def _recover(
        self,
        cluster: Cluster,
        chaos: ChaosRuntime,
        recovery: RecoveryModel,
        ctx: RecoveryContext,
        event: ChaosEvent,
        machine: int,
    ) -> None:
        """Charge one event's recovery under a ``recover`` span."""
        started = cluster.now
        span = cluster.tracer.start(
            "recover", cat="chaos", kind=event.kind, model=recovery.name,
            machine=machine, iteration=ctx.iteration,
        )
        try:
            if event.kind == "crash":
                recovery.recover_crash(ctx, event, machine)
            elif event.kind == "netsplit":
                recovery.recover_partition(ctx, event, machine)
            elif event.kind == "msgloss":
                # at-least-once redelivery: the lost share of the last
                # superstep's messages crosses the wire again
                lost = ctx.superstep_shuffled * event.fraction
                if lost > 0.0:
                    cluster.shuffle(lost)
                cluster.metrics.counter("bytes_redelivered").inc(lost)
            elif event.kind == "blockloss":
                # re-read the affected blocks' surviving replicas, then
                # write the lost replica back out to local disk
                lost = ctx.dataset.profile.raw_size_bytes * event.fraction
                cluster.hdfs_read(lost)
                cluster.local_disk_io(lost, write=True)
                cluster.metrics.counter("bytes_rereplicated").inc(lost)
            else:
                raise ValueError(f"unroutable chaos event kind {event.kind!r}")
        finally:
            seconds = cluster.now - started
            cluster.metrics.counter("recovery_seconds").inc(seconds)
            ctx.result.metrics.gauge("recoveries").inc()
            cluster.tracer.end(span, seconds=seconds)


class ChaosRounds:
    """The between-rounds chaos hook of one superstep loop.

    Built once per loop by :meth:`BspExecutionMixin.chaos_rounds`. The
    loop calls :meth:`begin` before each superstep (or block-centric
    outer round) and :meth:`end` after it, which refreshes the recovery
    context's per-superstep fields and runs the chaos round.
    """

    def __init__(self, engine: BspExecutionMixin, cluster: Cluster,
                 chaos: ChaosRuntime, ctx: RecoveryContext) -> None:
        self.engine = engine
        self.cluster = cluster
        self.chaos = chaos
        self.recovery: RecoveryModel = engine.recovery_model(chaos.plan)  # type: ignore[attr-defined]
        self.ctx = ctx
        self._start = 0.0
        self._shuffled = 0.0

    def begin(self) -> None:
        """Note the round's start time and the bytes shuffled so far."""
        self._start = self.cluster.now
        self._shuffled = self.cluster.metrics.counter("bytes_shuffled").value

    def end(self, iteration: int) -> None:
        """Run the chaos round after the round that reached ``iteration``."""
        ctx = self.ctx
        ctx.iteration = iteration
        ctx.superstep_start = self._start
        ctx.superstep_shuffled = (
            self.cluster.metrics.counter("bytes_shuffled").value - self._shuffled
        )
        self.engine._chaos_round(self.cluster, self.chaos, self.recovery, ctx)
