"""Engine abstraction: how a system runs a workload on the cluster.

Every system under study becomes an :class:`Engine` subclass that
executes the *same* workload supersteps (so answers are exact) while
charging simulated time, memory, and network according to its own
computation model. A run produces a :class:`RunResult` with the
paper's four performance metrics (§4.2): data-loading time,
execution time, result-saving time, and total response time — plus the
resource-utilization summary and the failure cell (OOM/TO/MPI/SHFL)
when the run dies.

Scaling: counts observed on the small synthetic graph are converted to
paper units through the dataset's vertex/edge scale factors, and —
for the O(diameter) traversal workloads — superstep costs are charged
``iteration_scale`` times, the ratio of the real dataset's diameter to
the synthetic one's, so a 48 000-hop road network times out exactly
where the paper's does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..cluster import Cluster, ClusterSpec, FailureKind, SimulatedFailure

if TYPE_CHECKING:
    from ..chaos.events import ChaosEvent, NetworkPartition
    from ..chaos.plan import ChaosPlan
from ..datasets.registry import Dataset
from ..graph.stats import estimate_diameter
from ..obs import (ExtrasView, FrozenJournalObservation, MetricsRegistry,
                   RunObservation)
from ..graph.structures import Graph
from ..workloads.base import Workload, WorkloadKind, WorkloadState
from ..workloads.pagerank import INITIAL_RANK, PageRank
from ..workloads.khop import KHop
from ..workloads.sssp import SSSP
from ..workloads.wcc import WCC

__all__ = [
    "RunResult",
    "Engine",
    "RecoveryContext",
    "RecoveryModel",
    "make_workload",
    "iteration_scale",
    "WORKLOAD_NAMES",
    "EXTENSION_WORKLOADS",
    "MODEL_PRIMITIVES",
]

WORKLOAD_NAMES = ("pagerank", "wcc", "sssp", "khop")
#: extension workloads runnable on every engine but outside the paper's grids
EXTENSION_WORKLOADS = ("cdlp",)

#: computation model → the Cluster primitives that model may charge.
#: RPL011 (the deep lint pass) statically verifies that every primitive
#: call site reachable from an engine's ``run`` is covered by the
#: engine's declared ``model_primitives``, and that the declaration
#: stays inside this table for the engine's ``trace_model``. Keep the
#: values literal frozensets — the linter reads this dict from the AST
#: without importing the module. The table encodes Section 3's model
#: boundaries: BSP/GAS/dataflow communicate through synchronized
#: shuffles and persist via HDFS; block-centric additionally gathers
#: block state to the master (Blogel's global computation); MapReduce
#: spills iterations through local disk and HDFS round-trips;
#: relational (Vertica) scans local storage and shuffles join traffic,
#: never HDFS; the single-thread baseline touches no distributed
#: communication primitive at all.
MODEL_PRIMITIVES: Mapping[str, FrozenSet[str]] = {
    "bsp": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "gas": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "dataflow": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "block-centric": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
        "gather_to_master",
    }),
    "mapreduce": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "local_disk_io", "sample_memory",
    }),
    "relational": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "local_disk_io", "sample_memory",
    }),
    "single-thread": frozenset({
        "advance", "uniform_compute", "local_disk_io", "sample_memory",
    }),
}


@dataclass
class RunResult:
    """One cell of the paper's result grids.

    Quantities live in a typed :class:`~repro.obs.MetricsRegistry`
    shared with the run's cluster; ``extras`` stays available as a
    backward-compatible mutable-mapping view over that registry (a dict
    passed to the constructor — e.g. by the JSONL log reader — is
    folded into the registry on init).

    ``per_iteration_time`` is the Table 6 derivation: simulated seconds
    per *paper* superstep. The denominator is ``iterations * scale``
    (observed supersteps times the diameter ratio each one stands in
    for); the numerator is the superstep loop's time only — the same
    interval the journal's superstep spans cover — so engines with
    pre-loop execute work (Blogel-B's block PageRank step 1) don't
    smear it across their iterations.
    """

    system: str                   # the figure abbreviation, e.g. "BV", "GL-S-R-I"
    workload: str
    dataset: str
    cluster_size: int
    load_time: float = 0.0
    execute_time: float = 0.0
    save_time: float = 0.0
    overhead_time: float = 0.0
    iterations: int = 0
    failure: Optional[FailureKind] = None
    failure_detail: str = ""
    answer: Optional[np.ndarray] = None
    network_bytes: float = 0.0
    peak_memory_bytes: float = 0.0
    total_memory_bytes: float = 0.0
    per_iteration_time: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )
    #: the run's journal, frozen when ``Engine.run`` returned
    observation: Optional[FrozenJournalObservation] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.extras, ExtrasView):
            seed = self.extras
            self.extras = ExtrasView(self.metrics)  # type: ignore[assignment]
            for key, value in seed.items():
                self.extras[key] = value

    @property
    def ok(self) -> bool:
        """True when the run completed."""
        return self.failure is None

    @property
    def total_time(self) -> float:
        """End-to-end response time (load + execute + save + overhead)."""
        return self.load_time + self.execute_time + self.save_time + self.overhead_time

    def cell(self) -> str:
        """The grid cell the paper would print: seconds or a failure code."""
        return f"{self.total_time:.0f}" if self.ok else str(self.failure)

    def __repr__(self) -> str:
        status = "ok" if self.ok else str(self.failure)
        return (
            f"RunResult({self.system} {self.workload}/{self.dataset}"
            f"@{self.cluster_size}: {status}, total={self.total_time:.1f}s)"
        )


@lru_cache(maxsize=None)
def _measured_diameter(name: str, size: str) -> int:
    from ..datasets.registry import load_dataset

    return max(1, estimate_diameter(load_dataset(name, size).graph))


def iteration_scale(dataset: Dataset, workload: Workload) -> float:
    """Paper supersteps per synthetic superstep.

    Traversal workloads (SSSP, WCC) need O(diameter) supersteps; our
    synthetic graphs have the paper datasets' shape but not their hop
    counts, so each observed superstep stands in for
    ``paper_diameter / synthetic_diameter`` paper supersteps. Analytic
    workloads and the fixed-K K-hop are diameter-independent (scale 1).
    """
    if workload.kind is not WorkloadKind.TRAVERSAL or isinstance(workload, KHop):
        return 1.0
    measured = _measured_diameter(dataset.name, dataset.size)
    return max(1.0, dataset.profile.diameter / measured)


def make_workload(
    name: str,
    dataset: Dataset,
    stop_mode: str = "tolerance",
    approximate: bool = False,
    pagerank_iterations: int = 30,
    wcc_variant: str = "hashmin",
) -> Workload:
    """Build a workload instance configured for a dataset.

    The paper's PageRank tolerance is the initial rank (1.0) *at paper
    scale*; ranks on the synthetic graph are smaller by the vertex scale
    factor, so the tolerance shrinks by the same factor to preserve the
    iteration count.
    """
    if name == "pagerank":
        tol = INITIAL_RANK / dataset.vertex_scale
        return PageRank(
            stop_mode=stop_mode,
            max_iterations=pagerank_iterations,
            tolerance=tol,
            approximate=approximate,
        )
    if name == "wcc":
        if wcc_variant == "hash-to-min":
            from ..workloads.wcc import HashToMinWCC

            return HashToMinWCC()
        return WCC()
    if name == "sssp":
        return SSSP(source=dataset.sssp_source)
    if name == "khop":
        return KHop(source=dataset.sssp_source, k=3)
    if name == "cdlp":
        from ..workloads.cdlp import CDLP

        return CDLP()
    raise KeyError(
        f"unknown workload {name!r}; expected one of "
        f"{WORKLOAD_NAMES + EXTENSION_WORKLOADS}"
    )


def workload_for(engine: "Engine", name: str, dataset: Dataset) -> Workload:
    """Build a workload configured the way ``engine`` runs it."""
    return make_workload(
        name,
        dataset,
        stop_mode=engine.pagerank_stop,
        approximate=engine.pagerank_approximate and engine.pagerank_stop == "tolerance",
        wcc_variant=engine.wcc_variant,
    )


@dataclass
class RecoveryContext:
    """Everything a :class:`RecoveryModel` needs to charge recovery cost.

    Built once per superstep loop; the loop refreshes the per-superstep
    fields (``iteration``, ``superstep_start``, ``superstep_shuffled``)
    before each chaos round. ``checkpoints`` is the run's checkpoint
    history as ``(simulated_time, iteration)`` pairs — corruption events
    pop entries so the next crash falls back further.
    """

    cluster: Cluster
    dataset: Dataset
    result: "RunResult"
    #: when the superstep loop started (restart-from-zero replays to here)
    loop_start: float
    #: bytes one global state checkpoint writes
    state_bytes: float
    iteration: int = 0
    superstep_start: float = 0.0
    #: bytes the superstep just run shuffled (message-loss redelivery base)
    superstep_shuffled: float = 0.0
    checkpoints: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def last_checkpoint(self) -> Tuple[float, int]:
        """Latest usable checkpoint, or the loop start when none exist."""
        return self.checkpoints[-1] if self.checkpoints else (self.loop_start, 0)

    def count_replayed(self, supersteps: int) -> None:
        """Record supersteps a recovery re-executed (journal metric)."""
        self.cluster.metrics.counter("supersteps_replayed").inc(supersteps)


class RecoveryModel(abc.ABC):
    """Table 1's fault-tolerance mechanism as chargeable behaviour.

    One instance per run, produced by :meth:`Engine.recovery_model`.
    The superstep loop calls :meth:`maybe_checkpoint` every round and
    routes crash/partition/corruption events here; each method charges
    simulated time through the context's cluster (concrete models live
    in :mod:`repro.chaos.recovery`).
    """

    #: mechanism tag recorded on recover spans ("checkpoint",
    #: "reexecution", or "none")
    name: str = ""

    def maybe_checkpoint(self, ctx: RecoveryContext) -> None:
        """Write a global checkpoint if this round is due (default: never)."""

    @abc.abstractmethod
    def recover_crash(
        self, ctx: RecoveryContext, event: "ChaosEvent", machine: int
    ) -> None:
        """Charge the cost of recovering from a dead worker."""

    def recover_partition(
        self, ctx: RecoveryContext, event: "NetworkPartition", machine: int
    ) -> None:
        """A machine group is unreachable: stall at the barrier until it
        heals (systems that cannot wait override and restart)."""
        ctx.cluster.advance(event.seconds)

    def corrupt_checkpoint(
        self, ctx: RecoveryContext, event: "ChaosEvent"
    ) -> None:
        """The latest checkpoint became unreadable (no-op without one)."""

    @abc.abstractmethod
    def rescale(
        self,
        ctx: RecoveryContext,
        event: "ChaosEvent",
        old_workers: int,
        new_workers: int,
    ) -> None:
        """Charge the cost of repartitioning onto a resized cluster.

        Fired on a superstep boundary by a ``scaleout``/``scalein``
        event, *before* :meth:`~repro.cluster.cluster.Cluster.rescale`
        changes the worker count — the bill is paid on the old cluster,
        the next superstep runs on the new one. Each Table 1 mechanism
        prices elasticity with the machinery it already has: checkpoint
        systems reload and replay, re-execution systems migrate only
        the moved partitions, restart-from-zero systems start over.
        """


class Engine(abc.ABC):
    """A distributed graph processing system under evaluation."""

    #: PageRank stop criterion this system uses by default ("tolerance"
    #: or "iterations"; Giraph runs a fixed iteration count, §5.5)
    pagerank_stop: str = "tolerance"
    #: whether this system's tolerance-mode PageRank is the approximate,
    #: opt-out variant (only GraphLab, §5.2)
    pagerank_approximate: bool = False
    #: WCC algorithm: "hashmin" (the default everywhere) or
    #: "hash-to-min" (GraphFrames' fewer-iterations variant, §5.6)
    wcc_variant: str = "hashmin"
    #: Table 1's fault-tolerance mechanism: "checkpoint" (BSP systems),
    #: "reexecution" (MapReduce family), or "none" (Vertica)
    fault_tolerance: str = "checkpoint"
    #: abbreviation used in the paper's figures ("BV", "G", "S", ...)
    key: str = ""
    #: full system name ("Giraph", "Blogel-V", ...)
    display_name: str = ""
    #: implementation language, for Table 1 and the §7 discussion
    language: str = ""
    #: Table 1 feature row (immutable: class attributes are shared by
    #: every run in the process, so subclasses wrap theirs the same way)
    features: Mapping[str, str] = MappingProxyType({})
    #: MPI engines run a rank on every machine including the master
    uses_all_machines: bool = False
    #: dataset text format the system ingests (§4.3)
    input_format: str = "adj"
    #: computation model tag used as the category of superstep spans, so
    #: traces show each paradigm's characteristic shape ("bsp", "gas",
    #: "mapreduce", "block-centric", "dataflow", ...)
    trace_model: str = "bsp"
    #: the Cluster primitives this engine's call graph may reach — every
    #: concrete engine must declare this as a literal frozenset, and it
    #: must be a subset of ``MODEL_PRIMITIVES[trace_model]``; RPL011
    #: verifies both statically (no value here: forgetting the
    #: declaration is itself a finding, not an empty contract)
    model_primitives: FrozenSet[str]

    # -- template ---------------------------------------------------------

    def workers_for(self, spec: ClusterSpec) -> int:
        """Worker count on a given cluster."""
        return spec.num_machines if self.uses_all_machines else spec.num_workers

    def recovery_model(self, plan: "ChaosPlan") -> RecoveryModel:
        """This system's Table 1 mechanism, ready to charge recovery cost."""
        from ..chaos.recovery import recovery_model_for

        return recovery_model_for(self.fault_tolerance, plan.checkpoint_interval)

    def run(
        self,
        dataset: Dataset,
        workload: Workload,
        cluster_spec: ClusterSpec,
        obs: Optional[RunObservation] = None,
    ) -> RunResult:
        """Execute one experiment cell; failures become result codes.

        The run's tracer records run → phase spans here (engines add
        superstep and cluster-op spans below); everything lands in one
        :class:`~repro.obs.RunObservation` shared with the cluster. On
        return the observation is frozen into ``result.observation``:
        the canonical journal text, rendered exactly once.
        """
        if obs is None:
            obs = RunObservation()
        cluster = Cluster(
            cluster_spec, num_workers=self.workers_for(cluster_spec), obs=obs
        )
        result = RunResult(
            system=self.key,
            workload=workload.name,
            dataset=dataset.name,
            cluster_size=cluster_spec.num_machines,
            metrics=obs.metrics,
        )
        scale = iteration_scale(dataset, workload)
        tracer = obs.tracer
        phase_start = 0.0
        phase = "load"
        run_span = tracer.start(
            "run", cat="run", system=self.key, workload=workload.name,
            dataset=dataset.name, machines=cluster_spec.num_machines,
            model=self.trace_model,
        )
        try:
            with tracer.span("load", cat="phase"):
                self._load(dataset, workload, cluster, result)
            result.load_time = cluster.now - phase_start

            phase, phase_start = "execute", cluster.now
            with tracer.span("execute", cat="phase"):
                state = self._execute(dataset, workload, cluster, result, scale)
            result.execute_time = cluster.now - phase_start
            result.answer = workload.answer(state)
            result.iterations = state.iteration
            if state.iteration and not result.per_iteration_time:
                # Fallback for engines without a superstep loop: the
                # loop-based engines already set the span-accurate value
                # (see RunResult's docstring for the denominator).
                result.per_iteration_time = result.execute_time / (
                    state.iteration * scale
                )

            phase, phase_start = "save", cluster.now
            with tracer.span("save", cat="phase"):
                self._save(dataset, workload, cluster, result, state)
            result.save_time = cluster.now - phase_start

            phase, phase_start = "overhead", cluster.now
            with tracer.span("overhead", cat="phase"):
                self._overhead(dataset, cluster, result)
            result.overhead_time += cluster.now - phase_start
        except SimulatedFailure as failure:
            result.failure = failure.kind
            result.failure_detail = f"{phase}: {failure}"
            elapsed = cluster.now - phase_start
            if phase == "load":
                result.load_time = elapsed
            elif phase == "execute":
                result.execute_time = elapsed
            elif phase == "save":
                result.save_time = elapsed
        finally:
            cluster.sample_memory()
            result.network_bytes = cluster.tracker.network_total_bytes()
            result.peak_memory_bytes = cluster.memory.max_peak_bytes()
            result.total_memory_bytes = cluster.memory.total_peak_bytes()
            result.extras["tracker_peak_total"] = float(
                cluster.tracker.total_memory_bytes()
            )
            # memory×time integral accrued by the cluster primitives —
            # journaled as a metric so the cost record can bill GB-hours
            result.extras["memory_byte_seconds"] = float(
                cluster.tracker.memory_byte_seconds()
            )
            cpu = cluster.tracker.cpu_totals()
            result.extras["cpu_user_seconds"] = cpu["user"]
            result.extras["cpu_system_seconds"] = cpu["system"]
            result.extras["cpu_iowait_seconds"] = cpu["iowait"]
            util = cluster.tracker.max_cpu_utilization()
            result.extras["max_user_utilization"] = util["user"]
            result.extras["max_iowait_utilization"] = util["iowait"]
            tracer.end(
                run_span,
                status="ok" if result.ok else str(result.failure),
                total_time=result.total_time,
                iterations=result.iterations,
            )
            obs.meta = {
                "system": result.system,
                "workload": result.workload,
                "dataset": result.dataset,
                # a mid-run scale-out bills every machine the run ever
                # held (cloud billing convention); machines_joined is 0
                # unless a rescale fired
                "machines": result.cluster_size + cluster.tracker.machines_joined,
                "status": "ok" if result.ok else str(result.failure),
                "failure_detail": result.failure_detail,
                "iterations": result.iterations,
                "total_time": result.total_time,
                "model": self.trace_model,
            }
        # not in ``finally``: an escaping exception must propagate as is,
        # never be replaced by a journal error about its open spans
        result.observation = obs.freeze()
        return result

    # -- phases implemented per engine -------------------------------------

    @abc.abstractmethod
    def _load(
        self, dataset: Dataset, workload: Workload, cluster: Cluster,
        result: RunResult,
    ) -> None:
        """Read the dataset, partition it, build in-memory structures."""

    @abc.abstractmethod
    def _execute(
        self, dataset: Dataset, workload: Workload, cluster: Cluster,
        result: RunResult, scale: float,
    ) -> WorkloadState:
        """Run the workload to completion; return its final state."""

    def _save(
        self, dataset: Dataset, workload: Workload, cluster: Cluster,
        result: RunResult, state: WorkloadState,
    ) -> None:
        """Write results to HDFS (default: plain parallel write)."""
        nbytes = workload.result_bytes_from_state(dataset.graph, state)
        cluster.hdfs_write(nbytes * dataset.vertex_scale)

    def _overhead(
        self, dataset: Dataset, cluster: Cluster, result: RunResult
    ) -> None:
        """Framework start/stop cost outside the three main phases."""

    # -- helpers ------------------------------------------------------------

    def graph_for(self, dataset: Dataset, workload: Workload) -> Graph:
        """The graph this engine actually computes on (quirks live here)."""
        return dataset.graph

    def __repr__(self) -> str:
        return f"{type(self).__name__}(key={self.key!r})"
