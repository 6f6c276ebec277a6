"""One perturbation harness: faults and rescales, gated on exact answers.

The paper's Table 1 lists each system's fault-tolerance mechanism but
never measures it. This harness does. It runs each system's clean
reference, asks a *plan family* which perturbed runs to make against
that reference, runs them all, and pairs every perturbed run with its
reference in a cell. Every cell carries the same gate: a completed
perturbed run must return answers bit-equal to the reference's.

There are two plan families:

* :func:`recovery_cost_experiment`: faults. Each (system, fault kind,
  intensity) cell spreads its events evenly across the reference's
  execute window and reports the mean time to recover (MTTR).
* :func:`elasticity_experiment`: rescales, the elasticity question of
  Coimbra et al. (PAPERS.md). Each (system, direction, timing,
  magnitude) cell schedules one :class:`~repro.chaos.events.ScaleOut`
  or :class:`~repro.chaos.events.ScaleIn` at a superstep derived from
  the reference's iteration count, so "early" and "late" land at
  comparable progress across engines. It reports the rescale's seconds
  and its dollars against the reference.

Everything executes through :func:`repro.exec.execute_specs`, so cells
are cacheable (the chaos plan, seed included, is part of the cache key)
and fan out over ``--jobs`` workers; perturbed cells of the same
coordinates stay distinct because the harness consumes the plan-ordered
``GridExecution.results``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import (Any, Callable, Dict, Generic, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, TypeVar, Union)

import numpy as np

from ..core.runner import ExperimentSpec
from ..engines import make_engine
from ..engines.base import RunResult
from ..obs.metrics import fold_sum
from .events import EVENT_KINDS, ChaosEvent, MachineCrash, ScaleIn, ScaleOut
from .plan import ChaosPlan

__all__ = [
    "FAULT_KINDS",
    "DEFAULT_FAULTS",
    "DEFAULT_SYSTEMS",
    "DIRECTIONS",
    "ELASTIC_SYSTEMS",
    "DEFAULT_TIMINGS",
    "DEFAULT_MAGNITUDES",
    "PerturbationCell",
    "RecoveryCell",
    "ElasticCell",
    "ChaosReport",
    "run_perturbations",
    "plan_for",
    "rescale_plan",
    "run_cost_dollars",
    "recovery_cost_experiment",
    "elasticity_experiment",
]

#: every injectable fault kind, in taxonomy order
FAULT_KINDS = (
    "crash", "straggler", "netdegrade", "netsplit", "msgloss",
    "blockloss", "ckptcorrupt",
)

#: the default fault grid: one fault of each blast radius
DEFAULT_FAULTS = ("crash", "straggler", "netsplit", "blockloss")

#: the default fault lineup spans all three Table 1 mechanisms:
#: checkpoint (BV, G), re-execution (HD), none (V)
DEFAULT_SYSTEMS = ("BV", "G", "HD", "V")

#: both rescale directions, in sweep order
DIRECTIONS = ("out", "in")

#: every engine family that runs the superstep loop (the single-thread
#: baseline has no cluster to resize), spanning all three Table 1
#: mechanisms: checkpoint (BB..FG), re-execution (HD, HL), none (V)
ELASTIC_SYSTEMS = ("BB", "BV", "G", "GL-S-R-I", "HD", "HL", "S", "FG", "V")

#: when the rescale fires, as a fraction of the reference's supersteps
DEFAULT_TIMINGS = (0.3, 0.7)

#: how many machines join (scale-out) or leave (scale-in)
DEFAULT_MAGNITUDES = (4,)


def run_cost_dollars(result: RunResult) -> float:
    """The run's journal-priced dollars (0.0 when no journal exists)."""
    obs = result.observation
    if obs is None:
        return 0.0
    cost = obs.cost()
    if cost is None:
        return 0.0
    return float(cost["dollars"])


# -- cells and the report ----------------------------------------------------


@dataclass
class PerturbationCell:
    """One perturbed run next to its clean reference, and the shared gate."""

    system: str
    #: Table 1 mechanism the system recovered (or rescaled) with
    mechanism: str
    clean: RunResult
    perturbed: RunResult

    @property
    def recovery_seconds(self) -> float:
        """Total simulated seconds charged inside ``recover`` spans."""
        return float(self.perturbed.extras.get("recovery_seconds", 0.0))

    @property
    def overhead_seconds(self) -> float:
        """End-to-end slowdown vs the clean reference."""
        return self.perturbed.total_time - self.clean.total_time

    @property
    def dollars_delta(self) -> float:
        """The perturbed run's bill minus the reference's."""
        return run_cost_dollars(self.perturbed) - run_cost_dollars(self.clean)

    @property
    def answers_exact(self) -> bool:
        """The correctness gate: perturbed answers bit-equal the reference.

        Vacuously False when either run failed (TO under heavy chaos or
        OOM under scale-in is a legitimate outcome; the cell reports
        the failure code).
        """
        if self.clean.answer is None or self.perturbed.answer is None:
            return False
        return bool(np.array_equal(self.clean.answer, self.perturbed.answer))

    @property
    def completed(self) -> bool:
        """Both runs finished (no TO/OOM under the perturbation)."""
        return self.clean.ok and self.perturbed.ok

    @property
    def tolerated(self) -> bool:
        """The headline verdict: completed with bit-equal answers."""
        return self.completed and self.answers_exact

    def _text(self, seconds: float) -> str:
        """Grid cell: ``seconds (+overhead)``, or the failure code."""
        if not self.perturbed.ok:
            return str(self.perturbed.failure)
        return f"{seconds:.0f} (+{self.overhead_seconds:.0f})"


CellT = TypeVar("CellT", bound=PerturbationCell)

#: a plan family: for one clean reference, the perturbed runs to make,
#: each as its cell constructor (coordinates bound) and its plan
PlanFamily = Callable[
    [RunResult], Iterable[Tuple[Callable[..., CellT], ChaosPlan]]
]


@dataclass
class ChaosReport(Generic[CellT]):
    """A perturbation grid plus its correctness verdict."""

    workload: str
    dataset: str
    cluster_size: int
    seed: int
    cells: List[CellT] = field(default_factory=list)
    clean: Dict[str, RunResult] = field(default_factory=dict)

    @property
    def all_exact(self) -> bool:
        """True when every completed perturbed run matched its reference."""
        return all(c.answers_exact for c in self.cells if c.completed)

    def mismatches(self) -> List[CellT]:
        """Completed cells whose answers diverged (must be empty)."""
        return [c for c in self.cells if c.completed and not c.answers_exact]

    def tolerance_by_mechanism(self) -> Dict[str, Tuple[int, int]]:
        """Mechanism → (tolerated, total) cell counts."""
        counts: Dict[str, Tuple[int, int]] = {}
        for cell in self.cells:
            ok, total = counts.get(cell.mechanism, (0, 0))
            counts[cell.mechanism] = (ok + (1 if cell.tolerated else 0),
                                      total + 1)
        return counts

    def mean_by(
        self,
        key: Callable[[CellT], str],
        value: Callable[[CellT], float],
        where: Optional[Callable[[CellT], Any]] = None,
    ) -> Dict[str, float]:
        """Mean of ``value(cell)`` over completed cells, grouped by ``key``.

        ``where`` narrows the cells further. Groups keep first-seen
        order, and each sum folds left (:func:`~repro.obs.fold_sum`),
        so the means are bit-stable.
        """
        groups: Dict[str, List[float]] = {}
        for cell in self.cells:
            if cell.completed and (where is None or where(cell)):
                groups.setdefault(key(cell), []).append(value(cell))
        return {
            name: fold_sum(values) / len(values)
            for name, values in groups.items()
        }

    def dollars_by_mechanism(self) -> Dict[str, float]:
        """Mechanism → mean dollars-per-rescale over cells that rescaled."""
        return self.mean_by(attrgetter("mechanism"),
                            attrgetter("dollars_per_rescale"),
                            where=attrgetter("rescales"))


def run_perturbations(
    family: PlanFamily[CellT],
    systems: Sequence[str],
    workload: str,
    dataset: str,
    cluster_size: int,
    dataset_size: str,
    seed: int,
    jobs: Optional[int],
    cache_dir: Union[None, str, Path],
    resume: bool,
    progress,
) -> ChaosReport[CellT]:
    """Run the clean references, then every perturbed run ``family`` plans.

    The references run first because they anchor each family's plans
    (the execute window, the iteration count). All perturbed runs then
    go out in one pooled :func:`~repro.exec.execute_specs` call.
    Deterministic end to end: same seed ⇒ same plans ⇒ same results,
    byte-identical journals included.
    """
    from ..exec import execute_specs

    base = dict(
        workloads=(workload,),
        datasets=(dataset,),
        cluster_sizes=(cluster_size,),
        dataset_size=dataset_size,
    )
    exec_kwargs = dict(
        jobs=jobs, cache=cache_dir, resume=resume, progress=progress
    )

    clean_exec = execute_specs(
        [ExperimentSpec(systems=tuple(systems), **base)], **exec_kwargs
    )
    clean = {r.system: r for r in clean_exec.results}
    report: ChaosReport[CellT] = ChaosReport(
        workload=workload, dataset=dataset, cluster_size=cluster_size,
        seed=seed, clean=clean,
    )

    specs: List[ExperimentSpec] = []
    makers: List[Tuple[str, Callable[..., CellT]]] = []
    for system in systems:
        for make_cell, plan in family(clean[system]):
            specs.append(ExperimentSpec(systems=(system,), chaos=plan, **base))
            makers.append((system, make_cell))
    if specs:
        perturbed_exec = execute_specs(specs, **exec_kwargs)
        report.cells = [
            make_cell(
                system=system,
                mechanism=make_engine(system).fault_tolerance,
                clean=clean[system],
                perturbed=perturbed,
            )
            for (system, make_cell), perturbed
            in zip(makers, perturbed_exec.results)
        ]
    return report


# -- faults: the MTTR grid ---------------------------------------------------


def _check_fault_kind(kind: str) -> None:
    if kind not in FAULT_KINDS:
        raise KeyError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )


def plan_for(
    kind: str,
    intensity: int,
    window: Tuple[float, float],
    seed: int = 0,
    checkpoint_interval: int = 10,
) -> ChaosPlan:
    """``intensity`` events of ``kind`` spread evenly across ``window``.

    Event i of n fires at ``start + (end - start) * (i+1)/(n+1)`` — all
    strictly inside the window, so every scheduled fault actually hits
    a running superstep loop. Each event takes its taxonomy defaults.
    Corruption events each precede an extra crash (corruption alone
    costs nothing until something fails).
    """
    if intensity < 1:
        raise ValueError("intensity must be >= 1")
    start, end = window
    if end <= start:
        raise ValueError("window must have positive length")
    _check_fault_kind(kind)
    events: List[ChaosEvent] = []
    for i in range(intensity):
        time = start + (end - start) * (i + 1) / (intensity + 1)
        events.append(EVENT_KINDS[kind](time=time))
        if kind == "ckptcorrupt":
            # the corrupted checkpoint only costs when a crash follows
            events.append(MachineCrash(time=time + (end - start) * 0.5 / (intensity + 1)))
    return ChaosPlan(
        events=tuple(events), checkpoint_interval=checkpoint_interval, seed=seed
    )


@dataclass
class RecoveryCell(PerturbationCell):
    """One (system, fault kind, intensity) cell of the MTTR grid."""

    fault: str
    intensity: int

    @property
    def mttr(self) -> float:
        """Mean time to recover: recovery seconds per injected fault."""
        return self.recovery_seconds / self.intensity

    def cell_text(self) -> str:
        """Grid cell: ``MTTR (+overhead)`` seconds, or the failure code."""
        return self._text(self.mttr)


def recovery_cost_experiment(
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    workload: str = "pagerank",
    dataset: str = "twitter",
    cluster_size: int = 16,
    dataset_size: str = "small",
    faults: Sequence[str] = DEFAULT_FAULTS,
    intensities: Sequence[int] = (1, 2, 3),
    seed: int = 0,
    checkpoint_interval: int = 10,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path] = None,
    resume: bool = False,
    progress=None,
) -> ChaosReport[RecoveryCell]:
    """Measure every system's recovery cost across the fault grid.

    Each completed reference's execute window anchors its fault times;
    a failed reference gets no faulted cells.
    """
    for kind in faults:
        _check_fault_kind(kind)

    def family(
        reference: RunResult,
    ) -> Iterator[Tuple[Callable[..., RecoveryCell], ChaosPlan]]:
        if not reference.ok:
            return
        window = (
            reference.load_time,
            reference.load_time + reference.execute_time,
        )
        for kind in faults:
            for intensity in intensities:
                yield (
                    partial(RecoveryCell, fault=kind, intensity=intensity),
                    plan_for(kind, intensity, window, seed=seed,
                             checkpoint_interval=checkpoint_interval),
                )

    return run_perturbations(
        family, systems, workload, dataset, cluster_size, dataset_size,
        seed, jobs, cache_dir, resume, progress,
    )


# -- rescales: the elasticity grid -------------------------------------------


def rescale_plan(
    direction: str,
    magnitude: int,
    at_superstep: int,
    seed: int = 0,
    checkpoint_interval: int = 10,
) -> ChaosPlan:
    """A plan scheduling one rescale event on a superstep boundary."""
    if direction == "out":
        event: ChaosEvent = ScaleOut(n_machines=magnitude,
                                     at_superstep=at_superstep)
    elif direction == "in":
        event = ScaleIn(machines=magnitude, at_superstep=at_superstep)
    else:
        raise KeyError(
            f"unknown rescale direction {direction!r}; expected one of "
            f"{DIRECTIONS}"
        )
    return ChaosPlan(
        events=(event,), checkpoint_interval=checkpoint_interval, seed=seed
    )


@dataclass
class ElasticCell(PerturbationCell):
    """One (system, direction, timing, magnitude) cell of the rescale grid."""

    direction: str
    timing: float
    magnitude: int
    at_superstep: int

    @property
    def rescales(self) -> int:
        """Rescale events the run actually consumed."""
        return int(self.perturbed.extras.get("rescales", 0))

    @property
    def rescale_seconds(self) -> float:
        """Simulated seconds charged under the rescale's recover span."""
        return self.recovery_seconds

    @property
    def dollars_per_rescale(self) -> float:
        """The dollar delta against the reference, per rescale event."""
        return self.dollars_delta / self.rescales if self.rescales else 0.0

    def cell_text(self) -> str:
        """Grid cell: ``cost (+overhead)`` seconds, or the failure code."""
        return self._text(self.rescale_seconds)


def elasticity_experiment(
    systems: Sequence[str] = ELASTIC_SYSTEMS,
    workload: str = "pagerank",
    dataset: str = "twitter",
    cluster_size: int = 16,
    dataset_size: str = "small",
    directions: Sequence[str] = DIRECTIONS,
    timings: Sequence[float] = DEFAULT_TIMINGS,
    magnitudes: Sequence[int] = DEFAULT_MAGNITUDES,
    seed: int = 0,
    checkpoint_interval: int = 10,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path] = None,
    resume: bool = False,
    progress=None,
) -> ChaosReport[ElasticCell]:
    """Measure every system's rescale tolerance and cost across the grid.

    Each reference's iteration count anchors its rescale supersteps; a
    failed reference, or one shorter than two supersteps, gets no
    rescaled cells.
    """
    for direction in directions:
        if direction not in DIRECTIONS:
            raise KeyError(
                f"unknown rescale direction {direction!r}; expected one of "
                f"{DIRECTIONS}"
            )
    for timing in timings:
        if not 0.0 < timing < 1.0:
            raise ValueError(f"timings must be in (0, 1), got {timing!r}")
    for magnitude in magnitudes:
        if magnitude < 1:
            raise ValueError(f"magnitudes must be >= 1, got {magnitude!r}")

    def family(
        reference: RunResult,
    ) -> Iterator[Tuple[Callable[..., ElasticCell], ChaosPlan]]:
        if not reference.ok or reference.iterations < 2:
            return
        for direction in directions:
            for timing in timings:
                # land strictly inside the loop: the boundary after
                # superstep max(1, floor(iterations * timing))
                at_superstep = min(
                    reference.iterations - 1,
                    max(1, int(reference.iterations * timing)),
                )
                for magnitude in magnitudes:
                    yield (
                        partial(ElasticCell, direction=direction,
                                timing=timing, magnitude=magnitude,
                                at_superstep=at_superstep),
                        rescale_plan(direction, magnitude, at_superstep,
                                     seed=seed,
                                     checkpoint_interval=checkpoint_interval),
                    )

    return run_perturbations(
        family, systems, workload, dataset, cluster_size, dataset_size,
        seed, jobs, cache_dir, resume, progress,
    )
