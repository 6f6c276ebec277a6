"""The rescale-tolerance grid: who survives elasticity, and at what price.

For each (system, direction, timing, magnitude) cell the experiment
runs a quiet reference plus a run whose plan schedules one
:class:`~repro.chaos.events.ScaleOut` or
:class:`~repro.chaos.events.ScaleIn` at a superstep derived from the
reference's iteration count — so "early" and "late" rescales land at
comparable progress points across engines whose runs differ in length.
Each cell reports:

* **tolerance** — the run completed and its answers are bit-equal to
  the reference's (the same correctness gate the chaos experiment
  uses); a scale-in past memory capacity legitimately OOMs instead;
* **rescale cost** — the simulated seconds charged under the rescale's
  ``recover`` span (priced into the journal's cost record), and the
  end-to-end dollar delta against the reference: dollars-per-rescale.

Everything executes through :func:`repro.exec.execute_specs`: cells are
cacheable (the plan, seed included, is part of the cache key), fan out
over ``--jobs``, and stay byte-deterministic across execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..chaos.events import ScaleIn, ScaleOut
from ..chaos.plan import ChaosPlan
from ..core.runner import ExperimentSpec
from ..engines import make_engine
from ..engines.base import RunResult
from ..obs.metrics import fold_sum

__all__ = [
    "DIRECTIONS",
    "DEFAULT_SYSTEMS",
    "DEFAULT_TIMINGS",
    "DEFAULT_MAGNITUDES",
    "ElasticCell",
    "ElasticReport",
    "rescale_plan",
    "run_cost_dollars",
    "elasticity_experiment",
]

#: both rescale directions, in sweep order
DIRECTIONS = ("out", "in")

#: every engine family that runs the superstep loop (the single-thread
#: baseline has no cluster to resize), spanning all three Table 1
#: mechanisms: checkpoint (BB..FG), re-execution (HD, HL), none (V)
DEFAULT_SYSTEMS = ("BB", "BV", "G", "GL-S-R-I", "HD", "HL", "S", "FG", "V")

#: when the rescale fires, as a fraction of the reference's supersteps
DEFAULT_TIMINGS = (0.3, 0.7)

#: how many machines join (scale-out) or leave (scale-in)
DEFAULT_MAGNITUDES = (4,)


def rescale_plan(
    direction: str,
    magnitude: int,
    at_superstep: int,
    seed: int = 0,
    checkpoint_interval: int = 10,
) -> ChaosPlan:
    """A plan scheduling one rescale event on a superstep boundary."""
    if direction == "out":
        event = ScaleOut(n_machines=magnitude, at_superstep=at_superstep)
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


def run_cost_dollars(result: RunResult) -> float:
    """The run's journal-priced dollars (0.0 when no journal exists)."""
    obs = result.observation
    if obs is None:
        return 0.0
    cost = obs.cost()
    if cost is None:
        return 0.0
    return float(cost["dollars"])


@dataclass
class ElasticCell:
    """One (system, direction, timing, magnitude) cell of the grid."""

    system: str
    direction: str
    timing: float
    magnitude: int
    at_superstep: int
    clean: RunResult
    rescaled: RunResult
    #: Table 1 mechanism that priced the rescale
    mechanism: str

    @property
    def rescale_seconds(self) -> float:
        """Simulated seconds charged under the rescale's recover span."""
        return float(self.rescaled.extras.get("recovery_seconds", 0.0))

    @property
    def rescales(self) -> int:
        """Rescale events the run actually consumed."""
        return int(self.rescaled.extras.get("rescales", 0))

    @property
    def overhead_seconds(self) -> float:
        """End-to-end slowdown vs the quiet reference."""
        return self.rescaled.total_time - self.clean.total_time

    @property
    def dollars_per_rescale(self) -> float:
        """The dollar delta against the reference, per rescale event."""
        delta = run_cost_dollars(self.rescaled) - run_cost_dollars(self.clean)
        return delta / self.rescales if self.rescales else 0.0

    @property
    def answers_exact(self) -> bool:
        """The correctness gate: rescaled answers bit-equal the reference.

        Vacuously False when either run failed — an OOM under scale-in
        is a legitimate outcome and shows as the failure code instead.
        """
        if self.clean.answer is None or self.rescaled.answer is None:
            return False
        return bool(np.array_equal(self.clean.answer, self.rescaled.answer))

    @property
    def completed(self) -> bool:
        """Both runs finished (no OOM/TO under the rescale)."""
        return self.clean.ok and self.rescaled.ok

    @property
    def tolerated(self) -> bool:
        """The headline verdict: completed with bit-equal answers."""
        return self.completed and self.answers_exact

    def cell_text(self) -> str:
        """Grid cell: ``cost (+overhead)`` seconds, or the failure code."""
        if not self.rescaled.ok:
            return str(self.rescaled.failure)
        return f"{self.rescale_seconds:.0f} (+{self.overhead_seconds:.0f})"


@dataclass
class ElasticReport:
    """The full rescale-tolerance grid plus its correctness verdict."""

    workload: str
    dataset: str
    cluster_size: int
    seed: int
    cells: List[ElasticCell] = field(default_factory=list)
    clean: Dict[str, RunResult] = field(default_factory=dict)

    @property
    def all_exact(self) -> bool:
        """True when every completed rescaled run matched its reference."""
        return all(c.answers_exact for c in self.cells if c.completed)

    def mismatches(self) -> List[ElasticCell]:
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

    def dollars_by_mechanism(self) -> Dict[str, float]:
        """Mechanism → mean dollars-per-rescale over completed cells."""
        sums: Dict[str, List[float]] = {}
        for cell in self.cells:
            if cell.completed and cell.rescales:
                sums.setdefault(cell.mechanism, []).append(
                    cell.dollars_per_rescale
                )
        return {
            mechanism: fold_sum(values) / len(values)
            for mechanism, values in sums.items()
        }


def elasticity_experiment(
    systems: Sequence[str] = DEFAULT_SYSTEMS,
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
) -> ElasticReport:
    """Measure every system's rescale tolerance and cost across the grid.

    Runs the quiet references first (their iteration counts anchor the
    rescale supersteps), then the whole rescaled matrix in one pooled
    :func:`~repro.exec.execute_specs` call. Deterministic end to end:
    same seed ⇒ same plans ⇒ same results, byte-identical journals
    included.
    """
    from ..exec import execute_specs

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

    specs: List[ExperimentSpec] = []
    coords: List[Tuple[str, str, float, int, int]] = []
    for system in systems:
        reference = clean[system]
        if not reference.ok or reference.iterations < 2:
            continue
        for direction in directions:
            for timing in timings:
                # land strictly inside the loop: the boundary after
                # superstep max(1, floor(iterations * timing))
                at_superstep = min(
                    reference.iterations - 1,
                    max(1, int(reference.iterations * timing)),
                )
                for magnitude in magnitudes:
                    specs.append(ExperimentSpec(
                        systems=(system,),
                        chaos=rescale_plan(
                            direction, magnitude, at_superstep,
                            seed=seed,
                            checkpoint_interval=checkpoint_interval,
                        ),
                        **base,
                    ))
                    coords.append(
                        (system, direction, timing, magnitude, at_superstep)
                    )

    rescaled_exec = execute_specs(specs, **exec_kwargs) if specs else None

    report = ElasticReport(
        workload=workload, dataset=dataset, cluster_size=cluster_size,
        seed=seed, clean=clean,
    )
    if rescaled_exec is not None:
        for (system, direction, timing, magnitude, at_superstep), rescaled \
                in zip(coords, rescaled_exec.results):
            report.cells.append(ElasticCell(
                system=system,
                direction=direction,
                timing=timing,
                magnitude=magnitude,
                at_superstep=at_superstep,
                clean=clean[system],
                rescaled=rescaled,
                mechanism=make_engine(system).fault_tolerance,
            ))
    return report
