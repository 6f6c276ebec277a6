"""The experiment matrix runner (§4, Table 2).

Runs system x workload x dataset x cluster-size cells and collects them
into a :class:`ResultGrid` — the in-memory form of the paper's result
figures, from which the bench harness prints each figure's rows.

Grid execution is delegated to :mod:`repro.exec`: the classic
sequential loop is the executor's ``jobs=1`` case, and the same call
scales out over a process pool with result caching and resume (see
``run_grid``'s ``jobs``/``cache_dir``/``resume`` parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..chaos.plan import ChaosPlan
from ..cluster import CLUSTER_SIZES, ClusterSpec
from ..datasets.registry import Dataset
from ..engines import make_engine, systems_for_workload, workload_for
from ..engines.base import RunResult, result_to_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.progress import CellEvent

__all__ = ["ExperimentSpec", "ResultGrid", "run_cell", "run_grid"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One slice of the experiment matrix."""

    systems: Tuple[str, ...]
    workloads: Tuple[str, ...]
    datasets: Tuple[str, ...]
    cluster_sizes: Tuple[int, ...] = CLUSTER_SIZES
    dataset_size: str = "small"
    #: fault schedule injected into every cell (None = failure-free);
    #: the plan's seed and events join the exec cache key
    chaos: Optional[ChaosPlan] = None


@dataclass
class ResultGrid:
    """All cells of one experiment, addressable like the paper's figures."""

    cells: Dict[Tuple[str, str, str, int], RunResult] = field(default_factory=dict)

    def put(self, result: RunResult) -> None:
        """Store one run."""
        key = (result.system, result.workload, result.dataset, result.cluster_size)
        self.cells[key] = result

    def get(
        self, system: str, workload: str, dataset: str, cluster_size: int
    ) -> Optional[RunResult]:
        """Fetch one cell, or None when it was not run."""
        return self.cells.get((system, workload, dataset, cluster_size))

    def cell_text(
        self, system: str, workload: str, dataset: str, cluster_size: int
    ) -> str:
        """The printable cell: seconds, a failure code, or '-'."""
        result = self.get(system, workload, dataset, cluster_size)
        return result.cell() if result is not None else "-"

    def completed(self) -> List[RunResult]:
        """All successful runs."""
        return [r for r in self.cells.values() if r.ok]

    def failures(self) -> List[RunResult]:
        """All failed runs."""
        return [r for r in self.cells.values() if not r.ok]

    def best_system(
        self, workload: str, dataset: str, cluster_size: int,
        end_to_end: bool = True,
    ) -> Optional[RunResult]:
        """The winning system for one (workload, dataset, size) column."""
        candidates = [
            r for (s, w, d, c), r in self.cells.items()
            if w == workload and d == dataset and c == cluster_size and r.ok
        ]
        if not candidates:
            return None
        metric = (lambda r: r.total_time) if end_to_end else (lambda r: r.execute_time)
        return min(candidates, key=metric)

    def same_results(self, other: "ResultGrid") -> bool:
        """True when both grids hold the same cells with the same results.

        Compares every serializable quantity (times, failures, metrics)
        plus the answer arrays exactly; observations are provenance, not
        results, so a cached or worker-produced grid compares equal to
        the sequential run that would have produced it.
        """
        import numpy as np

        if set(self.cells) != set(other.cells):
            return False
        for key, mine in self.cells.items():
            theirs = other.cells[key]
            if result_to_record(mine) != result_to_record(theirs):
                return False
            if (mine.answer is None) != (theirs.answer is None):
                return False
            if mine.answer is not None and not np.array_equal(
                mine.answer, theirs.answer
            ):
                return False
        return True

    def __len__(self) -> int:
        return len(self.cells)


def run_cell(
    system: str,
    workload_name: str,
    dataset: Dataset,
    cluster_size: int,
    chaos: Optional[ChaosPlan] = None,
) -> RunResult:
    """Run one experiment cell (optionally under a chaos plan)."""
    engine = make_engine(system)
    workload = workload_for(engine, workload_name, dataset)
    return engine.run(
        dataset, workload, ClusterSpec(cluster_size, fault_plan=chaos)
    )


def run_grid(
    spec: ExperimentSpec,
    verbose: bool = False,
    progress: Optional[Callable[["CellEvent"], None]] = None,
    jobs: int = 1,
    cache_dir: Union[None, str, Path] = None,
    resume: bool = False,
) -> ResultGrid:
    """Run the full matrix described by ``spec``.

    The default call (``jobs=1``, no cache) is the classic sequential
    loop; ``jobs=N`` fans independent cells out over ``N`` worker
    processes and ``cache_dir`` memoizes finished cells on disk (see
    :func:`repro.exec.execute_grid`, which also returns the execution
    report when you need it). Progress reporting goes through one
    callback for every mode; ``verbose=True`` installs the default
    printer.
    """
    from ..exec import execute_grid, print_progress

    if progress is None and verbose:
        progress = print_progress
    execution = execute_grid(
        spec, jobs=jobs, cache=cache_dir, resume=resume, progress=progress
    )
    return execution.grid


def paper_grid(
    workload_name: str,
    datasets: Sequence[str] = ("twitter", "uk0705", "wrn"),
    cluster_sizes: Sequence[int] = CLUSTER_SIZES,
    dataset_size: str = "small",
    **run_kwargs,
) -> ResultGrid:
    """The result grid of one of Figures 6-9: one workload, all systems.

    Extra keyword arguments (``jobs``, ``cache_dir``, ``resume``,
    ``progress``, ``verbose``) pass through to :func:`run_grid`.
    """
    spec = ExperimentSpec(
        systems=systems_for_workload(workload_name),
        workloads=(workload_name,),
        datasets=tuple(datasets),
        cluster_sizes=tuple(cluster_sizes),
        dataset_size=dataset_size,
    )
    return run_grid(spec, **run_kwargs)
