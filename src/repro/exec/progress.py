"""One progress path for every way a grid runs.

The sequential runner used to print progress lines from inside its
loop; the CLI, the executor, and the tests now share this module
instead: execution emits one :class:`CellEvent` per finished cell (in
completion order — plan order when ``jobs=1``) into whatever callback
the caller passed, and :func:`print_progress` is the default printer
that reproduces the classic ``run_grid(verbose=True)`` line, extended
with the cell's provenance (cache hit, retry count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .plan import CellTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..engines.base import RunResult

__all__ = ["CellEvent", "ProgressFn", "print_progress"]

#: where a finished cell came from
SOURCE_RUN = "run"        # executed by a worker process
SOURCE_INLINE = "inline"  # executed in the scheduler process (jobs=1 path)
SOURCE_CACHE = "cache"    # replayed from the result cache


@dataclass(frozen=True)
class CellEvent:
    """One finished cell, as reported to the progress callback.

    ``payload`` is the cell's wire form (:mod:`repro.exec.serialize`),
    as the worker returned it or the cache held it; ``result`` was
    decoded from it.
    """

    task: CellTask
    result: "RunResult"
    payload: dict
    source: str      # SOURCE_RUN | SOURCE_INLINE | SOURCE_CACHE
    attempts: int    # 1 unless the retry policy re-ran the cell
    done: int        # cells finished so far, this one included
    total: int       # cells in the plan


ProgressFn = Callable[[CellEvent], None]


def print_progress(event: CellEvent) -> None:
    """The default reporter: the classic verbose grid line, annotated."""
    result = event.result
    notes = ""
    if event.source == SOURCE_CACHE:
        notes = " (cached)"
    elif event.attempts > 1:
        notes = f" (attempt {event.attempts})"
    print(
        f"{result.system:>9s} {result.workload:>8s} {result.dataset:>8s} "
        f"@{result.cluster_size:<3d} -> {result.cell()}{notes}"
    )
