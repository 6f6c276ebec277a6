"""Run logs: JSONL persistence of experiment results.

The paper's experiments produced "more than 20 GB of log files that
were used for analysis" (§1). Here every :class:`RunResult` serializes
to one JSON line (the record :func:`repro.engines.base.result_to_record`
defines); grids can be written, re-read, and re-analysed without
re-running the simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from ..core.runner import ResultGrid
from ..engines.base import RunResult, result_to_record
from ..obs.report import read_runs_log

__all__ = ["write_log", "read_log"]


def write_log(results: Iterable[RunResult], path: Union[str, Path]) -> int:
    """Append results to a JSONL log file; returns lines written."""
    count = 0
    with open(path, "a", encoding="ascii") as fh:
        for result in results:
            fh.write(json.dumps(result_to_record(result)) + "\n")
            count += 1
    return count


def read_log(path: Union[str, Path]) -> ResultGrid:
    """Load a JSONL log back into a :class:`ResultGrid`.

    A line that is not a run record raises
    :class:`~repro.obs.report.ReportError` naming the line.
    """
    grid = ResultGrid()
    for result in read_runs_log(path):
        grid.put(result)
    return grid
