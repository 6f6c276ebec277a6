"""repro.exec: the parallel, cached, resumable experiment executor.

The paper's results are one big matrix of independent cells (8 systems
× 4 workloads × 4 datasets × 4 cluster sizes, §4); this package is the
driver that runs such matrices the way the paper's EC2 harness had to:

* :mod:`~repro.exec.plan` expands a spec into independent cell tasks,
* :mod:`~repro.exec.executor` fans them out over a process pool
  (``jobs=1`` is the classic sequential loop, bit-for-bit),
* :mod:`~repro.exec.cache` memoizes finished cells on disk, keyed by
  content (dataset bytes + simulation-code digest), which is also what
  makes interrupted grids resumable,
* :mod:`~repro.exec.retry` bounds re-attempts of crashed workers —
  simulated failure cells (TO/OOM/MPI/SHFL) are results, never retried,
* :mod:`~repro.exec.progress` is the one progress path the CLI, the
  runner, and the tests share.

This package and :mod:`repro.serve` are the repo's concurrency doors:
RPL009 bans ``threading`` / ``multiprocessing`` / ``concurrent.futures``
everywhere else in the source tree, mirroring RPL001's one-wall-clock-
door rule, and bans lock primitives inside the doors too.
"""

from .cache import ResultCache, cell_key, code_fingerprint, dataset_fingerprint
from .executor import ExecutionReport, GridExecution, execute_grid, execute_specs
from .plan import CellTask, plan_grid, plan_grids
from .progress import CellEvent, ProgressFn, print_progress
from .retry import ExecutorError, RetryPolicy
from .serialize import payload_to_result, result_to_payload

__all__ = [
    "CellTask",
    "plan_grid",
    "plan_grids",
    "ResultCache",
    "cell_key",
    "code_fingerprint",
    "dataset_fingerprint",
    "ExecutionReport",
    "GridExecution",
    "execute_grid",
    "execute_specs",
    "CellEvent",
    "ProgressFn",
    "print_progress",
    "ExecutorError",
    "RetryPolicy",
    "payload_to_result",
    "result_to_payload",
]
