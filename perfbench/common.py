"""Helpers shared by the benchmark runner and the processes it launches.

Everything here is the benchmark's own code: the pinned environment
every program process starts under, the workload definitions (which
cells, which jobs count), the output digests checked against
``manifest.json``, and the small statistics the runner reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: the benchmark's own directory and the checkout it sits in
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = BENCH_DIR / "manifest.json"

#: scratch space inside the checkout (byte-code cache, per-run caches,
#: sockets, span dumps); listed in the root .gitignore
WORK = ROOT / ".perfbench"

DATASETS = ("twitter", "uk0705", "wrn")

#: (system, workload, dataset, dataset size, machines)
Cell = Tuple[str, str, str, str, int]


def cell_id(cell: Cell) -> str:
    """The executor's cell address (``CellTask.cell_id``) for a cell."""
    system, workload, dataset, size, machines = cell
    return f"{system}:{workload}:{dataset}/{size}@{machines}"


def host_cpus() -> int:
    """CPUs this process may run on (the affinity mask, not the machine)."""
    return len(os.sched_getaffinity(0))


# -- workloads ---------------------------------------------------------------

def grid_cells(workload: str) -> List[Cell]:
    """Every cell of a grid workload, in the executor's plan order."""
    from repro.engines import GRID_SYSTEMS, WORKLOAD_NAMES, systems_for_workload

    if workload == "pagerank-small":
        return [
            (system, "pagerank", dataset, "small", machines)
            for dataset in DATASETS
            for machines in (16, 64)
            for system in systems_for_workload("pagerank")
        ]
    if workload == "figures-tiny":
        return [
            (system, name, dataset, "tiny", machines)
            for dataset in DATASETS
            for name in WORKLOAD_NAMES
            for machines in (16, 32, 64, 128)
            for system in systems_for_workload(name)
        ]
    if workload == "serve-catalog":
        return [
            (system, name, dataset, "tiny", machines)
            for system in GRID_SYSTEMS
            for name in WORKLOAD_NAMES
            for dataset in DATASETS
            for machines in (16, 32, 64, 128)
        ]
    raise KeyError(workload)


def seeded_order(cells: Sequence[Cell], seed: int) -> List[Cell]:
    """The cells in the seed's order (the only thing a grid seed changes)."""
    order = list(cells)
    random.Random(f"perfbench-grid:{seed}").shuffle(order)
    return order


# -- output digests ----------------------------------------------------------

def payload_digest(payload: dict) -> str:
    """SHA-256 over a cell payload's answer array and canonical journal."""
    digest = hashlib.sha256()
    digest.update(json.dumps(payload.get("answer"), sort_keys=True,
                             separators=(",", ":")).encode("ascii"))
    digest.update(b"\0")
    digest.update((payload.get("journal") or "").encode("ascii"))
    return digest.hexdigest()


def load_manifest() -> Dict[str, str]:
    """cell id -> digest, for every cell any workload delivers."""
    with open(MANIFEST, encoding="ascii") as fh:
        return json.load(fh)["cells"]


def count_failures(delivered: Dict[str, str],
                   manifest: Dict[str, str]) -> List[str]:
    """Cell ids whose delivered digest differs from the manifest's."""
    return sorted(cid for cid, digest in delivered.items()
                  if manifest.get(cid) != digest)


# -- the pinned program environment ------------------------------------------

def program_env() -> Dict[str, str]:
    """The environment every program process starts under.

    Hash seed and BLAS/OpenMP threads are pinned. Byte-code goes to a
    prefix inside the checkout (the ambient PYTHONDONTWRITEBYTECODE is
    dropped), and every run starts one discarded warm-up process first,
    so each commit measured pays warm byte-code, never compilation.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONUNBUFFERED="1",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def _steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_snapshot() -> dict:
    """Load average, steal ticks and a fixed pure-Python loop's time."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return {
        "loadavg": os.getloadavg(),
        "steal_ticks": _steal_ticks(),
        "loop_s": time.perf_counter() - start,
    }


def environment_record(jobs: int) -> dict:
    """What the run depends on, printed before the result line."""
    import numpy

    return {
        "host_cpus": host_cpus(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- process memory ----------------------------------------------------------

def peak_rss_kb(pid: int) -> int:
    """A live process's high-water resident set (VmHWM), in KiB; 0 once gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (pool workers, helpers)."""
    found: List[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children",
                      encoding="ascii") as fh:
                kids = [int(k) for k in fh.read().split()]
        except (OSError, ValueError):
            kids = []
        found.extend(kids)
        todo.extend(kids)
    return found


class TreePeak:
    """Per-process peak RSS of a process tree, sampled from /proc.

    VmHWM only grows, so the last sample of each process before it
    exits is (up to one sampling interval) its peak; the tree's figure
    is the sum of those per-process peaks.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.peaks: Dict[int, int] = {}

    def sample(self) -> None:
        for pid in [self.root] + descendants(self.root):
            kb = peak_rss_kb(pid)
            if kb:
                self.peaks[pid] = max(self.peaks.get(pid, 0), kb)


# -- statistics ---------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in percent); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])
