"""Every benchmark cell still yields the answer and journal it recorded.

``perfbench/manifest.json`` holds, for each of the benchmark's grid
cells, the SHA-256 of the cell's answer JSON, a NUL byte, then its
canonical journal text. A host-speed change must leave simulated
outputs byte-identical, so this re-runs every cell and compares:

* in-process at ``jobs=1``;
* in new interpreters under two fixed hash seeds, so that a set or
  dict whose order follows string hashes cannot reach an answer or a
  journal unnoticed;
* one dataset's cells through a two-worker pool, where per-worker memos
  (datasets, partitions) are held, started by ``fork`` and by
  ``spawn``. A spawned worker starts from a fresh import, so state the
  scheduler sets up before it starts the pool never reaches it.

The mutation tests seed such a leak into a copy of src/repro and run
the same comparison against the copy.
"""

import hashlib
import json
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, List


from repro.core.runner import ExperimentSpec
from repro.exec import execute_specs
from repro.exec.serialize import result_to_payload

MANIFEST = Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json"
CELL_ID = re.compile(r"(?P<system>[^:]+):(?P<workload>[^:]+):"
                     r"(?P<dataset>[^/]+)/(?P<size>[^@]+)@(?P<machines>\d+)")


def payload_digest(payload: dict) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(payload.get("answer"), sort_keys=True,
                             separators=(",", ":")).encode("ascii"))
    digest.update(b"\0")
    digest.update((payload.get("journal") or "").encode("ascii"))
    return digest.hexdigest()


#: two fixed hash seeds: string hashes, and so the order of a set of
#: strings, differ between them
HASH_SEEDS = ("0", "1")
#: one dataset's cells, the ones the pool tests run
WRN_TINY = ":wrn/tiny@"


def digests(cell_ids, jobs):
    """cell id -> digest of what the executor delivers at ``jobs``."""
    cells = [CELL_ID.fullmatch(cid) for cid in cell_ids]
    specs = [ExperimentSpec(systems=(c["system"],), workloads=(c["workload"],),
                            datasets=(c["dataset"],),
                            cluster_sizes=(int(c["machines"]),),
                            dataset_size=c["size"])
             for c in cells]
    execution = execute_specs(specs, jobs=jobs, cache=None)
    assert len(execution.results) == len(cell_ids)
    return {cid: payload_digest(result_to_payload(result))
            for cid, result in zip(cell_ids, execution.results)}


def wrong_cells(where: str = "", jobs: int = 1) -> List[str]:
    """Manifest cells whose id contains ``where`` that a run at ``jobs``
    no longer delivers as recorded."""
    with open(MANIFEST, encoding="ascii") as fh:
        recorded = json.load(fh)["cells"]
    cell_ids = sorted(cid for cid in recorded if where in cid)
    assert cell_ids
    delivered = digests(cell_ids, jobs)
    return [cid for cid in cell_ids if delivered[cid] != recorded[cid]]


def wrong_cells_in(fresh_python, where="", jobs=1, src=None, env=None,
                   start_method=None):
    """Run :func:`wrong_cells` in a new interpreter, whose pool starts
    its workers by ``start_method`` (default: the platform's)."""
    code = "import json, multiprocessing\n"
    if start_method:
        code += f"multiprocessing.set_start_method({start_method!r})\n"
    code += ("from tests.test_golden_manifest import wrong_cells\n"
             f"print(json.dumps(wrong_cells({where!r}, jobs={jobs})))")
    return fresh_python(code, src=src, env=env)


def at_once(run: Callable, args) -> list:
    """``run(arg)`` for every arg, all at once; the results in order."""
    with ThreadPoolExecutor(len(args)) as pool:
        return list(pool.map(run, args))


def test_every_manifest_cell_matches_at_jobs_1():
    assert wrong_cells(jobs=1) == []


def test_pool_workers_deliver_the_recorded_cells():
    assert wrong_cells(WRN_TINY, jobs=2) == []


def test_every_manifest_cell_matches_under_two_fixed_hash_seeds(
        fresh_python):
    for proc in at_once(lambda seed: wrong_cells_in(
            fresh_python, env={"PYTHONHASHSEED": seed}), HASH_SEEDS):
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


def test_spawned_pool_workers_deliver_the_recorded_cells(fresh_python):
    proc = wrong_cells_in(fresh_python, WRN_TINY, jobs=2,
                          start_method="spawn")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_metric_names_in_hash_order_fail_under_the_seeds(fresh_python,
                                                         mutated_src):
    # the journal's metric names in set order instead of sorted order
    src = mutated_src(
        "obs/metrics.py",
        "        return sorted(\n"
        "            name for name, m in self._metrics.items()\n"
        "            if not isinstance(m, Histogram)\n"
        "        )\n",
        "        return list({\n"
        "            name for name, m in self._metrics.items()\n"
        "            if not isinstance(m, Histogram)\n"
        "        })\n")
    for proc in at_once(lambda seed: wrong_cells_in(
            fresh_python, WRN_TINY, src=src,
            env={"PYTHONHASHSEED": seed}), HASH_SEEDS):
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)  # wrong under each seed


def test_a_memo_the_scheduler_primes_fails_under_spawn(fresh_python,
                                                       mutated_src):
    # the scheduler loads each dataset before it starts the pool, and
    # workers read them from a module dict: forked workers inherit it,
    # spawned ones import an empty one
    mutated_src("exec/workers.py",
                'FAULT_ENV = "_REPRO_EXEC_FAULT"\n',
                'FAULT_ENV = "_REPRO_EXEC_FAULT"\n_PRIMED = {}\n')
    mutated_src("exec/workers.py",
                '    dataset = load_dataset(task["dataset"], task["size"])\n',
                '    dataset = _PRIMED[(task["dataset"], task["size"])]\n')
    src = mutated_src(
        "exec/executor.py",
        "        pool = new_pool()\n",
        "        from ..datasets import load_dataset\n"
        "        from .workers import _PRIMED\n"
        "        for task, _ in misses:\n"
        "            _PRIMED[(task.dataset, task.size)] = load_dataset(\n"
        "                task.dataset, task.size)\n"
        "        pool = new_pool()\n")
    cells = "BV:pagerank:wrn/tiny@"  # few cells: few batches to retry
    forked, spawned = at_once(lambda method: wrong_cells_in(
        fresh_python, cells, jobs=2, src=src, start_method=method),
        ("fork", "spawn"))
    assert forked.returncode == 0, forked.stderr
    assert json.loads(forked.stdout) == []
    assert spawned.returncode != 0
    assert "KeyError: ('wrn', 'tiny')" in spawned.stderr
