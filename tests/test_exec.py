"""repro.exec: the parallel, cached, resumable grid executor.

The two guarantees everything else leans on — a parallel execution is
bit-equivalent to the sequential loop, and a warm cache replays instead
of recomputing — plus the planner, cache keys, resume-after-kill, the
retry drill, and the rule that simulated failure cells are results and
are never retried.
"""

import dataclasses
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.runner import ExperimentSpec, ResultGrid, run_grid
from repro.datasets.registry import load_dataset, register_dataset
from repro.exec import (
    CellTask,
    ExecutorError,
    ResultCache,
    RetryPolicy,
    cell_key,
    dataset_fingerprint,
    execute_grid,
    execute_specs,
    plan_grid,
)
from repro.exec.serialize import PAYLOAD_VERSION
from repro.exec import executor as executor_module
from repro.exec.workers import FAULT_ENV, run_cell_task
from repro.obs import Journal


def tiny_spec(systems=("G", "BV"), datasets=("twitter",), sizes=(16, 32)):
    """A fast grid: tiny datasets, a couple of cheap systems."""
    return ExperimentSpec(
        systems=tuple(systems),
        workloads=("pagerank",),
        datasets=tuple(datasets),
        cluster_sizes=tuple(sizes),
        dataset_size="tiny",
    )


def journal_bytes(grid: ResultGrid) -> dict:
    """Canonical per-cell journal text, keyed by cell coordinates."""
    return {
        key: result.observation.journal().dumps()
        for key, result in grid.cells.items()
        if result.observation is not None
    }


# -- planning ----------------------------------------------------------------

def test_plan_grid_expands_in_sequential_loop_order():
    spec = tiny_spec(datasets=("twitter", "wrn"))
    tasks = plan_grid(spec)
    assert len(tasks) == 8
    assert [t.index for t in tasks] == list(range(8))
    # outermost datasets, innermost systems — the classic loop nesting
    assert [t.dataset for t in tasks[:4]] == ["twitter"] * 4
    assert [t.system for t in tasks[:2]] == ["G", "BV"]
    first = tasks[0]
    assert first.cell_id == "G:pagerank:twitter/tiny@16"
    assert first.portable


def test_adhoc_dataset_cells_are_not_portable():
    task = dataclasses.replace(plan_grid(tiny_spec())[0], dataset="nonesuch")
    assert not task.portable


# -- bit-equivalence: parallel == sequential ---------------------------------

def test_parallel_grid_matches_sequential_bit_for_bit():
    spec = tiny_spec()
    seq = execute_grid(spec, jobs=1)
    par = execute_grid(spec, jobs=2)
    assert par.report.jobs == 2
    assert par.report.executed == 4 and par.report.cache_hits == 0
    assert seq.grid.same_results(par.grid)
    # the stronger claim: per-cell journals byte-match across modes
    assert journal_bytes(seq.grid) == journal_bytes(par.grid)


def test_run_grid_wires_jobs_and_cache_through(tmp_path):
    spec = tiny_spec(sizes=(16,))
    cold = run_grid(spec, jobs=2, cache_dir=tmp_path / "cache")
    warm = run_grid(spec, jobs=2, cache_dir=tmp_path / "cache")
    assert isinstance(cold, ResultGrid) and len(cold) == 2
    assert cold.same_results(warm)
    assert journal_bytes(cold) == journal_bytes(warm)


# -- caching -----------------------------------------------------------------

def test_warm_cache_rerun_executes_zero_cells(tmp_path):
    spec = tiny_spec()
    cold = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert cold.report.executed == 4 and cold.report.cache_hits == 0
    warm = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert warm.report.executed == 0 and warm.report.cache_hits == 4
    assert warm.report.cache_hit_rate == 1.0
    assert cold.grid.same_results(warm.grid)
    assert journal_bytes(cold.grid) == journal_bytes(warm.grid)


def test_cache_corrupt_or_alien_entries_degrade_to_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" * 32
    assert cache.get(key) is None and key not in cache
    path = cache.put(key, {"version": PAYLOAD_VERSION, "record": {}})
    assert key in cache and len(cache) == 1
    assert cache.get(key) == {"version": PAYLOAD_VERSION, "record": {}}
    path.write_text("{ truncated", encoding="ascii")
    assert cache.get(key) is None
    path.write_text(json.dumps({"version": 999}), encoding="ascii")
    assert cache.get(key) is None


def payload(tag):
    return {"version": PAYLOAD_VERSION, "record": {"tag": tag}}


def test_cache_budget_evicts_least_recently_used(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path / "cache", max_cells=0)
    cache = ResultCache(tmp_path / "cache", max_cells=2)
    keys = [c * 64 for c in "abc"]
    cache.put(keys[0], payload(0))
    cache.put(keys[1], payload(1))
    assert cache.evictions == 0 and len(cache) == 2
    # touching "a" makes "b" the LRU victim of the third put
    assert cache.get(keys[0]) == payload(0)
    cache.put(keys[2], payload(2))
    assert cache.evictions == 1 and len(cache) == 2
    assert cache.get(keys[1]) is None  # evicted from disk, not just memory
    assert not cache.path_for(keys[1]).exists()
    assert cache.get(keys[0]) == payload(0)
    assert cache.get(keys[2]) == payload(2)


def test_cache_budget_adopts_preexisting_entries(tmp_path):
    unbounded = ResultCache(tmp_path / "cache")
    keys = [c * 64 for c in "ab"]
    for index, key in enumerate(keys):
        unbounded.put(key, payload(index))
    # a bounded reopen inherits the entries; the next put evicts the
    # deterministic oldest (key order: no access order survives restart)
    bounded = ResultCache(tmp_path / "cache", max_cells=2)
    assert len(bounded) == 2
    bounded.put("c" * 64, payload(2))
    assert bounded.evictions == 1
    assert bounded.get(keys[0]) is None
    assert bounded.get(keys[1]) == payload(1)


class UncountableCache(ResultCache):
    """A cache that refuses to be sized and counts its lookups."""

    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.gets = 0

    def __len__(self):
        raise AssertionError("the scheduler must not size the cache")

    def get(self, key):
        self.gets += 1
        return super().get(key)


def test_scheduler_looks_up_every_cell_without_sizing_the_cache(tmp_path):
    # an empty cache is still a cache: every cell is looked up, and no
    # cell triggers a scan of the whole cache directory
    specs = [tiny_spec()]
    cache = UncountableCache(tmp_path / "cache")
    cold = execute_specs(specs, jobs=1, cache=cache)
    assert cold.report.executed == 4 and cold.report.cache_hits == 0
    assert cache.gets == 4
    warm = execute_specs(specs, jobs=1, cache=cache)
    assert warm.report.executed == 0 and warm.report.cache_hits == 4
    assert cache.gets == 8
    assert warm.grid.same_results(cold.grid)


def test_cell_keys_invalidate_on_code_dataset_or_coordinates():
    task = plan_grid(tiny_spec(sizes=(16,)))[0]
    twitter = load_dataset("twitter", "tiny")
    assert cell_key(task, twitter) == cell_key(task, twitter)
    # a new simulation-code version busts the key
    assert cell_key(task, twitter) != cell_key(task, twitter, code_version="v2")
    # so does any change in cell coordinates
    moved = dataclasses.replace(task, cluster_size=32)
    assert cell_key(task, twitter) != cell_key(moved, twitter)
    # and dataset *content*: other graph bytes → other fingerprint
    assert dataset_fingerprint(twitter) != dataset_fingerprint(
        load_dataset("wrn", "tiny")
    )
    assert dataset_fingerprint(twitter) != dataset_fingerprint(
        load_dataset("twitter", "small")
    )


# -- resume ------------------------------------------------------------------

def test_resume_after_mid_grid_kill_runs_only_missing_cells(tmp_path):
    spec = tiny_spec()
    cache_dir = tmp_path / "cache"

    def die_after_two(event):
        if event.done == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        execute_grid(spec, jobs=1, cache=cache_dir, progress=die_after_two)
    assert len(ResultCache(cache_dir)) == 2

    resumed = execute_grid(spec, jobs=1, cache=cache_dir, resume=True)
    assert resumed.report.resumed
    assert resumed.report.cache_hits == 2 and resumed.report.executed == 2
    assert len(resumed.grid) == 4
    assert resumed.grid.same_results(execute_grid(spec, jobs=1).grid)


def test_resume_demands_an_existing_cache(tmp_path):
    spec = tiny_spec(sizes=(16,))
    with pytest.raises(ExecutorError, match="requires a result cache"):
        execute_grid(spec, resume=True)
    with pytest.raises(ExecutorError, match="nothing to resume"):
        execute_grid(spec, resume=True, cache=tmp_path / "never-created")


# -- retry -------------------------------------------------------------------

def test_retry_policy_backs_off_exponentially():
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0)
    assert [policy.delay(n) for n in (1, 2, 3)] == [0.1, 0.2, 0.4]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


def test_worker_crashes_are_retried_inline(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "G:2")
    execution = execute_grid(
        tiny_spec(systems=("G",), sizes=(16,)),
        jobs=1,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0),
    )
    assert execution.report.retries == 2
    assert execution.report.executed == 1
    assert all(r.ok for r in execution.grid.cells.values())


def test_worker_crashes_are_retried_in_the_pool(monkeypatch):
    spec = tiny_spec(sizes=(16,))
    clean = execute_grid(spec, jobs=1)
    monkeypatch.setenv(FAULT_ENV, "G:1")
    execution = execute_grid(
        spec, jobs=2, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    assert execution.report.retries == 1
    # the re-attempt reproduces the run the crash interrupted, exactly
    assert execution.grid.same_results(clean.grid)
    assert journal_bytes(execution.grid) == journal_bytes(clean.grid)


def _die_on_first_giraph_attempt(task):
    """A worker that exits without a word on G@16's first attempt."""
    if (task["system"], task["cluster_size"], task["attempt"]) == ("G", 16, 1):
        os._exit(3)
    return run_cell_task(task)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker entry point reaches the "
                           "workers only through fork")
def test_a_dead_worker_rebuilds_the_pool_and_requeues(monkeypatch):
    spec = tiny_spec(sizes=(16, 32))
    clean = execute_grid(spec, jobs=1)
    monkeypatch.setattr(executor_module, "run_cell_task",
                        _die_on_first_giraph_attempt)
    backoffs = []
    monkeypatch.setattr(executor_module, "host_sleep", backoffs.append)
    execution = execute_grid(
        spec, jobs=2, retry=RetryPolicy(max_attempts=3, base_delay=0.25)
    )
    # the dead cell, plus whatever was in flight with it, went around
    # again, each counted as a retry, after one backoff for the one death
    assert execution.report.retries >= 1
    assert backoffs == [0.25]
    assert execution.report.executed == 4
    assert execution.grid.same_results(clean.grid)
    assert journal_bytes(execution.grid) == journal_bytes(clean.grid)


def test_a_pool_that_breaks_during_submission_is_rebuilt(monkeypatch):
    # A worker that dies at once can break the pool while the scheduler
    # is still submitting: ProcessPoolExecutor.submit then raises
    # BrokenProcessPool itself. The first pool here does that on its
    # second submit.
    spec = tiny_spec(sizes=(16, 32))
    clean = execute_grid(spec, jobs=1)
    pools = []

    class BreaksOnSecondSubmit(ProcessPoolExecutor):
        submitted = 0

        def submit(self, fn, /, *args, **kwargs):
            self.submitted += 1
            if self is pools[0] and self.submitted == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return super().submit(fn, *args, **kwargs)

    def make_pool(max_workers):
        pools.append(BreaksOnSecondSubmit(max_workers=max_workers))
        return pools[-1]

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", make_pool)
    backoffs = []
    monkeypatch.setattr(executor_module, "host_sleep", backoffs.append)
    execution = execute_grid(
        spec, jobs=2, retry=RetryPolicy(max_attempts=3, base_delay=0.25)
    )
    assert len(pools) == 2 and backoffs == [0.25]
    assert execution.report.executed == 4
    assert execution.grid.same_results(clean.grid)
    assert journal_bytes(execution.grid) == journal_bytes(clean.grid)


def test_retry_exhaustion_raises_with_the_cell_address(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "G:5")
    with pytest.raises(
        ExecutorError, match=r"G:pagerank:twitter/tiny@16 failed after 2"
    ):
        execute_grid(
            tiny_spec(systems=("G",), sizes=(16,)),
            jobs=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )


# -- simulated failures are results ------------------------------------------

def test_failure_cells_are_cached_results_never_retried(tmp_path):
    # Blogel-B cannot run PageRank on the road network at 16 (MPI, §5.2)
    spec = tiny_spec(systems=("BB",), datasets=("wrn",), sizes=(16,))
    first = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    (result,) = first.grid.cells.values()
    assert not result.ok and result.cell() == "MPI"
    assert first.report.retries == 0 and first.report.executed == 1
    second = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert second.report.cache_hits == 1 and second.report.executed == 0
    (replayed,) = second.grid.cells.values()
    assert not replayed.ok and replayed.cell() == "MPI"


# -- non-portable datasets run inline ----------------------------------------

def test_adhoc_registered_datasets_still_run_under_jobs_n():
    adhoc = dataclasses.replace(
        load_dataset("twitter", "tiny"), name="exec-adhoc"
    )
    register_dataset(adhoc)
    spec = tiny_spec(datasets=("exec-adhoc",), sizes=(16,))
    assert not any(t.portable for t in plan_grid(spec))
    execution = execute_grid(spec, jobs=2)  # falls back to inline cells
    assert execution.report.executed == 2
    assert all(r.ok for r in execution.grid.cells.values())


# -- the scheduler observes itself -------------------------------------------

def test_scheduler_journal_records_spans_and_counters(tmp_path):
    spec = tiny_spec(sizes=(16,))
    execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    execution = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert execution.observation.meta["kind"] == "scheduler"
    text = execution.scheduler_journal().dumps()
    assert '"grid"' in text and '"plan"' in text and '"cell"' in text
    assert "exec.cache_hits" in text
    assert execution.report.summary() == (
        "exec: 2 cells · 2 cached · 0 executed · 0 retries · jobs=1 · "
        f"{execution.report.host_seconds:.2f}s host"
    )


def test_journal_text_roundtrips_canonically():
    execution = execute_grid(tiny_spec(systems=("G",), sizes=(16,)), jobs=1)
    (result,) = execution.grid.cells.values()
    text = result.observation.journal().dumps()
    assert Journal.loads(text).dumps() == text
