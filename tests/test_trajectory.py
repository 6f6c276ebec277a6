"""The per-process superstep trajectory memo behind every BSP loop.

Every engine replays the same workload supersteps and differs only in
what it charges for them, so the first run of a workload configuration
on a graph computes the supersteps and later runs replay them. These
tests pin what that must never change: a replayed run's answer and
journal equal a fresh process's, a run that stops early leaves a prefix
the next run extends, callers cannot corrupt the memo through what they
get back, and a superstep that raises takes its trajectory with it.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import run_cell
from repro.datasets.registry import load_dataset
from repro.engines import common
from repro.engines.common import superstep_trajectory
from repro.exec.serialize import result_to_payload
from repro.workloads.base import Workload
from repro.workloads.pagerank import PageRank

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "manifest.json"


def digest(result) -> str:
    """SHA-256 of the answer JSON, a NUL byte, then the journal text."""
    payload = result_to_payload(result)
    sha = hashlib.sha256()
    sha.update(json.dumps(payload.get("answer"), sort_keys=True,
                          separators=(",", ":")).encode("ascii"))
    sha.update(b"\0")
    sha.update((payload.get("journal") or "").encode("ascii"))
    return sha.hexdigest()


@pytest.fixture
def empty_memo():
    """Start and end each test with no recorded trajectories."""
    common._TRAJECTORIES.clear()
    yield common._TRAJECTORIES
    common._TRAJECTORIES.clear()


@pytest.fixture
def superstep_calls(monkeypatch):
    """Record every computed superstep (outermost calls only)."""
    calls, depth = [], [0]
    for cls in _workload_classes():
        raw = vars(cls).get("superstep")
        if raw is None:
            continue

        def counted(self, graph, state, _raw=raw):
            depth[0] += 1
            try:
                if depth[0] == 1:
                    calls.append(type(self).__name__)
                return _raw(self, graph, state)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "superstep", counted)
    return calls


def _workload_classes():
    classes, todo = [], [Workload]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.append(sub)
            todo.append(sub)
    return classes


def fresh_process_digest(system, workload, dataset, size, machines) -> str:
    """The cell's digest computed by a new interpreter (empty memos)."""
    code = (
        "import sys; sys.path.insert(0, 'tests');"
        "from test_trajectory import digest;"
        "from repro.core.runner import run_cell;"
        "from repro.datasets.registry import load_dataset;"
        f"print(digest(run_cell({system!r}, {workload!r}, "
        f"load_dataset({dataset!r}, {size!r}), {machines})))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_a_second_system_replays_without_computing(empty_memo, superstep_calls):
    # Blogel-V and GraphX run the same tolerance-stopped PageRank
    dataset = load_dataset("twitter", "tiny")
    first = run_cell("BV", "pagerank", dataset, 16)
    computed = len(superstep_calls)
    assert first.ok and computed == first.iterations > 0

    second = run_cell("S", "pagerank", dataset, 16)
    assert second.ok and second.iterations == first.iterations
    assert len(superstep_calls) == computed  # the whole prefix replayed

    assert digest(second) == fresh_process_digest(
        "S", "pagerank", "twitter", "tiny", 16
    )


def test_a_timed_out_prefix_is_extended_by_the_next_run(
    empty_memo, superstep_calls
):
    # Giraph times out on WCC over the road network at 32 machines and
    # completes at 64; both runs share one (WCC, graph) trajectory.
    with open(MANIFEST, encoding="ascii") as fh:
        manifest = json.load(fh)["cells"]
    dataset = load_dataset("wrn", "tiny")

    timed_out = run_cell("G", "wcc", dataset, 32)
    assert timed_out.cell() == "TO"
    prefix = len(superstep_calls)
    assert 0 < prefix == timed_out.iterations

    completed = run_cell("G", "wcc", dataset, 64)
    assert completed.ok and completed.iterations > prefix
    # only the supersteps past the timed-out prefix were computed
    assert len(superstep_calls) == completed.iterations

    assert digest(timed_out) == manifest["G:wcc:wrn/tiny@32"]
    assert digest(completed) == manifest["G:wcc:wrn/tiny@64"]


def test_mutating_what_a_run_returns_leaves_the_replay_intact(empty_memo):
    dataset = load_dataset("twitter", "tiny")
    first = run_cell("G", "pagerank", dataset, 16)
    want = first.answer.copy()
    first.answer[:] = -1.0

    workload = PageRank(tolerance=0.01)
    with superstep_trajectory(workload, dataset.graph) as trajectory:
        index = 0
        while not trajectory.step(index)[2]:
            index += 1
        state = trajectory.final_state()
    state.values[:] = -2.0
    state.active[:] = False
    state.history.clear()
    for array in state.aux.values():
        array[:] = -3.0
    with superstep_trajectory(workload, dataset.graph) as trajectory:
        again = trajectory.final_state()
    assert again.values.min() > 0 and again.history
    assert all(array.min() >= 0 for array in again.aux.values())

    replayed = run_cell("G", "pagerank", dataset, 16)
    assert np.array_equal(replayed.answer, want)
    assert digest(replayed) == fresh_process_digest(
        "G", "pagerank", "twitter", "tiny", 16
    )


def test_a_raising_superstep_evicts_its_trajectory(empty_memo, monkeypatch):
    dataset = load_dataset("twitter", "tiny")
    clean = run_cell("G", "pagerank", dataset, 16)
    empty_memo.clear()

    original = PageRank.superstep
    calls = []

    def breaks_on_the_third(self, graph, state):
        calls.append(state.iteration)
        if len(calls) == 3:
            state.values[:] = np.nan  # half-updated, then the raise
            raise RuntimeError("superstep blew up")
        return original(self, graph, state)

    monkeypatch.setattr(PageRank, "superstep", breaks_on_the_third)
    with pytest.raises(RuntimeError, match="blew up"):
        run_cell("G", "pagerank", dataset, 16)
    assert len(empty_memo) == 0

    monkeypatch.setattr(PageRank, "superstep", original)
    again = run_cell("G", "pagerank", dataset, 16)
    assert digest(again) == digest(clean)
    assert len(empty_memo) == 1


def test_runs_on_many_threads_never_share_a_live_trajectory(empty_memo):
    # The serve daemon runs cells off its main thread. A trajectory is
    # checked out while a run extends it, so runs that start together
    # from one timed-out prefix never advance the same live state twice.
    with open(MANIFEST, encoding="ascii") as fh:
        manifest = json.load(fh)["cells"]
    dataset = load_dataset("wrn", "tiny")
    cells = [("G", 64), ("G", 128), ("BV", 16), ("BV", 32), ("BV", 64),
             ("BV", 128)]
    got, errors = {}, []

    def run(system, machines):
        try:
            got[system, machines] = run_cell(system, "wcc", dataset, machines)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            empty_memo.clear()
            assert run_cell("G", "wcc", dataset, 32).cell() == "TO"
            threads = [threading.Thread(target=run, args=cell)
                       for cell in cells]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for system, machines in cells:
                cell_id = f"{system}:wcc:wrn/tiny@{machines}"
                assert digest(got[system, machines]) == manifest[cell_id]
    finally:
        sys.setswitchinterval(switch)
