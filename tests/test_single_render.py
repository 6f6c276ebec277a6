"""Each run's journal is rendered once, and every consumer reuses the text.

``Engine.run`` returns its :class:`~repro.obs.Journal` as the result's
observation; the cache, the worker wire, the grid's cost roll-up, and
the serve scheduler all read that one text, and the serve scheduler
streams the payload it already holds. These tests count the renders and
whole-journal parses on every path, pin the line-reading accessors to
the parsed journal, check the one canonical encoder against
``json.dumps``, and pin the left-fold grouped mean that the
perturbation report, the elastic bench and the findings print.
"""

import gc
import json
import math
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.experiment import ChaosReport
from repro.cluster import ClusterSpec
from repro.core.runner import ExperimentSpec, run_cell
from repro.datasets.registry import load_dataset
from repro.engines import make_engine, workload_for
from repro.exec import execute_grid, plan_grid
from repro.exec.workers import run_cell_task
from repro.exec import executor
from repro.exec.cache import ResultCache
from repro.obs import Journal, RunObservation
from repro.obs import observation as observation_module
from repro.obs.journal import canonical_json
from repro.serve import Job, JobRequest, JobRunner


def tiny_spec(systems=("G", "BV"), sizes=(16, 32)):
    return ExperimentSpec(
        systems=tuple(systems),
        workloads=("pagerank",),
        datasets=("twitter",),
        cluster_sizes=tuple(sizes),
        dataset_size="tiny",
    )


@pytest.fixture
def renders(monkeypatch):
    """Count ``build_journal`` calls made in this process."""
    calls = []
    original = observation_module.build_journal

    def counting(meta, tracer, metrics=None):
        calls.append(meta.get("kind", "run"))
        return original(meta, tracer, metrics)

    monkeypatch.setattr(observation_module, "build_journal", counting)
    return calls


@pytest.fixture
def parses(monkeypatch):
    """Count whole-journal parses in this process: ``Journal.loads``
    and the first read of a text journal's ``events``."""
    calls = []
    original = Journal.loads.__func__
    events = Journal.events.fget

    def counting(cls, text, source="<string>"):
        calls.append(source)
        return original(cls, text, source)

    def counting_events(journal):
        if journal._events is None:
            calls.append("events")
        return events(journal)

    monkeypatch.setattr(Journal, "loads", classmethod(counting))
    monkeypatch.setattr(Journal, "events", property(counting_events))
    return calls


@pytest.fixture
def delivered(monkeypatch):
    """Every payload a worker task returned or the cache read, in order."""
    payloads = []
    run_task = executor.run_cell_task
    cache_get = ResultCache.get

    def task(cell):
        payloads.append(run_task(cell))
        return payloads[-1]

    def get(cache, key):
        payload = cache_get(cache, key)
        if payload is not None:
            payloads.append(payload)
        return payload

    monkeypatch.setattr(executor, "run_cell_task", task)
    monkeypatch.setattr(ResultCache, "get", get)
    return payloads


# -- one render per executed cell, none per cache hit ------------------------

def test_inline_grid_renders_once_per_executed_cell(renders, parses,
                                                    tmp_path):
    spec = tiny_spec()
    cold = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert cold.report.executed == 4
    assert renders == ["run"] * 4
    assert parses == []  # the cost roll-up reads last lines only
    renders.clear()
    warm = execute_grid(spec, jobs=1, cache=tmp_path / "cache")
    assert warm.report.cache_hits == 4
    assert renders == [] and parses == []


def test_pooled_grid_renders_nothing_in_the_scheduler(renders, parses,
                                                      tmp_path):
    execution = execute_grid(tiny_spec(), jobs=2, cache=tmp_path / "cache")
    assert execution.report.executed == 4
    # the cost roll-up reads each payload's last line: no re-render
    assert renders == [] and parses == []
    assert execution.observation.metrics.value("cost.answers") == 4


def test_worker_task_renders_exactly_once(renders, parses):
    (task,) = plan_grid(tiny_spec(systems=("BV",), sizes=(16,)))
    payload = run_cell_task(task.payload(1))
    assert renders == ["run"] and parses == []
    assert Journal.loads(payload["journal"]).dumps() == payload["journal"]


def test_serve_scheduler_renders_once_per_executed_cell(renders, parses,
                                                        delivered, tmp_path):
    runner = JobRunner(cache=tmp_path / "cache")
    request = JobRequest(
        client="alice", systems=("G", "BV"), workloads=("pagerank",),
        datasets=("twitter",), cluster_sizes=(16,), dataset_size="tiny",
    )
    seen = []
    published = []

    def publish(job, payload, from_cache):
        seen.append(from_cache)
        published.append(payload)

    runner.run_job(Job(id="j-000001", request=request, seq=1), publish)
    assert seen == [False, False] and renders == ["run", "run"]
    renders.clear()
    runner.run_job(Job(id="j-000002", request=request, seq=2), publish)
    assert seen[2:] == [True, True] and renders == []
    assert parses == []  # hits stream their stored text as is
    # every cell streams the payload it came in, not a re-encoded copy
    assert [id(p) for p in published] == [id(p) for p in delivered]


# -- the finished run's journal ---------------------------------------------

@pytest.mark.parametrize("cell", [
    ("BV", "pagerank", "wrn", 16),         # completes
    ("GL-S-R-I", "wcc", "wrn", 16),        # OOM
    ("HL", "pagerank", "twitter", 64),     # SHFL
])
def test_frozen_meta_and_cost_match_the_parsed_journal(cell):
    system, workload, dataset, machines = cell
    result = run_cell(system, workload, load_dataset(dataset, "tiny"), machines)
    finished = result.observation
    assert isinstance(finished, Journal)
    parsed = Journal.loads(finished.dumps())
    assert finished.meta == parsed.meta
    assert finished.cost() == parsed.cost() is not None
    assert finished.counter_names() == {
        event["name"] for event in parsed.metric_events()
        if event["kind"] == "counter"
    }
    assert finished._events is None  # read off single lines, never parsed
    assert parsed.dumps() == finished.dumps()


def test_scheduler_stream_has_no_cost_event():
    execution = execute_grid(tiny_spec(sizes=(16,)), jobs=1)
    journal = execution.scheduler_journal()
    assert journal.meta["kind"] == "scheduler"
    assert journal.cost() is None
    assert Journal.loads(journal.dumps()).cost() is None


def test_frozen_write_is_verbatim(tmp_path):
    result = run_cell("BV", "pagerank", load_dataset("twitter", "tiny"), 16)
    lines = result.observation.write(tmp_path / "cell.jsonl")
    assert (tmp_path / "cell.jsonl").read_text(encoding="ascii") == (
        result.observation.dumps()
    )
    assert lines == len(Journal.read(tmp_path / "cell.jsonl"))
    assert list(tmp_path.iterdir()) == [tmp_path / "cell.jsonl"]


def test_finished_result_does_not_keep_the_tracer_alive(tiny_twitter):
    engine = make_engine("BV")
    workload = workload_for(engine, "pagerank", tiny_twitter)
    obs = RunObservation()
    tracer = weakref.ref(obs.tracer)
    result = engine.run(tiny_twitter, workload, ClusterSpec(16), obs=obs)
    del obs
    gc.collect()
    assert tracer() is None
    assert isinstance(result.observation, Journal)
    assert result.extras["memory_byte_seconds"] > 0.0  # metrics stay live


def test_a_real_exception_escapes_engine_run_unchanged(tiny_twitter):
    engine = make_engine("BV")
    workload = workload_for(engine, "pagerank", tiny_twitter)

    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    engine._execute = boom
    with pytest.raises(ZeroDivisionError, match="injected"):
        engine.run(tiny_twitter, workload, ClusterSpec(16))


# -- one canonical encoder ---------------------------------------------------

_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310])
    | st.text()
    | st.sampled_from(["déjà vu", "日本語", " ", "\x00\x1f", "💥"])
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_events = st.fixed_dictionaries({
    "type": st.just("span"),
    "id": st.integers(min_value=0),
    "ts": st.floats(allow_nan=True, allow_infinity=True),
    "args": st.dictionaries(st.text(max_size=8), _json, max_size=5),
})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json, _events))
def test_canonical_encoder_is_byte_equal_to_json_dumps(obj):
    expected = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert canonical_json(obj) == expected


# -- means fold left to right ------------------------------------------------

_CANCELLING = [1e16, 1.0, -1e16]   # left fold: 0.0; compensated sum: 1.0


def report_of(cells):
    report = ChaosReport(workload="pagerank", dataset="twitter",
                         cluster_size=16, seed=0)
    report.cells = cells
    return report


# the findings, the elastic bench and dollars_by_mechanism all average
# through the one grouped mean, ChaosReport.mean_by


def test_findings_mean_folds_left():
    cells = [types.SimpleNamespace(completed=True, group="out", value=v)
             for v in _CANCELLING]
    cells += [types.SimpleNamespace(completed=True, group="in", value=v)
              for v in (1.0, 1e16, -1e16)]
    means = report_of(cells).mean_by(lambda c: c.group, lambda c: c.value)
    assert means == {"out": 0.0, "in": 0.0}
    assert list(means) == ["out", "in"]   # groups keep first-seen order
    assert report_of([]).mean_by(lambda c: c.group, lambda c: c.value) == {}


def test_elastic_bench_mean_by_folds_left():
    cells = [types.SimpleNamespace(completed=True, group="out", value=v)
             for v in _CANCELLING]
    cells.append(types.SimpleNamespace(completed=False, group="out", value=9.0))
    cells.append(types.SimpleNamespace(completed=False, group="in", value=9.0))
    means = report_of(cells).mean_by(lambda c: c.group, lambda c: c.value)
    assert means == {"out": 0.0}


def test_dollars_by_mechanism_folds_left():
    cells = [types.SimpleNamespace(completed=True, rescales=1,
                                   mechanism="checkpoint",
                                   dollars_per_rescale=v)
             for v in _CANCELLING]
    # a run that consumed no rescale has no per-rescale price
    cells.append(types.SimpleNamespace(completed=True, rescales=0,
                                       mechanism="none",
                                       dollars_per_rescale=9.0))
    assert report_of(cells).dollars_by_mechanism() == {"checkpoint": 0.0}
