"""Cost-per-answer accounting and the perf report/diff layer.

Covers the CostModel arithmetic on synthetic events (hand-computed
dollars), the cost record as every journal's deterministic final event
(byte-identical across --jobs modes and cache replay), a priced chaos
run for one engine per Table 1 fault-tolerance mechanism, and the
``repro report`` surface: source classification, deterministic
rendering, and the --diff regression gate's exit codes.
"""

import dataclasses
import json

import pytest

from repro.chaos import ChaosPlan, MachineCrash
from repro.cli import _trace_filename, main
from repro.cluster import ClusterSpec
from repro.core.runner import ExperimentSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for
from repro.exec.executor import execute_grid
from repro.obs.cost import (
    DEFAULT_COST_MODEL,
    GB,
    HOUR,
    CostModel,
    CostReport,
    aggregate_costs,
    cost_report_from_events,
)
from repro.obs.report import (
    KIND_BENCH,
    KIND_JOURNAL,
    KIND_SCHEDULER,
    KIND_TRACE_DIR,
    ReportError,
    classify_path,
    diff_sources,
    load_source,
    render_report,
    write_bench_record,
)


def tiny_spec(systems=("G", "BV"), datasets=("twitter",), sizes=(16,)):
    return ExperimentSpec(
        systems=tuple(systems),
        workloads=("pagerank",),
        datasets=tuple(datasets),
        cluster_sizes=tuple(sizes),
        dataset_size="tiny",
    )


def write_trace_dir(tmp_path, name, jobs=1, spec=None):
    """Journals + _scheduler.jsonl, the way ``repro grid --trace`` does."""
    execution = execute_grid(spec or tiny_spec(), jobs=jobs)
    trace_dir = tmp_path / name
    trace_dir.mkdir()
    for result in execution.grid.cells.values():
        result.observation.journal().write(trace_dir / _trace_filename(result))
    execution.scheduler_journal().write(trace_dir / "_scheduler.jsonl")
    return trace_dir


def rewrite_journals(trace_dir, mutate):
    """Apply ``mutate(event)`` to every event of every run journal."""
    for path in sorted(trace_dir.glob("*.jsonl")):
        if path.name == "_scheduler.jsonl":
            continue
        lines = []
        for line in path.read_text().splitlines():
            event = json.loads(line)
            mutate(event)
            lines.append(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")))
        path.write_text("\n".join(lines) + "\n")


# -- the model on synthetic events: hand-computed dollars --------------------

SYNTH_EVENTS = [
    {"type": "meta", "system": "X", "workload": "pagerank",
     "dataset": "twitter", "machines": 4, "total_time": 100.0,
     "status": "ok"},
    {"type": "span", "id": 1, "name": "hdfs_read", "cat": "cluster",
     "ts": 0.0, "dur": 5.0, "parent": None, "args": {"bytes": 2e9}},
    {"type": "span", "id": 2, "name": "compute", "cat": "cluster",
     "ts": 5.0, "dur": 90.0, "parent": None, "args": {}},
    {"type": "metric", "kind": "counter", "name": "bytes_shuffled",
     "value": 5e9},
    {"type": "metric", "kind": "counter", "name": "recovery_seconds",
     "value": 18.0},
    {"type": "metric", "kind": "gauge", "name": "memory_byte_seconds",
     "value": 7.2e12},
]


class TestCostModel:
    def test_hand_computed_bill(self):
        report = cost_report_from_events(SYNTH_EVENTS)
        # 4 machines x 100 s = 400 machine-seconds
        assert report.machine_seconds == 400.0
        # 400/3600 h x $0.36/h
        assert report.compute_dollars == pytest.approx(0.04, rel=1e-12)
        # 5 GB x $0.01/GB
        assert report.shuffle_dollars == pytest.approx(0.05, rel=1e-12)
        # 7.2e12 B*s = 2 GB-hours x $0.005/GB-h
        assert report.memory_gb_hours == pytest.approx(2.0, rel=1e-12)
        assert report.memory_dollars == pytest.approx(0.01, rel=1e-12)
        assert report.dollars == pytest.approx(0.10, rel=1e-12)
        # recovery is a priced slice of compute, not an extra charge:
        # 4 x 18 s = 72 machine-s -> 72/3600 x $0.36
        assert report.recovery_machine_seconds == 72.0
        assert report.recovery_dollars == pytest.approx(0.0072, rel=1e-12)
        # hdfs_read moved 2e9 bytes through storage
        assert report.bytes_spilled == 2e9
        assert report.answers == 1
        assert report.dollars_per_answer == pytest.approx(0.10, rel=1e-12)

    def test_custom_rates_scale_linearly(self):
        double = CostModel(
            dollars_per_machine_hour=0.72,
            dollars_per_gb_shuffled=0.02,
            dollars_per_gb_hour_memory=0.01,
        )
        base = cost_report_from_events(SYNTH_EVENTS)
        scaled = cost_report_from_events(SYNTH_EVENTS, double)
        assert scaled.dollars == pytest.approx(2 * base.dollars, rel=1e-12)
        assert scaled.rates == double.rates()
        # quantities are rate-independent
        assert scaled.machine_seconds == base.machine_seconds
        assert scaled.memory_byte_seconds == base.memory_byte_seconds

    def test_failure_bills_dollars_but_earns_no_answer(self):
        events = [dict(SYNTH_EVENTS[0], status="failed")] + SYNTH_EVENTS[1:]
        report = cost_report_from_events(events)
        assert report.dollars == pytest.approx(0.10, rel=1e-12)
        assert report.answers == 0
        assert report.dollars_per_answer is None
        assert report.to_event()["dollars_per_answer"] is None

    def test_non_run_streams_get_no_cost(self):
        assert cost_report_from_events([]) is None
        assert cost_report_from_events([{"type": "span"}]) is None
        scheduler_meta = {"type": "meta", "kind": "scheduler", "cells": 4}
        assert cost_report_from_events([scheduler_meta]) is None

    def test_event_round_trip_and_stability(self):
        report = cost_report_from_events(SYNTH_EVENTS)
        event = report.to_event()
        assert event["type"] == "cost"
        assert CostReport.from_event(event).to_event() == event
        # appending the cost event to the stream does not change the
        # recomputed report: the fold ignores non-span/metric events,
        # so journals stay self-consistent after build_journal appends
        assert cost_report_from_events(
            SYNTH_EVENTS + [event]
        ).to_event() == event

    def test_aggregate_costs_sums_the_grid(self):
        one = cost_report_from_events(SYNTH_EVENTS)
        failed = cost_report_from_events(
            [dict(SYNTH_EVENTS[0], status="failed")] + SYNTH_EVENTS[1:]
        )
        totals = aggregate_costs([one, failed])
        assert totals["dollars"] == pytest.approx(0.20, rel=1e-12)
        assert totals["machine_seconds"] == 800.0
        assert totals["memory_gb_hours"] == pytest.approx(4.0, rel=1e-12)
        assert totals["gb_shuffled"] == pytest.approx(10.0, rel=1e-12)
        assert totals["recovery_seconds"] == 36.0
        assert totals["answers"] == 1.0


# -- the cost record in real journals ----------------------------------------

@pytest.fixture(scope="module")
def twitter_tiny():
    return load_dataset("twitter", "tiny")


def run(key, dataset, machines=16, plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, "pagerank", dataset)
    return engine.run(
        dataset, workload, ClusterSpec(machines, fault_plan=plan)
    )


class TestJournalCostRecord:
    def test_cost_is_the_final_event_and_consistent(self, twitter_tiny):
        journal = run("BV", twitter_tiny).observation.journal()
        cost = journal.events[-1]
        assert cost["type"] == "cost"
        assert journal.cost() == cost
        meta = journal.meta
        assert cost["machines"] == meta["machines"]
        assert cost["total_seconds"] == meta["total_time"]
        assert cost["machine_seconds"] == (
            meta["machines"] * meta["total_time"]
        )
        # the bill re-derives exactly from the journal's own metrics
        assert cost["shuffle_dollars"] == pytest.approx(
            journal.scalar("bytes_shuffled") / GB
            * DEFAULT_COST_MODEL.dollars_per_gb_shuffled, rel=1e-12,
        )
        assert cost["memory_dollars"] == pytest.approx(
            journal.scalar("memory_byte_seconds") / GB / HOUR
            * DEFAULT_COST_MODEL.dollars_per_gb_hour_memory, rel=1e-12,
        )
        assert cost["dollars"] == pytest.approx(
            cost["compute_dollars"] + cost["shuffle_dollars"]
            + cost["memory_dollars"], rel=1e-12,
        )
        assert journal.scalar("memory_byte_seconds") > 0.0
        assert cost["answers"] == 1

    def test_byte_identical_across_jobs_and_cache_replay(self, tmp_path):
        spec = tiny_spec()

        def dumps(execution):
            return {
                key: result.observation.journal().dumps()
                for key, result in execution.grid.cells.items()
            }

        seq = dumps(execute_grid(spec, jobs=1))
        par = dumps(execute_grid(spec, jobs=2))
        cold = dumps(execute_grid(spec, jobs=1, cache=tmp_path / "cache"))
        warm = dumps(execute_grid(spec, jobs=1, cache=tmp_path / "cache"))
        assert seq == par == cold == warm
        for text in seq.values():
            last = json.loads(text.splitlines()[-1])
            assert last["type"] == "cost"

    def test_scheduler_journal_aggregates_cell_costs(self):
        execution = execute_grid(tiny_spec(), jobs=1)
        cell_costs = [
            r.observation.journal().cost()
            for r in execution.grid.cells.values()
        ]
        scheduler = execution.scheduler_journal()
        assert scheduler.cost() is None  # no per-run bill of its own
        assert scheduler.scalar("cost.dollars") == pytest.approx(
            sum(c["dollars"] for c in cell_costs), rel=1e-12
        )
        assert scheduler.scalar("cost.answers") == len(cell_costs)


# -- one engine per Table 1 mechanism, priced under a crash ------------------

@pytest.mark.parametrize(
    "key,mechanism",
    [("BV", "checkpoint"), ("HD", "reexecution"), ("V", "none")],
    ids=["checkpoint-BV", "reexecution-HD", "restart-from-zero-V"],
)
def test_mechanism_recovery_is_priced(key, mechanism, twitter_tiny):
    assert make_engine(key).fault_tolerance == mechanism
    clean = run(key, twitter_tiny)
    crash = clean.load_time + clean.execute_time * 0.5
    plan = ChaosPlan(events=(MachineCrash(time=crash),), seed=7)
    faulted = run(key, twitter_tiny, plan=plan)
    journal = faulted.observation.journal()
    cost = journal.cost()
    # the crash made the same answer strictly more expensive
    clean_cost = clean.observation.journal().cost()
    assert cost["dollars"] > clean_cost["dollars"]
    assert cost["answers"] == 1
    # recovery line-item: the journal's recovery_seconds counter, priced
    # at machines x seconds on the machine-hour rate
    recovery = journal.scalar("recovery_seconds")
    assert recovery > 0.0
    assert cost["recovery_seconds"] == recovery
    assert cost["recovery_machine_seconds"] == pytest.approx(
        journal.meta["machines"] * recovery, rel=1e-12
    )
    assert cost["recovery_dollars"] == pytest.approx(
        journal.meta["machines"] * recovery / HOUR
        * DEFAULT_COST_MODEL.dollars_per_machine_hour, rel=1e-12,
    )
    # recovery dollars sit inside compute dollars, never on top
    assert cost["recovery_dollars"] < cost["compute_dollars"]
    assert cost["dollars"] == pytest.approx(
        cost["compute_dollars"] + cost["shuffle_dollars"]
        + cost["memory_dollars"], rel=1e-12,
    )


# -- repro report: sources, rendering, the diff gate -------------------------

class TestReport:
    def test_classify_paths(self, tmp_path):
        trace_dir = write_trace_dir(tmp_path, "traces")
        journals = sorted(
            p for p in trace_dir.iterdir() if p.name != "_scheduler.jsonl"
        )
        assert classify_path(trace_dir) == KIND_TRACE_DIR
        assert classify_path(journals[0]) == KIND_JOURNAL
        assert classify_path(trace_dir / "_scheduler.jsonl") == KIND_SCHEDULER
        bench = tmp_path / "BENCH_grid.json"
        bench.write_text(json.dumps({"bench": "grid", "modes": {}}))
        assert classify_path(bench) == KIND_BENCH
        with pytest.raises(ReportError):
            classify_path(tmp_path / "missing.jsonl")

    def test_render_is_deterministic_and_complete(self, tmp_path):
        source = load_source(write_trace_dir(tmp_path, "traces"))
        text = render_report([source])
        assert text == render_report([load_source(tmp_path / "traces")])
        assert "# Perf & cost report" in text
        assert "BV pagerank/twitter@16" in text
        assert "total (2 runs)" in text
        assert "Hot spans" in text
        assert "Scheduler" in text

    def test_diff_identical_then_slowdown(self, tmp_path):
        a = write_trace_dir(tmp_path, "a")
        b = write_trace_dir(tmp_path, "b")
        same = diff_sources(load_source(a), load_source(b))
        assert same.exit_code == 0 and not same.regressions

        def slow(event):
            if event.get("type") == "meta":
                event["total_time"] *= 2.0

        rewrite_journals(b, slow)
        diff = diff_sources(load_source(a), load_source(b))
        assert diff.exit_code == 1
        assert len(diff.regressions) == 2  # both runs doubled
        assert all("total seconds" in e.render() for e in diff.regressions)
        # the same change seen from the other side is an improvement
        back = diff_sources(load_source(b), load_source(a))
        assert back.exit_code == 0 and back.improvements

    def test_diff_cost_regression_via_threshold(self, tmp_path):
        a = write_trace_dir(tmp_path, "a")
        b = write_trace_dir(tmp_path, "b")

        def pricier(event):
            if event.get("type") == "cost":
                event["dollars"] *= 1.5

        rewrite_journals(b, pricier)
        diff = diff_sources(load_source(a), load_source(b),
                            cost_threshold=0.05)
        assert diff.exit_code == 1
        assert any("dollars" in e.render() for e in diff.regressions)
        # a loose cost gate lets the same drift through
        loose = diff_sources(load_source(a), load_source(b),
                             cost_threshold=0.6)
        assert loose.exit_code == 0

    def test_bench_record_diff(self, tmp_path):
        record = {
            "bench": "grid",
            "schema_version": 2,
            "modes": {"jobs1": {"seconds": 10.0},
                      "jobsN_warm": {"seconds": 2.0}},
            "speedup_parallel": 2.0,
            "speedup_warm": 5.0,
        }
        worse = dict(record, speedup_parallel=1.0,
                     modes={"jobs1": {"seconds": 10.0},
                            "jobsN_warm": {"seconds": 2.0}})
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        before.write_text(json.dumps(record))
        after.write_text(json.dumps(worse))
        diff = diff_sources(load_source(before), load_source(after))
        assert diff.exit_code == 1
        assert any("speedup_parallel" in e.render() for e in diff.regressions)


    def test_write_bench_record(self, tmp_path):
        record = {"bench": "grid", "speedup_parallel": 1.5, "modes": {}}
        output = tmp_path / "BENCH_grid.json"
        default_history = tmp_path / "BENCH_history.jsonl"
        # history=None appends next to the record
        assert write_bench_record(record, str(output)) == str(default_history)
        assert output.read_text(encoding="ascii") == (
            json.dumps(record, indent=2, sort_keys=True) + "\n")
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n"
        assert default_history.read_text(encoding="ascii") == canonical
        # one line per call; '' skips the append
        write_bench_record(record, str(output), None)
        assert write_bench_record(record, str(output), "") == ""
        assert default_history.read_text(encoding="ascii") == canonical * 2
        # an explicit history path, and no record file without an output
        other = tmp_path / "other.jsonl"
        assert write_bench_record(record, None, str(other)) == str(other)
        assert other.read_text(encoding="ascii") == canonical
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_grid.json", "BENCH_history.jsonl", "other.jsonl"]
        # the written record classifies and loads as a bench record
        assert classify_path(output) == KIND_BENCH
        assert load_source(output).benches == [record]


class TestReportCli:
    def test_report_renders_and_diff_gates(self, tmp_path, capsys):
        a = write_trace_dir(tmp_path, "a")
        b = write_trace_dir(tmp_path, "b")
        assert main(["report", str(a)]) == 0
        assert "# Perf & cost report" in capsys.readouterr().out
        assert main(["report", "--diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

        def slow(event):
            if event.get("type") == "meta":
                event["total_time"] *= 2.0
            if event.get("type") == "cost":
                event["dollars"] *= 2.0

        rewrite_journals(b, slow)
        assert main(["report", "--diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_wants_exactly_two_sources(self, tmp_path, capsys):
        a = write_trace_dir(tmp_path, "a")
        assert main(["report", "--diff", str(a)]) == 2
        capsys.readouterr()

    def test_report_to_file_is_byte_stable(self, tmp_path, capsys):
        a = write_trace_dir(tmp_path, "a")
        out1, out2 = tmp_path / "r1.md", tmp_path / "r2.md"
        assert main(["report", str(a), "-o", str(out1)]) == 0
        assert main(["report", str(a), "-o", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_summary_reads_the_scheduler_journal(self, tmp_path,
                                                       capsys):
        # a crash makes the grid's bill carry recovery seconds
        spec = dataclasses.replace(tiny_spec(), chaos=ChaosPlan(
            events=(MachineCrash(time=5.0),), seed=7))
        trace_dir = write_trace_dir(tmp_path, "traces", spec=spec)
        scheduler = trace_dir / "_scheduler.jsonl"
        assert main(["trace", str(scheduler), "--summary"]) == 0
        out = capsys.readouterr().out
        assert main(["report", str(scheduler)]) == 0
        assert capsys.readouterr().out == out
        assert "- 2 cells · 0 cached · 2 executed" in out
        assert "grid cost $" in out
        assert "/answer" in out
        assert "  chaos recovery " in out
        assert "grid wall " in out
        assert "### Scheduler spans (top 3 by self time, host clock)" in out
        assert "| grid [scheduler] | 1 |" in out

    def test_trace_and_report_agree_past_five_span_groups(self, tmp_path,
                                                          capsys):
        # both commands rank the same number of span groups by default,
        # so a scheduler journal with more than five renders the same
        scheduler = write_trace_dir(tmp_path, "traces") / "_scheduler.jsonl"
        events = [json.loads(line)
                  for line in scheduler.read_text().splitlines()]
        next_id = max(e["id"] for e in events if e["type"] == "span") + 1
        extra = [{"args": {}, "cat": "scheduler", "dur": 1e-6 * (n + 1),
                  "id": next_id + n, "name": f"extra{n}", "parent": 1,
                  "ts": 1e-3, "type": "span"} for n in range(4)]
        scheduler.write_text("".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in events + extra))
        assert main(["trace", str(scheduler)]) == 0
        out = capsys.readouterr().out
        assert main(["report", str(scheduler)]) == 0
        assert capsys.readouterr().out == out
        assert "### Scheduler spans (top 7 by self time, host clock)" in out

    def test_repeated_coordinates_keep_their_run_keys(self, tmp_path):
        trace_dir = write_trace_dir(tmp_path, "traces")
        first = sorted(trace_dir.glob("BV_*.jsonl"))[0]
        (trace_dir / "zz_again.jsonl").write_text(first.read_text())
        keys = [row.key for row in load_source(trace_dir).runs]
        assert keys[-1] == "BV pagerank/twitter@16#2"
        table = render_report([load_source(trace_dir)])
        assert "| twitter | BV#2 |" in table
