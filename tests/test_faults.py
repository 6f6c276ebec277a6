"""Tests for failure injection (Table 1's fault-tolerance column)."""

import pytest

from repro.chaos import ChaosPlan, ChaosRuntime, MachineCrash
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for


def crash_plan(*times, checkpoint_interval=10):
    """One worker crash at each of ``times`` (simulated seconds)."""
    return ChaosPlan(events=tuple(MachineCrash(time=t) for t in times),
                     checkpoint_interval=checkpoint_interval)


def run(key, workload_name, dataset, machines=16, fault_plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, workload_name, dataset)
    spec = ClusterSpec(machines, fault_plan=fault_plan)
    return engine.run(dataset, workload, spec)


@pytest.fixture(scope="module")
def twitter():
    return load_dataset("twitter", "small")


class TestCrashPlan:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            crash_plan(-1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            crash_plan(checkpoint_interval=0)

    def test_sorted_delivery(self):
        runtime = ChaosRuntime(crash_plan(9.0, 3.0, 6.0), num_workers=4)
        assert [e.time for _, e in runtime.pop_due(10.0)] == [3.0, 6.0, 9.0]


class TestPlanReuse:
    """Regression: a plan is a spec, not a cursor. Before the chaos
    rework, runs drained the plan's pending failure times in place, so
    the second cell sharing a spec saw no faults at all."""

    def test_same_plan_twice_injects_both_times(self, twitter):
        clean = run("BV", "pagerank", twitter)
        plan = crash_plan(clean.total_time * 0.5)
        first = run("BV", "pagerank", twitter, fault_plan=plan)
        second = run("BV", "pagerank", twitter, fault_plan=plan)
        assert first.extras["recoveries"] == 1
        assert second.extras["recoveries"] == 1
        assert second.total_time == first.total_time
        assert second.total_time > clean.total_time


class TestRecoverySemantics:
    def test_no_plan_means_no_cost(self, twitter):
        clean = run("BV", "pagerank", twitter)
        assert "checkpoints" not in clean.extras
        assert "recoveries" not in clean.extras

    def test_checkpointing_engine_recovers(self, twitter):
        clean = run("BV", "pagerank", twitter)
        plan = crash_plan(clean.total_time * 0.5)
        faulty = run("BV", "pagerank", twitter, fault_plan=plan)
        assert faulty.ok
        assert faulty.extras["recoveries"] == 1
        assert faulty.extras["checkpoints"] >= 1
        assert faulty.total_time > clean.total_time

    def test_checkpoint_overhead_without_failures(self, twitter):
        clean = run("G", "pagerank", twitter)
        plan = crash_plan(checkpoint_interval=5)
        with_ckpt = run("G", "pagerank", twitter, fault_plan=plan)
        assert with_ckpt.ok
        assert with_ckpt.extras["checkpoints"] == 30 // 5
        assert with_ckpt.total_time > clean.total_time

    def test_denser_checkpoints_cut_recovery_cost(self, twitter):
        clean = run("BV", "pagerank", twitter)
        fail_at = (clean.total_time * 0.8,)
        sparse = run("BV", "pagerank", twitter,
                     fault_plan=crash_plan(*fail_at,
                                           checkpoint_interval=40))
        dense = run("BV", "pagerank", twitter,
                    fault_plan=crash_plan(*fail_at,
                                          checkpoint_interval=2))
        # dense checkpointing loses less progress on failure
        sparse_recovery = sparse.total_time - clean.total_time
        dense_recovery = dense.total_time - clean.total_time
        assert dense_recovery < sparse_recovery

    def test_reexecution_cheapest(self, twitter):
        """Hadoop re-runs one machine's tasks: tiny blast radius."""
        clean = run("HD", "pagerank", twitter)
        plan = crash_plan(clean.total_time * 0.5)
        faulty = run("HD", "pagerank", twitter, fault_plan=plan)
        assert faulty.ok
        assert faulty.extras["recoveries"] == 1
        assert "checkpoints" not in faulty.extras
        overhead = faulty.total_time / clean.total_time
        assert overhead < 1.1

    def test_vertica_restarts_from_zero(self, twitter):
        clean = run("V", "pagerank", twitter)
        plan = crash_plan(clean.total_time * 0.6)
        faulty = run("V", "pagerank", twitter, fault_plan=plan)
        assert faulty.ok
        # no fault tolerance: the aborted work is paid twice
        assert faulty.total_time > 1.4 * clean.total_time

    def test_relative_overheads_match_mechanisms(self, twitter):
        """reexecution < checkpoint < none, for a mid-run failure."""
        overheads = {}
        for key in ("HD", "BV", "V"):
            clean = run(key, "pagerank", twitter)
            plan = crash_plan(clean.total_time * 0.5)
            faulty = run(key, "pagerank", twitter, fault_plan=plan)
            overheads[key] = faulty.total_time / clean.total_time
        assert overheads["HD"] < overheads["BV"] < overheads["V"]

    def test_failure_during_load_is_harmless(self, twitter):
        """Events before the superstep loop fire at the first round."""
        plan = crash_plan(0.5)
        result = run("BV", "pagerank", twitter, fault_plan=plan)
        assert result.ok
        assert result.extras["recoveries"] == 1

    def test_multiple_failures(self, twitter):
        clean = run("BV", "pagerank", twitter)
        times = tuple(clean.total_time * f for f in (0.3, 0.5, 0.7))
        faulty = run("BV", "pagerank", twitter,
                     fault_plan=crash_plan(*times))
        assert faulty.ok
        assert faulty.extras["recoveries"] == 3
