"""repro.chaos: deterministic fault injection, priced recovery, and the
correctness gate — every faulted run must return bit-exact answers.

Covers the event taxonomy and plan serialization, the per-run
ChaosRuntime (seeded machine choice, effect windows), the behavioral
contract of each fault kind, hand-computed recovery accounting for one
system per Table 1 mechanism, end-to-end determinism (byte-identical
journals, jobs=1 vs jobs=N), the MTTR experiment, and the extension
finding built on top.
"""

import numpy as np
import pytest

from repro.chaos import (
    BlockLoss,
    ChaosPlan,
    ChaosRuntime,
    CheckpointCorruption,
    MachineCrash,
    MessageLoss,
    NetworkDegradation,
    NetworkPartition,
    Straggler,
    derive_machine,
    event_from_dict,
)
from repro.chaos.experiment import plan_for, recovery_cost_experiment
from repro.cluster import ClusterSpec
from repro.core.runner import run_cell
from repro.datasets import load_dataset
from repro.engines import (ENGINE_KEYS, EXTENSION_WORKLOADS, WORKLOAD_NAMES,
                           make_engine, workload_for)


def run(key, workload_name, dataset, machines=16, plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, workload_name, dataset)
    return engine.run(dataset, workload, ClusterSpec(machines, fault_plan=plan))


@pytest.fixture(scope="module")
def twitter():
    return load_dataset("twitter", "small")


@pytest.fixture(scope="module")
def clean_bv(twitter):
    return run("BV", "pagerank", twitter)


def spans(result, name=None):
    rows = [s for s in result.observation.spans()
            if s["type"] == "span"]
    return rows if name is None else [s for s in rows if s["name"] == name]


def mid_loop(clean):
    """A time safely inside the reference run's superstep loop."""
    return clean.load_time + clean.execute_time * 0.5


# -- events and plans --------------------------------------------------------

class TestEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            Straggler(slowdown=1.0)
        with pytest.raises(ValueError):
            Straggler(supersteps=0)
        with pytest.raises(ValueError):
            NetworkDegradation(factor=0.5)
        with pytest.raises(ValueError):
            MessageLoss(fraction=0.0)
        with pytest.raises(ValueError):
            MessageLoss(fraction=1.5)
        with pytest.raises(ValueError):
            BlockLoss(fraction=-0.1)
        with pytest.raises(ValueError):
            NetworkPartition(seconds=0.0)

    def test_round_trip_every_kind(self):
        originals = [
            MachineCrash(time=3.0, machine=2),
            Straggler(time=1.0, slowdown=8.0, supersteps=2),
            NetworkDegradation(time=2.0, factor=3.0, supersteps=4),
            NetworkPartition(time=4.0, seconds=12.0),
            MessageLoss(time=5.0, fraction=0.25),
            BlockLoss(time=6.0, fraction=0.5),
            CheckpointCorruption(time=7.0),
        ]
        for event in originals:
            clone = event_from_dict(event.to_dict())
            assert clone == event
            assert clone.kind == event.kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "meteor", "time": 1.0})


class TestChaosPlan:
    def test_round_trip(self):
        plan = ChaosPlan(
            events=(MachineCrash(time=5.0), MessageLoss(time=2.0)),
            checkpoint_interval=7,
            seed=13,
        )
        clone = ChaosPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.label() == plan.label()

    def test_label_summarizes(self):
        plan = ChaosPlan(events=(MachineCrash(time=1.0),
                                 MachineCrash(time=2.0)), seed=3)
        assert "crashx2" in plan.label()
        assert "s3" in plan.label()
        assert ChaosPlan().label().startswith("quiet")

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(checkpoint_interval=0)

    def test_plan_for_spreads_events_inside_window(self):
        plan = plan_for("crash", 3, (10.0, 50.0))
        times = [e.time for e in plan.events]
        assert times == [20.0, 30.0, 40.0]
        with pytest.raises(KeyError):
            plan_for("meteor", 1, (0.0, 1.0))

    def test_plan_for_corruption_pairs_with_crash(self):
        plan = plan_for("ckptcorrupt", 1, (0.0, 10.0))
        kinds = [e.kind for e in plan.events]
        assert kinds == ["ckptcorrupt", "crash"]


class TestChaosRuntime:
    def test_machine_choice_is_seeded(self):
        first = derive_machine(seed=1, index=0, num_workers=16)
        assert derive_machine(seed=1, index=0, num_workers=16) == first
        assert 0 <= first < 16
        others = {derive_machine(seed=s, index=0, num_workers=16)
                  for s in range(20)}
        assert len(others) > 1  # the seed actually matters

    def test_pop_due_is_per_run(self):
        plan = ChaosPlan(events=(MachineCrash(time=5.0),))
        first = ChaosRuntime(plan, num_workers=4)
        assert [e.kind for _, e in first.pop_due(10.0)] == ["crash"]
        assert first.pop_due(10.0) == []
        # a second run of the same plan sees the fault again
        second = ChaosRuntime(plan, num_workers=4)
        assert [e.kind for _, e in second.pop_due(10.0)] == ["crash"]

    def test_straggler_window_ticks_per_superstep(self):
        runtime = ChaosRuntime(ChaosPlan(), num_workers=4)
        runtime.add_straggler(machine=1, slowdown=3.0, supersteps=2)
        assert runtime.apply_compute([1.0, 1.0]) == [1.0, 3.0]
        runtime.end_superstep()
        assert runtime.apply_compute([1.0, 1.0]) == [1.0, 3.0]
        runtime.end_superstep()
        assert runtime.apply_compute([1.0, 1.0]) == [1.0, 1.0]

    def test_degradation_compounds_and_expires(self):
        runtime = ChaosRuntime(ChaosPlan(), num_workers=4)
        runtime.add_degradation(factor=2.0, supersteps=1)
        runtime.add_degradation(factor=3.0, supersteps=2)
        assert runtime.bandwidth_factor() == 6.0
        runtime.end_superstep()
        assert runtime.bandwidth_factor() == 3.0
        runtime.end_superstep()
        assert runtime.bandwidth_factor() == 1.0


# -- per-kind behavior and the exactness gate --------------------------------

ALL_KINDS = ("crash", "straggler", "netdegrade", "netsplit", "msgloss",
             "blockloss", "ckptcorrupt")


class TestFaultKinds:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind_completes_with_exact_answers(self, twitter,
                                                     clean_bv, kind):
        plan = plan_for(kind, 1, (clean_bv.load_time,
                                  clean_bv.load_time + clean_bv.execute_time))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        assert faulted.ok
        assert np.array_equal(faulted.answer, clean_bv.answer)
        assert faulted.iterations == clean_bv.iterations
        assert faulted.extras["faults_injected"] >= 1
        assert faulted.total_time >= clean_bv.total_time

    def test_straggler_slows_exactly_its_window(self, twitter, clean_bv):
        t = mid_loop(clean_bv)
        plan = ChaosPlan(events=(
            Straggler(time=t, slowdown=4.0, supersteps=2),))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        slowed = [
            s for s in spans(faulted, "superstep")
            if s["dur"] > 1.5 * clean_bv.execute_time / clean_bv.iterations
        ]
        assert len(slowed) == 2
        assert slowed[1]["args"]["iteration"] == (
            slowed[0]["args"]["iteration"] + 1)

    def test_netdegrade_stretches_shuffles(self, twitter, clean_bv):
        plan = ChaosPlan(events=(
            NetworkDegradation(time=mid_loop(clean_bv), factor=4.0,
                               supersteps=3),))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        assert faulted.ok
        assert faulted.total_time > clean_bv.total_time
        # the degradation never leaks past its window: the run ends with
        # the network restored
        assert faulted.extras["faults_injected"] == 1

    def test_netsplit_charges_the_partition_wait(self, twitter, clean_bv):
        plan = ChaosPlan(events=(
            NetworkPartition(time=mid_loop(clean_bv), seconds=30.0),))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        (recover,) = spans(faulted, "recover")
        assert recover["args"]["kind"] == "netsplit"
        assert recover["dur"] == pytest.approx(30.0)

    def test_msgloss_redelivers_lost_fraction(self, twitter, clean_bv):
        plan = ChaosPlan(events=(
            MessageLoss(time=mid_loop(clean_bv), fraction=0.25),))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        (recover,) = spans(faulted, "recover")
        # at-least-once: a quarter of the interrupted superstep's
        # shuffle traffic goes over the wire again
        interrupted = max(
            (s for s in spans(faulted, "superstep")
             if s["ts"] < recover["ts"]),
            key=lambda s: s["ts"])
        assert faulted.extras["bytes_redelivered"] == pytest.approx(
            interrupted["args"]["bytes_shuffled"] * 0.25)

    def test_blockloss_rereads_and_rereplicates(self, twitter, clean_bv):
        plan = ChaosPlan(events=(
            BlockLoss(time=mid_loop(clean_bv), fraction=0.1),))
        faulted = run("BV", "pagerank", twitter, plan=plan)
        expected = twitter.profile.raw_size_bytes * 0.1
        assert faulted.extras["bytes_rereplicated"] == pytest.approx(expected)

    def test_ckptcorrupt_forces_older_checkpoint(self, twitter, clean_bv):
        crash_at = clean_bv.load_time + clean_bv.execute_time * 0.8
        crash_only = ChaosPlan(events=(MachineCrash(time=crash_at),),
                               checkpoint_interval=10)
        corrupted = ChaosPlan(
            events=(CheckpointCorruption(time=crash_at - 0.001),
                    MachineCrash(time=crash_at)),
            checkpoint_interval=10,
        )
        plain = run("BV", "pagerank", twitter, plan=crash_only)
        fallback = run("BV", "pagerank", twitter, plan=corrupted)
        assert fallback.extras["checkpoints_corrupted"] == 1
        # replaying from the older checkpoint costs strictly more
        assert (fallback.extras["supersteps_replayed"]
                > plain.extras["supersteps_replayed"])
        assert (fallback.extras["recovery_seconds"]
                > plain.extras["recovery_seconds"])


# -- hand-computed recovery accounting (one system per Table 1 row) ----------

class TestRecoveryAccounting:
    def one_crash(self, key, workload, dataset):
        clean = run(key, workload, dataset)
        plan = ChaosPlan(events=(MachineCrash(time=mid_loop(clean)),))
        faulted = run(key, workload, dataset, plan=plan)
        assert faulted.ok
        (recover,) = spans(faulted, "recover")
        assert recover["args"]["seconds"] == pytest.approx(recover["dur"])
        return faulted, recover

    def test_giraph_checkpoint_replay(self, twitter):
        """Checkpoint recovery = reload from HDFS + replay since the
        last checkpoint: dur == 2*hdfs_read + (ts - checkpoint end)."""
        faulted, recover = self.one_crash("G", "pagerank", twitter)
        reads = [s for s in spans(faulted, "hdfs_read")
                 if s["parent"] == recover["id"]]
        (read,) = reads
        checkpoints = [s for s in spans(faulted, "checkpoint")
                       if s["ts"] < recover["ts"]]
        last_ckpt = max(checkpoints, key=lambda s: s["ts"])
        ckpt_end = last_ckpt["ts"] + last_ckpt["dur"]
        # advance(now - ckpt_time) runs after the read, so the re-read
        # seconds are paid twice over the replay distance
        expected = 2 * read["dur"] + (recover["ts"] - ckpt_end)
        assert recover["dur"] == pytest.approx(expected)
        assert faulted.extras["supersteps_replayed"] == (
            recover["args"]["iteration"] - last_ckpt["args"]["iteration"])

    def test_hadoop_reexecutes_one_superstep(self, twitter):
        """Re-execution recovery redoes exactly the iteration the crash
        interrupted: dur == that superstep's own duration."""
        faulted, recover = self.one_crash("HD", "pagerank", twitter)
        preceding = [s for s in spans(faulted, "superstep")
                     if s["ts"] < recover["ts"]]
        interrupted = max(preceding, key=lambda s: s["ts"])
        assert recover["dur"] == pytest.approx(interrupted["dur"])
        assert faulted.extras["supersteps_replayed"] == 1

    def test_vertica_restarts_from_zero(self, twitter):
        """No fault tolerance: the crash repeats everything since the
        loop started — dur == ts - first superstep's start."""
        faulted, recover = self.one_crash("V", "pagerank", twitter)
        first_step = min(spans(faulted, "superstep"), key=lambda s: s["ts"])
        assert recover["dur"] == pytest.approx(
            recover["ts"] - first_step["ts"])
        assert faulted.extras["supersteps_replayed"] == (
            recover["args"]["iteration"])


# -- determinism -------------------------------------------------------------

class TestDeterminism:
    def test_same_plan_byte_identical_journals(self, twitter, clean_bv):
        plan = plan_for("crash", 2, (clean_bv.load_time,
                                     clean_bv.load_time + clean_bv.execute_time),
                        seed=7)
        first = run("BV", "pagerank", twitter, plan=plan)
        second = run("BV", "pagerank", twitter, plan=plan)
        assert (first.observation.dumps()
                == second.observation.dumps())

    def test_seed_moves_the_struck_machine(self, twitter, clean_bv):
        t = mid_loop(clean_bv)
        machines = set()
        for seed in range(8):
            plan = ChaosPlan(events=(MachineCrash(time=t),), seed=seed)
            faulted = run("BV", "pagerank", twitter, plan=plan)
            (fault,) = spans(faulted, "fault")
            machines.add(fault["args"]["machine"])
        assert len(machines) > 1

    def test_pinned_machine_wins_over_seed(self, twitter, clean_bv):
        plan = ChaosPlan(events=(
            MachineCrash(time=mid_loop(clean_bv), machine=5),), seed=99)
        faulted = run("BV", "pagerank", twitter, plan=plan)
        (fault,) = spans(faulted, "fault")
        assert fault["args"]["machine"] == 5

    def test_jobs_parallel_matches_inline(self, twitter, clean_bv, tmp_path):
        from repro.core.runner import ExperimentSpec
        from repro.exec import execute_specs

        plan = plan_for("crash", 1, (clean_bv.load_time,
                                     clean_bv.load_time + clean_bv.execute_time))
        specs = [ExperimentSpec(
            systems=("BV", "V"), workloads=("pagerank",),
            datasets=("twitter",), cluster_sizes=(16,), chaos=plan,
        )]
        inline = execute_specs(specs, jobs=1, cache=None)
        pooled = execute_specs(specs, jobs=2, cache=None)
        for a, b in zip(inline.results, pooled.results):
            assert a.total_time == b.total_time
            assert np.array_equal(a.answer, b.answer)
            assert (a.observation.dumps()
                    == b.observation.dumps())


# -- the exec integration ----------------------------------------------------

class TestExecIntegration:
    def make_task(self, plan):
        from repro.core.runner import ExperimentSpec
        from repro.exec import plan_grid

        spec = ExperimentSpec(
            systems=("BV",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,), chaos=plan,
        )
        (task,) = plan_grid(spec)
        return task

    def test_chaos_is_part_of_the_cache_key(self, twitter):
        from repro.exec import cell_key

        quiet = self.make_task(None)
        crashed = self.make_task(ChaosPlan(events=(MachineCrash(time=5.0),)))
        reseeded = self.make_task(ChaosPlan(events=(MachineCrash(time=5.0),),
                                            seed=1))
        code = "fixed"
        keys = {cell_key(t, twitter, code): t
                for t in (quiet, crashed, reseeded)}
        assert len(keys) == 3

    def test_chaos_survives_the_task_payload(self):
        plan = ChaosPlan(events=(Straggler(time=2.0),), seed=4)
        task = self.make_task(plan)
        assert ChaosPlan.from_dict(task.payload()["chaos"]) == plan
        assert plan.label() in task.cell_id

    def test_cached_chaos_cell_replays_identically(self, tmp_path):
        from repro.core.runner import ExperimentSpec
        from repro.exec import execute_specs

        specs = [ExperimentSpec(
            systems=("BV",), workloads=("pagerank",), datasets=("twitter",),
            cluster_sizes=(16,),
            chaos=ChaosPlan(events=(MachineCrash(time=60.0),)),
        )]
        first = execute_specs(specs, jobs=1, cache=tmp_path)
        second = execute_specs(specs, jobs=1, cache=tmp_path)
        assert second.report.cache_hits == 1
        assert (first.results[0].total_time
                == second.results[0].total_time)
        assert np.array_equal(first.results[0].answer,
                              second.results[0].answer)


# -- the MTTR experiment and the extension finding ---------------------------

class TestRecoveryExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return recovery_cost_experiment(
            systems=("BV", "HD", "V"), faults=("crash", "msgloss"),
            intensities=(1, 2), jobs=1,
        )

    def test_grid_shape_and_mechanisms(self, report):
        assert len(report.cells) == 3 * 2 * 2
        mechanisms = {c.mechanism for c in report.cells}
        assert mechanisms == {"checkpoint", "reexecution", "none"}

    def test_every_cell_exact(self, report):
        assert report.all_exact
        assert report.mismatches() == []
        for cell in report.cells:
            assert cell.completed

    def test_mttr_and_overhead_positive_for_crashes(self, report):
        for cell in report.cells:
            if cell.fault != "crash":
                continue
            assert cell.mttr > 0
            assert cell.overhead_seconds > 0
            assert cell.recovery_seconds == pytest.approx(
                cell.mttr * cell.intensity)

    def test_restart_from_zero_dominates(self, report):
        by = {(c.system, c.fault, c.intensity): c for c in report.cells}
        assert (by[("V", "crash", 1)].mttr
                > by[("BV", "crash", 1)].mttr)
        assert (by[("V", "crash", 1)].mttr
                > by[("HD", "crash", 1)].mttr)
        # the second crash repeats even more completed work
        assert (by[("V", "crash", 2)].overhead_seconds
                > 1.5 * by[("V", "crash", 1)].overhead_seconds)


def test_extension_finding_supported():
    from repro.core.findings import EXTENSION_FINDINGS, verify_all_findings

    (check,) = [c for c in EXTENSION_FINDINGS
                if c.__name__ == "_chaos_recovery_tradeoff"]
    finding = check()
    assert finding.supported, finding.evidence
    assert finding.evidence["faulted_answers_exact"] is True
    # the default verification stays the paper's own findings
    assert len(verify_all_findings.__defaults__) == 1


# -- the census: every engine honours a fault plan ---------------------------

#: engines whose partitioner needs dataset structure: coordinates, URLs
_CENSUS_DATASETS = {"BB-coord": "wrn", "BB-url": "uk0705"}


@pytest.mark.parametrize("workload_name", WORKLOAD_NAMES + EXTENSION_WORKLOADS)
@pytest.mark.parametrize("key", ENGINE_KEYS)
def test_chaos_census_every_engine_injects_a_crash(key, workload_name):
    """One crash inside the clean run's execute window reaches every
    engine's superstep loop (block-centric rounds included), and the
    single-thread baseline, which has no cluster, refuses the plan."""
    dataset = load_dataset(_CENSUS_DATASETS.get(key, "twitter"), "tiny")
    if key == "ST":
        plan = ChaosPlan(events=(MachineCrash(time=1.0),))
        with pytest.raises(ValueError, match="fault plan"):
            run_cell(key, workload_name, dataset, 16, plan)
        return
    clean = run_cell(key, workload_name, dataset, 16)
    window = (clean.load_time, clean.load_time + clean.execute_time)
    faulted = run_cell(key, workload_name, dataset, 16,
                       plan_for("crash", 1, window))
    assert spans(faulted, "fault"), f"{key} {workload_name} dropped the plan"
    assert faulted.extras["faults_injected"] >= 1
    assert faulted.ok == clean.ok
    if clean.ok:
        assert np.array_equal(faulted.answer, clean.answer)
