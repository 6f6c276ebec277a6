"""Elastic rescaling: mid-run rescales, priced per Table 1 mechanism.

Covers the two rescale events and their plans, hand-checked rescale
accounting for one system per recovery mechanism (checkpoint replay,
migrate-only re-execution, restart-from-zero), the high-water-mark
billing rule, the rescale-tolerance grid (every completed rescaled run
bit-equal to its fixed-size reference), and the elasticity benchmark
record.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from repro.chaos import ChaosPlan, event_from_dict
from repro.chaos.events import ScaleIn, ScaleOut
from repro.cluster import ClusterSpec
from repro.cluster.tracker import ResourceTracker
from repro.obs import Tracer
from repro.datasets import load_dataset
from repro.chaos.experiment import (
    DIRECTIONS,
    ChaosReport as ElasticReport,
    elasticity_experiment,
    rescale_plan,
)
from repro.engines import make_engine, workload_for


def run(key, workload_name, dataset, machines=16, plan=None):
    engine = make_engine(key)
    workload = workload_for(engine, workload_name, dataset)
    return engine.run(dataset, workload, ClusterSpec(machines, fault_plan=plan))


@pytest.fixture(scope="module")
def twitter():
    return load_dataset("twitter", "tiny")


@pytest.fixture(scope="module")
def clean(twitter):
    return {key: run(key, "pagerank", twitter) for key in ("BV", "HD", "V")}


# -- events and plans --------------------------------------------------------


class TestRescaleEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOut(n_machines=0)
        with pytest.raises(ValueError):
            ScaleOut(at_superstep=0)
        with pytest.raises(ValueError):
            ScaleIn(machines=0)
        with pytest.raises(ValueError):
            ScaleIn(at_superstep=0)

    def test_round_trip_and_superstep_trigger(self):
        for event in (ScaleOut(n_machines=4, at_superstep=3),
                      ScaleIn(machines=2, at_superstep=5)):
            clone = event_from_dict(event.to_dict())
            assert clone == event
            # rescales fire on superstep boundaries, not at clock times
            assert clone.trigger == "superstep"

    def test_rescale_plan_builds_one_event(self):
        plan = rescale_plan("out", 4, 3, seed=7, checkpoint_interval=2)
        assert plan.events == (ScaleOut(n_machines=4, at_superstep=3),)
        assert plan.seed == 7 and plan.checkpoint_interval == 2
        plan = rescale_plan("in", 2, 5)
        assert plan.events == (ScaleIn(machines=2, at_superstep=5),)
        with pytest.raises(KeyError):
            rescale_plan("sideways", 1, 1)

    def test_plan_round_trips_through_the_cache_key_form(self):
        plan = rescale_plan("in", 2, 4, seed=3)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan


# -- billing -----------------------------------------------------------------


def test_tracker_record_rescale_is_a_high_water_mark():
    tracker = ResourceTracker(16, Tracer())
    tracker.record_rescale(20)
    assert tracker.num_machines == 20
    tracker.record_rescale(4)   # scale-in never refunds billed capacity
    assert tracker.num_machines == 20
    with pytest.raises(ValueError):
        tracker.record_rescale(0)


# -- one system per Table 1 mechanism ----------------------------------------


class TestRescaleAccounting:
    def rescaled(self, key, twitter, clean, direction="out", magnitude=4):
        reference = clean[key]
        at = max(1, reference.iterations // 2)
        plan = rescale_plan(direction, magnitude, at, checkpoint_interval=10)
        return run(key, "pagerank", twitter, plan=plan)

    def test_answers_survive_every_mechanism(self, twitter, clean):
        for key in ("BV", "HD", "V"):
            result = self.rescaled(key, twitter, clean)
            assert result.ok
            assert result.extras.get("rescales") == 1
            assert np.array_equal(result.answer, clean[key].answer)

    def test_checkpoint_replays_onto_the_new_topology(self, twitter, clean):
        # land off the checkpoint boundary so there is progress to replay
        at = max(1, clean["BV"].iterations // 2 - 1)
        assert at % 10 != 0
        result = run("BV", "pagerank", twitter,
                     plan=rescale_plan("out", 4, at, checkpoint_interval=10))
        # reload from HDFS + replay since the checkpoint: real time billed
        assert result.extras.get("recovery_seconds", 0.0) > 0.0
        assert result.extras.get("supersteps_replayed", 0.0) >= 1.0

    def test_reexecution_migrates_only_the_moved_shards(self, twitter, clean):
        result = self.rescaled("HD", twitter, clean)
        # one iteration redone, shards shipped — far below a full replay
        assert result.extras.get("supersteps_replayed") == 1.0
        assert 0.0 < result.extras.get("recovery_seconds", 0.0)

    def test_restart_bills_all_completed_progress(self, twitter, clean):
        early = run("V", "pagerank", twitter,
                    plan=rescale_plan("out", 4, 1))
        late = run("V", "pagerank", twitter,
                   plan=rescale_plan("out", 4, clean["V"].iterations - 1))
        assert early.ok and late.ok
        # restart-from-zero repeats everything done so far, so the later
        # the rescale, the bigger the bill
        assert (late.extras["recovery_seconds"]
                > early.extras["recovery_seconds"] > 0.0)

    def test_scale_out_bills_the_widest_fleet(self, twitter, clean):
        result = self.rescaled("HD", twitter, clean, magnitude=8)
        cost = result.observation.journal().cost()
        ref_cost = clean["HD"].observation.journal().cost()
        assert cost["machines"] == 24  # 16 provisioned + 8 joined
        assert cost["dollars"] > ref_cost["dollars"]

    def test_scale_in_clamps_at_one_worker(self, twitter):
        # removing more machines than exist clamps at one worker; the
        # whole graph then lands on that machine, so the memory model —
        # not a crash — ends the run (§5's OOM cell, elasticized)
        result = run("BV", "pagerank", twitter,
                     plan=rescale_plan("in", 100, 1))
        assert not result.ok
        assert str(result.failure) == "OOM"
        assert result.extras.get("rescales") == 1


# -- the rescale-tolerance grid ----------------------------------------------


class TestElasticityExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return elasticity_experiment(
            systems=("BV", "HD", "V"), dataset_size="tiny",
            timings=(0.5,), magnitudes=(2,),
        )

    def test_grid_shape_and_mechanisms(self, report):
        assert isinstance(report, ElasticReport)
        # 3 systems x 2 directions x 1 timing x 1 magnitude
        assert len(report.cells) == 6
        mechanisms = {c.system: c.mechanism for c in report.cells}
        assert mechanisms == {
            "BV": "checkpoint", "HD": "reexecution", "V": "none",
        }
        for cell in report.cells:
            assert cell.direction in DIRECTIONS
            assert 1 <= cell.at_superstep < report.clean[cell.system].iterations

    def test_every_completed_cell_is_bit_equal(self, report):
        assert report.all_exact
        assert report.mismatches() == []
        for cell in report.cells:
            assert cell.tolerated
            assert cell.rescales == 1

    def test_tolerance_and_dollars_by_mechanism(self, report):
        tolerance = report.tolerance_by_mechanism()
        assert tolerance == {
            "checkpoint": (2, 2), "reexecution": (2, 2), "none": (2, 2),
        }
        dollars = report.dollars_by_mechanism()
        assert set(dollars) == {"checkpoint", "reexecution", "none"}

    def test_restart_dominates_the_rescale_bill(self, report):
        by_mechanism = {}
        for cell in report.cells:
            by_mechanism.setdefault(cell.mechanism, []).append(
                cell.rescale_seconds)
        mean = {m: sum(v) / len(v) for m, v in by_mechanism.items()}
        assert mean["reexecution"] < mean["checkpoint"] < mean["none"]

    def test_cell_text_shows_cost_and_overhead(self, report):
        for cell in report.cells:
            text = cell.cell_text()
            assert "(" in text and text.endswith(")")

    def test_validation(self):
        with pytest.raises(KeyError):
            elasticity_experiment(systems=("BV",), directions=("sideways",))
        with pytest.raises(ValueError):
            elasticity_experiment(systems=("BV",), timings=(0.0,))
        with pytest.raises(ValueError):
            elasticity_experiment(systems=("BV",), timings=(1.0,))
        with pytest.raises(ValueError):
            elasticity_experiment(systems=("BV",), magnitudes=(0,))

    def test_deterministic_across_jobs_and_cache(self, report, tmp_path):
        again = elasticity_experiment(
            systems=("BV", "HD", "V"), dataset_size="tiny",
            timings=(0.5,), magnitudes=(2,),
            jobs=2, cache_dir=tmp_path / "cache",
        )
        assert [c.cell_text() for c in again.cells] \
            == [c.cell_text() for c in report.cells]
        assert again.all_exact


def test_extension_finding_elastic_rescale_tolerance():
    from repro.core.findings import EXTENSION_FINDINGS

    (check,) = [c for c in EXTENSION_FINDINGS
                if c.__name__ == "_elastic_rescale_tolerance"]
    finding = check()
    assert finding.supported, finding.evidence
    assert finding.evidence["rescaled_answers_exact"] is True
    bill = finding.evidence["rescale_seconds_by_mechanism"]
    assert bill["reexecution"] < bill["checkpoint"] < bill["none"]


# -- the benchmark record ----------------------------------------------------


def test_bench_elastic_record_is_gated_and_deterministic(tmp_path):
    from repro.chaos.bench import run_bench

    output = tmp_path / "BENCH_elastic.json"
    history = tmp_path / "history.jsonl"
    record = run_bench(output=str(output), history=str(history))
    assert record["bit_equal"] is True
    assert record["completed"] == record["cells"] == 16
    written = json.loads(output.read_text())
    assert written["bench"] == "elastic"
    assert len(history.read_text().splitlines()) == 1

    seconds = record["rescale_seconds_by_mechanism"]
    assert set(seconds) == {"checkpoint", "reexecution", "none"}
    assert seconds["reexecution"] < seconds["checkpoint"] < seconds["none"]
    for counts in record["tolerance"].values():
        assert counts["tolerated"] == counts["total"]

    # simulated quantities are pure functions of the seed; only
    # host_seconds may differ between runs
    again = run_bench(output=str(tmp_path / "again.json"), history="")
    for field in ("cells", "completed", "bit_equal",
                  "rescale_seconds_by_mechanism", "dollars_per_rescale",
                  "mean_overhead_seconds", "tolerance"):
        assert again[field] == record[field]


# -- the report over an elastic trace ----------------------------------------


@pytest.fixture(scope="module")
def elastic_report(tmp_path_factory):
    """``repro report`` over an elastic trace of BV and V.

    A scale-out bills the run at its widest fleet (18 machines), a size
    no fixed cluster ran at.
    """
    from repro.cli import main

    trace = tmp_path_factory.mktemp("elastic") / "el"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["elastic", "--systems", "BV", "V", "--size", "tiny",
                     "--directions", "out", "--timings", "0.5",
                     "--magnitudes", "2", "--no-cache",
                     "--trace", str(trace)]) == 0
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["report", str(trace)]) == 0
    return out.getvalue()


def section(report, title):
    """The body of one ``### title`` section of a report."""
    return report.split(f"### {title}\n\n")[1].split("\n\n")[0]


def test_report_keeps_rescaled_runs_off_the_scaling_curves(elastic_report):
    # the rescaled run stays in the result table but is no point on a
    # §5.12 scaling curve
    assert "| twitter | BV (rescaled, 18 mach) | - |" in elastic_report
    assert section(elastic_report, "Strong-scaling classification (§5.12)") == (
        "- pagerank / twitter: BV: insufficient-data, V: insufficient-data")


def test_rescaled_runs_get_no_machine_count_column(elastic_report):
    # no fixed 18-machine cluster ran, so no "18 mach" column: the
    # rescaled runs sit in rows of their own under "rescaled"
    table = section(elastic_report, "pagerank").splitlines()
    assert table[0] == "| dataset | system | 16 mach | rescaled |"
    assert table[2:] == [
        "| twitter | BV | 153 | - |",
        "| twitter | BV (rescaled, 18 mach) | - | 167 |",
        "| twitter | V | 724 | - |",
        "| twitter | V (rescaled, 18 mach) | - | 1051 |",
    ]


def test_rescaled_runs_win_no_column(elastic_report):
    # only fixed-size runs compete: no 18-machine cluster ran
    winners = section(elastic_report, "Best system per column (end-to-end)")
    rows = winners.splitlines()[2:]  # below the header and its rule
    assert [row.split(" | ")[2] for row in rows] == ["16"]
