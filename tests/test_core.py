"""Tests for the experiment core: runner, COST, tuning, scalability."""

import pytest

from repro.cluster import FailureKind
from repro.core import (
    ExperimentSpec,
    ResultGrid,
    cost_factor,
    paper_grid,
    run_cell,
    run_grid,
)
from repro.core.scalability import scaling_classification, scaling_curves
from repro.core.tuning import (
    graphlab_core_study,
    graphx_partition_sweep,
    recommended_graphx_partitions,
)
from repro.datasets import load_dataset
from repro.engines.base import RunResult


@pytest.fixture(scope="module")
def mini_grid():
    spec = ExperimentSpec(
        systems=("BV", "G"),
        workloads=("khop",),
        datasets=("twitter",),
        cluster_sizes=(16, 32),
        dataset_size="tiny",
    )
    return run_grid(spec)


class TestRunner:
    def test_run_cell(self):
        d = load_dataset("twitter", "tiny")
        result = run_cell("BV", "khop", d, 16)
        assert result.ok
        assert result.system == "BV"
        assert result.cluster_size == 16

    def test_grid_has_all_cells(self, mini_grid):
        assert len(mini_grid) == 4
        assert mini_grid.get("BV", "khop", "twitter", 16) is not None
        assert mini_grid.get("G", "khop", "twitter", 32) is not None

    def test_missing_cell_is_none(self, mini_grid):
        assert mini_grid.get("HD", "khop", "twitter", 16) is None
        assert mini_grid.cell_text("HD", "khop", "twitter", 16) == "-"

    def test_cell_text_seconds(self, mini_grid):
        text = mini_grid.cell_text("BV", "khop", "twitter", 16)
        assert text.replace(".", "").isdigit()

    def test_completed_and_failures_partition(self, mini_grid):
        assert len(mini_grid.completed()) + len(mini_grid.failures()) == 4

    def test_best_system(self, mini_grid):
        best = mini_grid.best_system("khop", "twitter", 16)
        assert best is not None
        assert best.total_time <= min(
            r.total_time for r in mini_grid.completed()
            if r.cluster_size == 16
        )

    def test_best_system_none_when_empty(self):
        assert ResultGrid().best_system("wcc", "twitter", 16) is None

    def test_paper_grid_lineup(self):
        grid = paper_grid(
            "khop", datasets=("twitter",), cluster_sizes=(16,),
            dataset_size="tiny",
        )
        assert len(grid) == 9   # GRID_SYSTEMS


class TestCost:
    def test_cost_factor(self):
        assert cost_factor(100.0, 50.0) == 2.0

    def test_cost_factor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cost_factor(1.0, 0.0)

    def test_rows_have_parallel_winner(self):
        from repro.core import cost_experiment

        rows = cost_experiment(
            datasets=("twitter",), workloads=("khop",),
            systems=("BV", "G"), dataset_size="tiny",
        )
        assert len(rows) == 1
        assert rows[0].best_parallel_system in ("BV", "G")
        assert rows[0].cost is not None


class TestTuning:
    def test_core_study_shape(self):
        results = graphlab_core_study(dataset_name="twitter", dataset_size="tiny")
        assert len(results) == 4
        modes = {(r.mode, r.compute_cores) for r in results}
        assert modes == {("sync", 2), ("sync", 4), ("async", 2), ("async", 4)}

    def test_partition_sweep(self):
        results = graphx_partition_sweep(
            "twitter", 16, (32, 128), dataset_size="tiny"
        )
        assert set(results) == {32, 128}
        assert all(r.ok for r in results.values())

    def test_recommended_partitions_capped(self):
        d = load_dataset("uk0705", "small")
        rec = recommended_graphx_partitions(d, 16)
        assert rec <= 2 * 15 * 4


class TestScalability:
    def _grid_with(self, times):
        grid = ResultGrid()
        for size, t in times.items():
            grid.put(RunResult(
                system="X", workload="pagerank", dataset="d",
                cluster_size=size, execute_time=t,
            ))
        return grid

    def test_curves_extracted(self):
        grid = self._grid_with({16: 100.0, 32: 60.0, 64: 40.0})
        curves = scaling_curves(grid, "pagerank", "d", cluster_sizes=(16, 32, 64))
        assert len(curves) == 1
        assert curves[0].points == ((16, 100.0), (32, 60.0), (64, 40.0))

    def test_speedups_relative_to_base(self):
        grid = self._grid_with({16: 100.0, 64: 25.0})
        curve = scaling_curves(grid, "pagerank", "d", cluster_sizes=(16, 64))[0]
        assert curve.speedups()[64] == pytest.approx(4.0)

    def test_steady_classification(self):
        steady = self._grid_with({16: 100.0, 32: 70.0, 64: 50.0})
        curve = scaling_curves(steady, "pagerank", "d", cluster_sizes=(16, 32, 64))[0]
        assert scaling_classification([curve]) == {"X": "steady"}

    def test_irregular_classification(self):
        bumpy = self._grid_with({16: 100.0, 32: 70.0, 64: 95.0})
        curve = scaling_curves(bumpy, "pagerank", "d", cluster_sizes=(16, 32, 64))[0]
        assert scaling_classification([curve]) == {"X": "irregular"}

    def test_failed_cells_excluded(self):
        grid = self._grid_with({16: 100.0})
        grid.put(RunResult(
            system="X", workload="pagerank", dataset="d", cluster_size=32,
            failure=FailureKind.OOM,
        ))
        curve = scaling_curves(grid, "pagerank", "d", cluster_sizes=(16, 32))[0]
        assert curve.points == ((16, 100.0),)
