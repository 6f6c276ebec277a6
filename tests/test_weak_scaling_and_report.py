"""Tests for the weak-scaling extension and the report generator."""

import pytest

from repro.analysis.report import grid_report
from repro.cluster import FailureKind
from repro.core import ResultGrid
from repro.core.weak_scaling import (
    weak_efficiency,
    weak_scaling_dataset,
    weak_scaling_experiment,
)
from repro.engines.base import RunResult


class TestWeakScalingDatasets:
    def test_profile_scales_with_machines(self):
        d16 = weak_scaling_dataset("twitter", 16)
        d128 = weak_scaling_dataset("twitter", 128)
        assert d128.profile.num_edges == pytest.approx(
            8 * d16.profile.num_edges, rel=0.01
        )

    def test_full_scale_matches_paper(self):
        from repro.datasets import PAPER_PROFILES

        d = weak_scaling_dataset("uk0705", 128)
        assert d.profile.num_edges == PAPER_PROFILES["uk0705"].num_edges

    def test_synthetic_graph_grows_too(self):
        small = weak_scaling_dataset("twitter", 16).graph.num_vertices
        large = weak_scaling_dataset("twitter", 128).graph.num_vertices
        assert large > 3 * small

    def test_road_diameter_scales(self):
        d16 = weak_scaling_dataset("wrn", 16)
        d128 = weak_scaling_dataset("wrn", 128)
        assert d128.profile.diameter > d16.profile.diameter

    def test_registered_and_resolvable(self):
        from repro.datasets import load_dataset

        d = weak_scaling_dataset("twitter", 32)
        assert load_dataset(d.name, "weak") is d

    def test_memoized(self):
        assert weak_scaling_dataset("twitter", 16) is weak_scaling_dataset(
            "twitter", 16
        )

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            weak_scaling_dataset("facebook", 16)

    def test_too_few_machines(self):
        with pytest.raises(ValueError):
            weak_scaling_dataset("twitter", 1)


class TestWeakScalingExperiment:
    def test_points_cover_sizes(self):
        points = weak_scaling_experiment("BV", "khop", "twitter",
                                         cluster_sizes=(16, 32))
        assert [p.machines for p in points] == [16, 32]
        assert all(p.result.ok for p in points)

    def test_efficiency_baseline_is_one(self):
        points = weak_scaling_experiment("BV", "pagerank", "twitter",
                                         cluster_sizes=(16, 32, 64))
        eff = dict(weak_efficiency(points))
        assert eff[16] == pytest.approx(1.0)
        # weak efficiency degrades, but not to nothing
        assert 0.15 < eff[64] <= 1.2

    def test_diameter_bound_workload_degrades_hardest(self):
        """Growing a road network grows its diameter: WCC's weak scaling
        is far worse than PageRank's — the paper's §5.8 theme, extended."""
        wcc = dict(weak_efficiency(
            weak_scaling_experiment("BV", "wcc", "wrn", cluster_sizes=(16, 64))
        ))
        pr = dict(weak_efficiency(
            weak_scaling_experiment("BV", "pagerank", "wrn",
                                    cluster_sizes=(16, 64))
        ))
        assert wcc[64] < 0.6 * pr[64]

    def test_failed_points_excluded_from_efficiency(self):
        points = weak_scaling_experiment("GL-S-R-I", "pagerank", "wrn",
                                         cluster_sizes=(16, 32))
        eff = dict(weak_efficiency(points))
        assert all(m in (16, 32) for m in eff)


def _result(**kw):
    base = dict(system="BV", workload="pagerank", dataset="twitter",
                cluster_size=16, execute_time=10.0, load_time=1.0)
    base.update(kw)
    return RunResult(**base)


class TestGridReport:
    def make_grid(self):
        grid = ResultGrid()
        grid.put(_result())
        grid.put(_result(cluster_size=32, execute_time=6.0))
        grid.put(_result(system="HD", execute_time=100.0))
        grid.put(_result(system="HD", cluster_size=32,
                         failure=FailureKind.TIMEOUT))
        return grid

    def test_report_sections(self):
        text = grid_report(self.make_grid(), title="demo")
        assert text.startswith("# demo")
        assert "### pagerank" in text
        assert "### Failures" in text
        assert "**TO**: 1" in text
        assert "Best system per column" in text
        assert "Strong-scaling classification" in text

    def test_winner_identified(self):
        text = grid_report(self.make_grid())
        # BV beats HD at 16 machines
        assert "BV" in text.split("Best system per column")[1]

    def test_scaling_labels(self):
        text = grid_report(self.make_grid())
        assert "BV: steady" in text

    def test_empty_grid(self):
        assert "(no runs)" in grid_report(ResultGrid())

    def test_cell_codes_render(self):
        text = grid_report(self.make_grid())
        assert "TO" in text
