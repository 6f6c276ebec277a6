"""Tests for the weak-scaling extension and the report's grid sections."""

import pytest

from repro.core.weak_scaling import (
    weak_efficiency,
    weak_scaling_dataset,
    weak_scaling_experiment,
)
from repro.obs.report import PerfSource, RunRow, render_report


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


def _row(system="BV", machines=16, seconds=11.0, status="ok"):
    row = RunRow(key="", system=system, workload="pagerank",
                 dataset="twitter", machines=machines, status=status,
                 total_seconds=seconds, iterations=3, cost=None)
    row.key = row.coordinates
    return row


def _table(text, heading):
    """The body rows of the Markdown table under ``heading``."""
    table = text.split(heading + "\n\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]


class TestGridReport:
    def make_rows(self):
        return [
            _row(),
            _row(machines=32, seconds=7.0),
            _row(system="HD", seconds=101.0),
            _row(system="HD", machines=32, seconds=0.0, status="TO"),
        ]

    def report(self, rows):
        return render_report([PerfSource(label="demo", runs=rows)])

    def test_report_sections(self):
        text = self.report(self.make_rows())
        assert text.startswith("# Perf & cost report\n\n## demo\n")
        assert "### pagerank" in text
        assert "### Failures (1 of 4 runs)" in text
        assert "**TO**: 1" in text
        assert "Best system per column" in text
        assert "Strong-scaling classification" in text

    def test_winner_identified(self):
        text = self.report(self.make_rows())
        # BV beats HD at 16 machines; HD timed out at 32
        assert _table(text, "### Best system per column (end-to-end)") == [
            ["pagerank", "twitter", "16", "BV", "11.0"],
            ["pagerank", "twitter", "32", "BV", "7.0"],
        ]

    def test_scaling_labels(self):
        text = self.report(self.make_rows())
        assert ("- pagerank / twitter: BV: steady, HD: insufficient-data"
                in text)

    def test_empty_grid(self):
        text = self.report([])
        assert "### Failures" not in text and "### pagerank" not in text

    def test_cell_codes_render(self):
        assert _table(self.report(self.make_rows()), "### pagerank") == [
            ["twitter", "BV", "11", "7"],
            ["twitter", "HD", "101", "TO"],
        ]
