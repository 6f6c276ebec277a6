"""Tests for the run-record codec, tables, and ASCII charts."""

import pytest

from repro.analysis import (
    bar_chart,
    histogram,
    line_chart,
    render_grid,
    render_table,
)
from repro.cluster import FailureKind
from repro.core import ResultGrid
from repro.engines.base import RunResult, record_to_result, result_to_record


def make_result(**kw):
    base = dict(
        system="BV", workload="pagerank", dataset="twitter", cluster_size=16,
        load_time=10.0, execute_time=90.0, save_time=1.0, overhead_time=2.0,
        iterations=30, network_bytes=1e9, peak_memory_bytes=2e9,
        total_memory_bytes=3e10, per_iteration_time=3.0,
    )
    base.update(kw)
    result = RunResult(**base)
    result.metrics.gauge("replication_factor").set(5.5)
    return result


class TestLogs:
    """The run record: one JSON object per run (cache payloads, workers)."""

    def test_record_is_json_safe(self):
        import json

        original = make_result(failure=FailureKind.TIMEOUT)
        text = json.dumps(result_to_record(original))
        back = record_to_result(json.loads(text))
        assert back.failure is FailureKind.TIMEOUT and not back.ok
        assert back.total_time == pytest.approx(original.total_time)
        assert back.extras["replication_factor"] == 5.5

    def test_answers_not_serialized(self):
        import numpy as np

        record = result_to_record(make_result(answer=np.arange(5)))
        assert "answer" not in record


class TestTables:
    def test_render_basic(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[-1]

    def test_title(self):
        text = render_table([{"a": 1}], title="Table 9")
        assert text.startswith("Table 9")

    def test_empty_rows(self):
        assert "(no rows)" in render_table([])

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_render_grid_cells(self):
        grid = ResultGrid()
        grid.put(make_result())
        text = render_grid(
            grid, "pagerank", datasets=("twitter",), cluster_sizes=(16, 32),
            systems=("BV", "G"),
        )
        assert "103" in text      # BV's total
        assert "-" in text        # missing G cell


class TestCharts:
    def test_bar_chart_scales(self):
        text = bar_chart({"BV": 10.0, "HD": 100.0})
        bv_line, hd_line = text.splitlines()
        assert hd_line.count("█") > bv_line.count("█")

    def test_bar_chart_failed_cells(self):
        text = bar_chart({"BV": 10.0, "S": None})
        assert "(failed)" in text

    def test_bar_chart_title_and_unit(self):
        text = bar_chart({"a": 1.0}, title="Fig 1", unit="GB")
        assert text.startswith("Fig 1")
        assert "GB" in text

    def test_line_chart_draws_series(self):
        text = line_chart({"mem": [(0, 1.0), (10, 5.0)]}, width=20, height=5)
        assert "*" in text
        assert "mem" in text

    def test_line_chart_empty(self):
        assert "(no data)" in line_chart({})

    def test_histogram_counts(self):
        text = histogram([1, 1, 1, 10], bins=2, width=10)
        lines = text.splitlines()
        assert "3" in lines[0]
        assert "1" in lines[1]

    def test_histogram_empty(self):
        assert "(no data)" in histogram([])
