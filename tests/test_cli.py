"""Tests for the command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.analysis import write_log
from repro.cli import _trace_filename, build_parser, main
from repro.engines.base import RunResult, result_to_record


def _logged_run(system, execute_time):
    return RunResult(system=system, workload="pagerank", dataset="twitter",
                     cluster_size=16, load_time=1.0,
                     execute_time=execute_time, iterations=3)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "BV", "pagerank", "twitter", "-m", "32"]
        )
        assert args.system == "BV"
        assert args.machines == 32

    def test_invalid_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NEO4J", "pagerank", "twitter"])

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "BV", "bfs", "twitter"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out and "clueweb" in out
        assert "stands in for" in out

    def test_run_success(self, capsys):
        assert main(["run", "BV", "khop", "twitter", "-m", "16",
                     "--size", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "total s" in out

    def test_run_failure_exit_code(self, capsys):
        # GraphLab random cannot load WRN at 16 (§5.2): exit code 1
        assert main(["run", "GL-S-R-I", "pagerank", "wrn", "-m", "16",
                     "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "OOM" in out

    def test_run_second_call_hits_the_cache(self, capsys, tmp_path):
        cmd = ["run", "BV", "khop", "twitter", "-m", "16", "--size", "tiny",
               "--cache-dir", str(tmp_path / "cache")]
        assert main(cmd) == 0
        assert "result cache" not in capsys.readouterr().out
        assert main(cmd) == 0
        assert "cell served from the result cache" in capsys.readouterr().out

    def test_grid_and_log(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        assert main([
            "grid", "khop", "--datasets", "twitter", "--machines", "16",
            "--size", "tiny", "--log", str(log), "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "khop results" in out
        assert "exec:" in out
        assert log.exists()
        assert len(log.read_text().splitlines()) == 9   # GRID_SYSTEMS

    def test_grid_warm_cache_and_trace(self, capsys, tmp_path):
        cmd = ["grid", "khop", "--datasets", "twitter", "--machines", "16",
               "--size", "tiny", "--cache-dir", str(tmp_path / "cache"),
               "--trace", str(tmp_path / "traces")]
        assert main(cmd) == 0
        assert "9 executed" in capsys.readouterr().out
        assert main(cmd + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "9 cached · 0 executed" in out
        journals = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert "_scheduler.jsonl" in journals
        assert len(journals) == 10  # 9 cells + the scheduler's own journal

    def test_report_from_log(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        main(["grid", "khop", "--datasets", "twitter", "--machines", "16",
              "--size", "tiny", "--log", str(log), "--no-cache"])
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "# Experiment report" in out
        assert "Best system per column" in out

    def test_report_diff_of_two_runs_logs(self, capsys, tmp_path):
        before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
        write_log([_logged_run("BV", 10.0), _logged_run("G", 20.0)], before)
        write_log([_logged_run("BV", 10.0), _logged_run("G", 30.0)], after)
        assert main(["report", "--diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert "compared 2 runs" in out
        assert "G pagerank/twitter@16 · total seconds: 21.0 -> 31.0" in out

    @pytest.mark.parametrize("coordinate", ["dataset", "cluster_size"])
    @pytest.mark.parametrize("diff", [False, True])
    def test_runs_log_line_without_a_coordinate(self, capsys, tmp_path,
                                                coordinate, diff):
        good = tmp_path / "good.jsonl"
        write_log([_logged_run("BV", 10.0)], good)
        record = result_to_record(_logged_run("G", 20.0))
        del record[coordinate]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good.read_text() + "\n" + json.dumps(record) + "\n")
        argv = ["report", "--diff", str(good), str(bad)] if diff else [
            "report", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: run record lacks '{coordinate}'" in err

    @pytest.mark.parametrize("field, value", [("failure", "BOOM"),
                                              ("extras", [1])])
    def test_runs_log_line_with_a_malformed_field(self, capsys, tmp_path,
                                                  field, value):
        record = result_to_record(_logged_run("G", 20.0))
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["report", str(bad)]) == 2
        assert f"{bad}:1: not a run record" in capsys.readouterr().err

    def test_report_to_file(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        main(["grid", "khop", "--datasets", "twitter", "--machines", "16",
              "--size", "tiny", "--log", str(log), "--no-cache"])
        output = tmp_path / "report.md"
        assert main(["report", str(log), "-o", str(output)]) == 0
        assert output.exists()
        assert "### khop" in output.read_text()

    def test_cost(self, capsys):
        assert main(["cost", "--datasets", "twitter",
                     "--workloads", "khop"]) == 0
        out = capsys.readouterr().out
        assert "COST" in out

    def test_run_extension_workload(self, capsys):
        assert main(["run", "BV", "cdlp", "twitter", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "cdlp" in out

    def test_weak(self, capsys):
        assert main(["weak", "BV", "khop", "twitter",
                     "--machines", "16", "32"]) == 0
        out = capsys.readouterr().out
        assert "Weak scaling" in out
        assert "efficiency" in out

    def test_elastic_gates_on_bit_equality(self, capsys, tmp_path):
        assert main([
            "elastic", "--systems", "BV", "V", "--size", "tiny",
            "--directions", "out", "--timings", "0.5", "--magnitudes", "2",
            "--trace", str(tmp_path / "el"), "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "rescale seconds" in out
        assert "bit-exact" in out
        assert "checkpoint" in out and "none" in out
        # one clean reference + one rescaled journal per system
        journals = list((tmp_path / "el").glob("*.jsonl"))
        assert len(journals) == 4


class TestTraceFilename:
    def test_sanitized_and_collision_free(self):
        # 'BB*' and 'BB-' sanitize to the same text; the digest of the
        # raw coordinates keeps their journal paths distinct
        star = SimpleNamespace(system="BB*", workload="pagerank",
                               dataset="twitter", cluster_size=16)
        dash = SimpleNamespace(system="BB-", workload="pagerank",
                               dataset="twitter", cluster_size=16)
        a, b = _trace_filename(star), _trace_filename(dash)
        assert a != b
        for name in (a, b):
            assert name.endswith(".jsonl")
            assert "*" not in name and "/" not in name

    def test_stable_across_calls(self):
        result = SimpleNamespace(system="GL-S-R-I", workload="wcc",
                                 dataset="uk0705", cluster_size=128)
        assert _trace_filename(result) == _trace_filename(result)
