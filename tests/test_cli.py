"""Tests for the command-line interface."""

import json
import shutil
from types import SimpleNamespace

import pytest

from repro.cli import _trace_filename, build_parser, main
from repro.core.runner import ExperimentSpec
from repro.engines import systems_for_workload
from repro.exec import execute_grid


@pytest.fixture(scope="module")
def khop_traces(tmp_path_factory):
    """The 18-cell khop grid traced by ``repro grid``, and the same grid
    run in memory (BB fails MPI and GL-S-R-I fails OOM on wrn@16)."""
    trace_dir = tmp_path_factory.mktemp("khop") / "traces"
    assert main(["grid", "khop", "--datasets", "twitter", "wrn",
                 "--machines", "16", "--size", "tiny", "--no-cache",
                 "--trace", str(trace_dir)]) == 0
    spec = ExperimentSpec(
        systems=systems_for_workload("khop"), workloads=("khop",),
        datasets=("twitter", "wrn"), cluster_sizes=(16,),
        dataset_size="tiny",
    )
    return trace_dir, execute_grid(spec, jobs=1).grid


def _md_table(text, heading):
    """The cells of the Markdown table under ``heading``, header first."""
    lines = text.split(heading + "\n", 1)[1].splitlines()
    rows = []
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        if not line.startswith("|---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _journal_dirs(tmp_path, mutate):
    """A good trace dir holding one run journal, and a bad copy that adds
    the same journal rewritten by ``mutate(lines)``; returns both dirs and
    the rewritten journal's path."""
    good = tmp_path / "good"
    good.mkdir()
    assert main(["run", "BV", "khop", "twitter", "-m", "16", "--size",
                 "tiny", "--no-cache", "--trace", str(good / "bv.jsonl")]) == 0
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    lines = (good / "bv.jsonl").read_text().splitlines()
    target = bad / "g.jsonl"
    target.write_text("\n".join(mutate(lines)) + "\n")
    return good, bad, target


def _rewrite_meta(lines, edit):
    meta = json.loads(lines[0])
    edit(meta)
    return [json.dumps(meta, sort_keys=True)] + lines[1:]


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

    @pytest.mark.parametrize("command", ["chaos", "elastic"])
    def test_perturbations_refuse_the_single_thread_baseline(self, command):
        # ST has no cluster to perturb, so it is no --systems choice
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--systems", "BV", "ST"])
        assert exit_info.value.code == 2
        build_parser().parse_args([command, "--systems", "BV"])


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

    def test_grid_warm_cache_and_trace(self, capsys, tmp_path):
        cmd = ["grid", "khop", "--datasets", "twitter", "--machines", "16",
               "--size", "tiny", "--cache-dir", str(tmp_path / "cache"),
               "--trace", str(tmp_path / "traces")]
        assert main(cmd) == 0
        out = capsys.readouterr().out
        assert "khop results" in out
        assert "exec: 9 cells" in out and "9 executed" in out
        assert main(cmd + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "9 cached · 0 executed" in out
        journals = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert "_scheduler.jsonl" in journals
        assert len(journals) == 10  # 9 cells + the scheduler's own journal

    def test_report_from_trace_dir(self, capsys, khop_traces):
        trace_dir, grid = khop_traces
        assert main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Perf & cost report")
        # every result-table cell is the in-memory grid's cell text
        header, *rows = _md_table(out, "### khop")
        assert header == ["dataset", "system", "16 mach"]
        cells = {(dataset, system): text for dataset, system, text in rows}
        assert len(cells) == len(rows) == 18
        assert cells == {
            (dataset, system): grid.cell_text(system, workload, dataset, size)
            for system, workload, dataset, size in grid.cells
        }
        assert cells["wrn", "BB"] == "MPI"
        assert cells["wrn", "GL-S-R-I"] == "OOM"
        census = out.split("### Failures (2 of 18 runs)\n\n", 1)[1]
        assert census.startswith("- **MPI**: 1\n- **OOM**: 1\n")
        winners = _md_table(out, "### Best system per column (end-to-end)")
        expected = []
        for dataset in ("twitter", "wrn"):
            best = grid.best_system("khop", dataset, 16)
            expected.append(["khop", dataset, "16", best.system,
                             f"{best.total_time:.1f}"])
        assert winners[1:] == expected
        # one size: no system has a curve to classify yet
        assert "- khop / wrn: BB" not in out
        assert "GL-S-R-I: insufficient-data" in out

    @pytest.mark.parametrize("coordinate",
                             ["system", "workload", "dataset", "machines"])
    @pytest.mark.parametrize("diff", [False, True])
    def test_trace_dir_journal_without_a_coordinate(self, capsys, tmp_path,
                                                    coordinate, diff):
        good, bad, journal = _journal_dirs(tmp_path, lambda lines: (
            _rewrite_meta(lines, lambda meta: meta.pop(coordinate))))
        argv = ["report", "--diff", str(good), str(bad)] if diff else [
            "report", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {journal}: meta lacks '{coordinate}'" in err

    @pytest.mark.parametrize("field, value", [("machines", "sixteen"),
                                              ("total_time", [1])])
    @pytest.mark.parametrize("diff", [False, True])
    def test_trace_dir_journal_with_a_malformed_field(self, capsys, tmp_path,
                                                      field, value, diff):
        good, bad, journal = _journal_dirs(tmp_path, lambda lines: (
            _rewrite_meta(lines, lambda meta: meta.update({field: value}))))
        argv = ["report", "--diff", str(good), str(bad)] if diff else [
            "report", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {journal}: meta field '{field}' is not" in err

    @pytest.mark.parametrize("diff", [False, True])
    def test_trace_dir_journal_with_a_malformed_line(self, capsys, tmp_path,
                                                     diff):
        good, bad, journal = _journal_dirs(
            tmp_path, lambda lines: lines[:2] + ["{not json"] + lines[2:])
        argv = ["report", "--diff", str(good), str(bad)] if diff else [
            "report", str(bad)]
        assert main(argv) == 2
        assert f"error: {journal}:3: not JSON" in capsys.readouterr().err

    def test_report_to_file(self, capsys, khop_traces):
        trace_dir, _ = khop_traces
        output = trace_dir.parent / "report.md"
        assert main(["report", str(trace_dir), "-o", str(output)]) == 0
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


class TestBenchExitCodes:
    """The bench commands fail when their bit-equality gate does."""

    @pytest.mark.parametrize("equal, code", [(True, 0), (False, 1)])
    def test_serve_bench_gates_on_the_spot_check(
        self, monkeypatch, tmp_path, equal, code
    ):
        from repro.serve import loadgen

        calls = []

        def fake_loadgen(**kwargs):
            calls.append(kwargs)
            return {"bit_equal_spotcheck": equal}

        monkeypatch.setattr(loadgen, "run_loadgen", fake_loadgen)
        output = str(tmp_path / "serve.json")
        assert main(["serve-bench", "--clients", "3", "-o", output,
                     "--history", ""]) == code
        assert calls == [dict(
            clients=3, seed=2018, dataset_size="tiny", max_queue_cells=96,
            output=output, history="", journal=None,
        )]

    @pytest.mark.parametrize("equal, code", [(True, 0), (False, 1)])
    def test_bench_elastic_gates_on_bit_equal_answers(
        self, monkeypatch, tmp_path, equal, code
    ):
        from repro.chaos import bench

        calls = []

        def fake_bench(**kwargs):
            calls.append(kwargs)
            return {"bit_equal": equal}

        monkeypatch.setattr(bench, "run_bench", fake_bench)
        output = str(tmp_path / "elastic.json")
        assert main(["bench-elastic", "--jobs", "1", "-o", output]) == code
        assert calls == [dict(jobs=1, output=output, history=None)]
