"""The chaos and elastic smoke grids still write the journals they recorded.

``tests/golden/perturbation.json`` holds, for each smoke grid, the
SHA-256 of every journal its ``--trace`` directory receives, keyed by
filename. The grids are the ones the CI ``chaos-smoke`` and
``elastic-smoke`` jobs run; here they run inline and uncached, so a
refactor of the perturbation harness must leave every faulted,
rescaled and clean-reference journal byte-identical. The committed
``BENCH_elastic.json`` is pinned the same way: every simulated field of
a fresh ``run_bench`` must equal it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "perturbation.json"
BENCH_ELASTIC = Path(__file__).resolve().parent.parent / "BENCH_elastic.json"

#: corpus key -> the smoke command, minus ``--jobs``/cache/trace flags
SMOKE_GRIDS = {
    "chaos-smoke": ["chaos", "--systems", "BV", "V", "--faults", "crash",
                    "netsplit", "--intensities", "1", "--size", "tiny",
                    "--seed", "7"],
    "elastic-smoke": ["elastic", "--systems", "BV", "HD", "V", "--size",
                      "tiny", "--timings", "0.5", "--magnitudes", "2"],
}


def trace_digests(argv, trace_dir: Path) -> dict:
    """filename -> SHA-256 of every journal one smoke run writes."""
    assert main(argv + ["--jobs", "1", "--no-cache",
                        "--trace", str(trace_dir)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(trace_dir.iterdir())}


@pytest.mark.parametrize("grid", sorted(SMOKE_GRIDS))
def test_smoke_grid_journals_match_the_corpus(grid, tmp_path, capsys):
    with open(CORPUS, encoding="ascii") as fh:
        recorded = json.load(fh)[grid]
    assert trace_digests(SMOKE_GRIDS[grid], tmp_path / grid) == recorded


def test_bench_elastic_reproduces_the_committed_record(tmp_path, capsys):
    from repro.chaos.bench import run_bench

    with open(BENCH_ELASTIC, encoding="ascii") as fh:
        committed = json.load(fh)
    record = run_bench(jobs=1, output=str(tmp_path / "bench.json"),
                       history="")
    host_only = ("host_seconds", "host_cpus")
    assert ({k: v for k, v in record.items() if k not in host_only}
            == {k: v for k, v in committed.items() if k not in host_only})
