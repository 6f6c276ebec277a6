"""Ablation: which reproduced findings survive calibration perturbation.

The reviewer's objection to any simulation-based reproduction is that
the constants were chosen to produce the result. This bench perturbs
every shared cost constant by 0.5x and 2x, one at a time, and re-checks
a panel of finding predicates. Structural findings survive; the one
finding the paper itself hedges on (§7: Giraph vs GraphLab might be a
language artifact) is the one that flips.
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.core.sensitivity import PERTURBABLE_CONSTANTS, sensitivity_analysis
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for


def run(key, wl, ds="twitter", m=16):
    d = load_dataset(ds, "small")
    e = make_engine(key)
    return e.run(d, workload_for(e, wl, d), ClusterSpec(m))


PREDICATES = {
    "blogel beats hadoop (PR, twitter@16)": lambda: (
        run("BV", "pagerank").total_time < run("HD", "pagerank").total_time
    ),
    "graphx slowest in-memory (PR, twitter@16)": lambda: (
        run("S", "pagerank").total_time
        > max(run(k, "pagerank").total_time for k in ("BV", "G", "FG"))
    ),
    "vertica loses to blogel (PR, uk@32)": lambda: (
        run("V", "pagerank", "uk0705", 32).total_time
        > run("BV", "pagerank", "uk0705", 32).total_time
    ),
    "wrn sssp still fails for giraph @16": lambda: (
        not run("G", "sssp", "wrn").ok
    ),
    "giraph beats graphlab-random @16 (the §7 caveat)": lambda: (
        run("G", "pagerank").total_time < run("GL-S-R-I", "pagerank").total_time
    ),
}


def analyse():
    return sensitivity_analysis(PREDICATES, constants=PERTURBABLE_CONSTANTS,
                                factors=(0.5, 2.0))


def test_ablation_calibration_sensitivity(benchmark):
    results = once(benchmark, analyse)
    rows = [{
        "Finding": r.predicate,
        "Baseline": "holds" if r.baseline else "fails",
        "Robust to +/-2x": "yes" if r.robust else "NO",
        "Flips under": ", ".join(f"{c} x{f}" for c, f in r.flips) or "-",
    } for r in results]
    text = render_table(
        rows,
        title=("Calibration sensitivity: each cost constant perturbed "
               "0.5x / 2x, one at a time"),
    )
    write_output("ablation_sensitivity", text)

    by_name = {r.predicate: r for r in results}
    # structural findings survive every perturbation
    for name in (
        "blogel beats hadoop (PR, twitter@16)",
        "graphx slowest in-memory (PR, twitter@16)",
        "vertica loses to blogel (PR, uk@32)",
        "wrn sssp still fails for giraph @16",
    ):
        assert by_name[name].robust, name
    # the §7-hedged finding is calibration-sensitive, as the paper suspects
    giraph = by_name["giraph beats graphlab-random @16 (the §7 caveat)"]
    assert giraph.baseline
    assert not giraph.robust
