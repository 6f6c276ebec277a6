"""Ablation: Blogel-B with the dataset-specific partitioners of §2.3.

The paper runs Blogel-B only with the generic Graph-Voronoi partitioner
and notes — without measuring — that coordinate- and URL-prefix-based
partitioning exist. This ablation measures what that choice cost:

* on the road network, coordinate blocks avoid the MPI overflow
  entirely and let the block-centric engine collapse the 48 000
  supersteps that kill every vertex-centric system;
* on the web graph, URL-prefix blocks cut the cross-block edge
  fraction several-fold.
"""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.engines import make_engine, workload_for
from repro.partitioning import url_prefix_partition, voronoi_partition


def run(key, workload_name, dataset, machines=16):
    engine = make_engine(key)
    workload = workload_for(engine, workload_name, dataset)
    return engine.run(dataset, workload, ClusterSpec(machines))


def measure():
    wrn = load_dataset("wrn", "small")
    uk = load_dataset("uk0705", "small")
    rows = []
    for key, dataset, workload in (
        ("BB", wrn, "sssp"), ("BB-coord", wrn, "sssp"), ("BV", wrn, "sssp"),
        ("BB", wrn, "wcc"), ("BB-coord", wrn, "wcc"), ("BV", wrn, "wcc"),
        ("BB", uk, "wcc"), ("BB-url", uk, "wcc"),
    ):
        result = run(key, workload, dataset, 64)
        rows.append({
            "System": key,
            "Dataset": dataset.name,
            "Workload": workload,
            "Cell": result.cell(),
            "Execute s": round(result.execute_time, 1) if result.ok else "-",
        })
    cuts = {
        "voronoi": voronoi_partition(uk.graph, 64).block_cut_fraction(),
        "url-prefix": url_prefix_partition(
            uk.graph, 64, pages_per_host=uk.meta()["pages_per_host"]
        ).block_cut_fraction(),
    }
    return rows, cuts


def test_ablation_dataset_specific_partitioners(benchmark):
    rows, cuts = once(benchmark, measure)
    text = render_table(
        rows,
        title="Ablation: Blogel-B partitioner choice (64 machines)",
    )
    text += (
        f"\n\nUK0705 block-cut fraction: voronoi={cuts['voronoi']:.3f}, "
        f"url-prefix={cuts['url-prefix']:.3f}"
    )
    write_output("ablation_partitioners", text)

    cell = {(r["System"], r["Dataset"], r["Workload"]): r for r in rows}
    # the GVD partitioner crashes on WRN; coordinates do not
    assert cell[("BB", "wrn", "sssp")]["Cell"] == "MPI"
    assert cell[("BB-coord", "wrn", "sssp")]["Cell"] not in ("MPI", "OOM", "TO")
    # and block-centric execution then crushes vertex-centric Blogel
    coord = cell[("BB-coord", "wrn", "sssp")]["Execute s"]
    bv = cell[("BV", "wrn", "sssp")]["Execute s"]
    assert coord < 0.25 * bv
    coord_wcc = cell[("BB-coord", "wrn", "wcc")]["Execute s"]
    bv_wcc = cell[("BV", "wrn", "wcc")]["Execute s"]
    assert coord_wcc < 0.25 * bv_wcc
    # URL prefixes shrink the web graph's cross-block fraction
    assert cuts["url-prefix"] < 0.6 * cuts["voronoi"]
    assert (
        cell[("BB-url", "uk0705", "wcc")]["Execute s"]
        < cell[("BB", "uk0705", "wcc")]["Execute s"]
    )
