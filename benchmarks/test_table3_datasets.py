"""Table 3: dataset characteristics — paper scale vs the synthetic stand-ins."""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.datasets import DATASET_NAMES, PAPER_PROFILES, load_dataset
from repro.graph import compute_stats, estimate_diameter


def build_table3():
    rows = []
    for name in DATASET_NAMES:
        profile = PAPER_PROFILES[name]
        dataset = load_dataset(name, "small")
        stats = compute_stats(dataset.graph)
        rows.append({
            "Dataset": name,
            "|E| (paper)": profile.num_edges,
            "Avg Deg (paper)": profile.avg_degree,
            "Max Deg (paper)": profile.max_degree,
            "Diameter (paper)": profile.diameter,
            "|E| (synthetic)": stats.num_edges,
            "Avg Deg (syn)": round(stats.avg_degree, 2),
            "Max Deg (syn)": stats.max_degree,
            "Diameter (syn)": estimate_diameter(dataset.graph),
        })
    return rows


def test_table3_dataset_characteristics(benchmark):
    rows = once(benchmark, build_table3)
    text = render_table(rows, title="Table 3: Real graph datasets (paper) vs synthetic stand-ins")
    write_output("table3_datasets", text)

    by_name = {r["Dataset"]: r for r in rows}
    # the road network's synthetic diameter dwarfs every other dataset's
    road = by_name["wrn"]["Diameter (syn)"]
    for other in ("twitter", "uk0705", "clueweb"):
        assert road > 20 * by_name[other]["Diameter (syn)"]
    # bounded road degrees vs power-law hubs
    assert by_name["wrn"]["Max Deg (syn)"] <= 9
    assert by_name["twitter"]["Max Deg (syn)"] > 3 * by_name["twitter"]["Avg Deg (syn)"]
    # relative |E| ordering preserved: clueweb > uk > twitter > (wrn by avg degree)
    assert (
        by_name["clueweb"]["|E| (synthetic)"]
        > by_name["uk0705"]["|E| (synthetic)"]
        > by_name["twitter"]["|E| (synthetic)"]
    )
    assert by_name["wrn"]["Avg Deg (syn)"] < by_name["twitter"]["Avg Deg (syn)"]
