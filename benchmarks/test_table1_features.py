"""Table 1: the feature matrix of the systems under study."""

from benchmarks.common import once, write_output

from repro.analysis import render_table
from repro.engines import make_engine

SYSTEMS = ("HD", "HL", "G", "GL-S-R-I", "S", "BB", "V", "FG", "BV")


def build_table1():
    rows = []
    for key in SYSTEMS:
        engine = make_engine(key)
        rows.append({
            "System": engine.display_name,
            "Memory/Disk": engine.features["memory_disk"],
            "Paradigm": engine.features["paradigm"],
            "Declarative": engine.features["declarative"],
            "Partitioning": engine.features["partitioning"],
            "Synchronization": engine.features["synchronization"],
            "Fault Tolerance": engine.features["fault_tolerance"],
            "Language": engine.language,
        })
    return rows


def test_table1_feature_matrix(benchmark):
    rows = once(benchmark, build_table1)
    text = render_table(rows, title="Table 1: Graph processing systems")
    write_output("table1_features", text)

    by_name = {r["System"]: r for r in rows}
    # the disk-based systems per the paper's Table 1
    assert by_name["Hadoop"]["Memory/Disk"] == "Disk"
    assert by_name["Vertica"]["Memory/Disk"] == "Disk"
    assert by_name["Giraph"]["Memory/Disk"] == "Memory"
    # Vertica is the only declarative system
    declaratives = [r["System"] for r in rows if "yes" in r["Declarative"]]
    assert declaratives == ["Vertica"]
    # Blogel-B is the block-centric representative
    assert "Block" in by_name["Blogel-B"]["Paradigm"]
    # GraphLab is the only (a)synchronous one
    asyncs = [r["System"] for r in rows if "(A)" in r["Synchronization"]]
    assert asyncs == ["GraphLab"]
