"""What a cell imports, and what its cache key depends on.

A pool worker and a benchmark launch import ``repro.exec.workers`` and
``repro.core.runner``. Neither should pay for code no cell runs: the
CLI, the analysis layer, the journal readers behind ``repro report``,
the analysis-only experiment modules, the chaos experiment driver, the
serve daemon and the linter. Package roots re-export only what the
cell path uses, so one eager import in a root shows up here.

The result cache replays a cell whenever its key matches, so the key
must cover everything that can change the result: the source of every
package a cell loads (``_RESULT_PACKAGES``, digested into the key's
``code``) and every parameter of ``run_cell``. Both are checked by
running cells, and the mutation tests seed a gap into a copy of
src/repro and run the same check against the copy.
"""

import dataclasses
import inspect
import json
from typing import Dict, List

from repro.chaos import ChaosPlan
from repro.chaos.events import MachineCrash
from repro.core.runner import run_cell
from repro.datasets import load_dataset
from repro.engines.base import result_to_record
from repro.exec.cache import _RESULT_PACKAGES, cell_key
from repro.exec.plan import CellTask

#: modules (or, ending in ".", packages) no cell needs
OFF_THE_CELL_PATH = (
    "repro.cli",
    "repro.analysis",
    "repro.analysis.",
    "repro.obs.report",
    "repro.obs.export",
    "repro.core.findings",
    "repro.core.scalability",
    "repro.core.sensitivity",
    "repro.core.tuning",
    "repro.core.vertical_scaling",
    "repro.core.weak_scaling",
    "repro.chaos.experiment",
    "repro.serve",
    "repro.serve.",
    "repro.lint",
    "repro.lint.",
)


def fresh_import(fresh_python, *modules: str) -> list:
    """``repro`` modules a new interpreter holds after importing ``modules``."""
    proc = fresh_python(
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def off_path(loaded: list) -> list:
    return [
        name for name in loaded
        if any(name == entry or (entry.endswith(".") and name.startswith(entry))
               for entry in OFF_THE_CELL_PATH)
    ]


def test_the_cell_path_imports_no_report_code(fresh_python):
    loaded = fresh_import(fresh_python, "repro.exec.workers",
                          "repro.core.runner")
    assert "repro.exec.workers" in loaded and "repro.engines.base" in loaded
    assert off_path(loaded) == []


def test_the_run_record_is_part_of_the_code_fingerprint():
    # the record layout decides what a cached cell replays, so its
    # source must be digested into every cache key
    package = result_to_record.__module__.split(".")[1]
    assert package in _RESULT_PACKAGES


# -- the code a result depends on is digested into its key -----------------

#: run in a new interpreter: one failure-free cell per engine class, then
#: the ``repro`` packages loaded, then (the cache module is not on the
#: cell path, so only afterwards) the packages the cache key digests
CELL_PACKAGES = """
import json, sys
from repro.core.runner import run_cell
from repro.datasets import load_dataset
from repro.engines import ENGINE_KEYS, make_engine

twitter = load_dataset("twitter", "tiny")
classes = set()
for system in ENGINE_KEYS:
    engine_class = type(make_engine(system))
    if engine_class not in classes:
        classes.add(engine_class)
        run_cell(system, "pagerank", twitter, 16)
loaded = sorted({name.split(".")[1] for name in sys.modules
                 if name.startswith("repro.")})
from repro.exec.cache import _RESULT_PACKAGES
print(json.dumps({"loaded": loaded, "digested": sorted(_RESULT_PACKAGES)}))
"""


def packages_in(fresh_python, src=None) -> Dict[str, List[str]]:
    proc = fresh_python(CELL_PACKAGES, src=src)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_package_a_cell_loads_is_digested(fresh_python):
    census = packages_in(fresh_python)
    assert census["loaded"] == census["digested"] == [
        "chaos", "cluster", "core", "datasets", "engines", "graph", "obs",
        "partitioning", "workloads",
    ]


def test_an_undigested_package_fails_the_census(fresh_python, mutated_src):
    src = mutated_src("exec/cache.py", '"partitioning", "workloads",',
                      '"partitioning",')
    census = packages_in(fresh_python, src)
    assert sorted(set(census["loaded"]) - set(census["digested"])) == [
        "workloads",
    ]


# -- every run_cell parameter reaches the key ------------------------------

def key_blind_parameters() -> List[str]:
    """The ``run_cell`` parameters whose change leaves ``cell_key`` as is."""
    twitter = load_dataset("twitter", "tiny")
    base = CellTask(index=0, system="BV", workload="pagerank",
                    dataset="twitter", size="tiny", cluster_size=16)
    changed = {
        "system": (dataclasses.replace(base, system="G"), twitter),
        "workload_name": (dataclasses.replace(base, workload="wcc"), twitter),
        # same name and size, other edges
        "dataset": (base, dataclasses.replace(
            twitter, graph=load_dataset("wrn", "tiny").graph)),
        "cluster_size": (dataclasses.replace(base, cluster_size=32), twitter),
        "chaos": (dataclasses.replace(base, chaos=ChaosPlan(
            events=(MachineCrash(time=5.0),))), twitter),
    }
    assert list(changed) == list(inspect.signature(run_cell).parameters)
    key = cell_key(base, twitter, code_version="code")
    return [name for name, (task, dataset) in changed.items()
            if cell_key(task, dataset, code_version="code") == key]


def test_every_run_cell_parameter_changes_the_key():
    assert key_blind_parameters() == []


def test_a_dropped_key_field_fails_the_key_test(fresh_python, mutated_src):
    src = mutated_src(
        "exec/cache.py",
        '        "chaos": None if task.chaos is None else task.chaos.to_dict(),\n',
        "")
    proc = fresh_python(
        "import json\n"
        "from tests.test_import_census import key_blind_parameters\n"
        "print(json.dumps(key_blind_parameters()))", src=src)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["chaos"]
