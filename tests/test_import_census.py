"""What a cell imports: the cell path stays apart from the report path.

A pool worker and a benchmark launch import ``repro.exec.workers`` and
``repro.core.runner``. Neither should pay for code no cell runs: the
CLI, the analysis layer, the journal readers behind ``repro report``,
the analysis-only experiment modules, the chaos experiment driver, the
serve daemon and the linter. Package roots re-export only what the
cell path uses, so one eager import in a root shows up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.engines.base import result_to_record
from repro.exec.cache import _RESULT_PACKAGES

ROOT = Path(__file__).resolve().parent.parent

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


def fresh_import(*modules: str) -> list:
    """``repro`` modules a new interpreter holds after importing ``modules``."""
    code = (
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def off_path(loaded: list) -> list:
    return [
        name for name in loaded
        if any(name == entry or (entry.endswith(".") and name.startswith(entry))
               for entry in OFF_THE_CELL_PATH)
    ]


def test_the_cell_path_imports_no_report_code():
    loaded = fresh_import("repro.exec.workers", "repro.core.runner")
    assert "repro.exec.workers" in loaded and "repro.engines.base" in loaded
    assert off_path(loaded) == []


def test_the_run_record_is_part_of_the_code_fingerprint():
    # the record layout decides what a cached cell replays, so its
    # source must be digested into every cache key
    package = result_to_record.__module__.split(".")[1]
    assert package in _RESULT_PACKAGES
