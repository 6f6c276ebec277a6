"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.graph import Graph, from_edges

#: the package under test, spelled the way the lint tests spell it, so
#: the paths of the shared parse match the paths they build
SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def src_repro_modules():
    """Every file of src/repro parsed once per session, keyed by path.

    The lint tests share this parse: one test lints all of it, and each
    mutation test swaps one re-parsed file into a copy of the dict.
    Nothing may mutate it.
    """
    from repro.lint import iter_python_files
    from repro.lint.source import SourceModule

    modules = {}
    for path in iter_python_files([SRC_REPRO]):
        with open(path, encoding="utf-8") as fh:
            modules[path] = SourceModule.parse(fh.read(), path=path)
    return modules


@pytest.fixture(scope="session")
def src_repro_report(src_repro_modules):
    """``(findings, seconds)``: every lint rule over the shared parse.

    The one pass runs once per session; the findings come out in the
    order ``repro lint`` prints them.
    """
    from repro.lint import lint_modules

    start = time.perf_counter()
    violations = lint_modules(src_repro_modules)
    return violations, time.perf_counter() - start


@pytest.fixture(scope="session")
def fresh_python():
    """``run(code, src=None, env=None, timeout=None)``: run ``code`` in a
    new interpreter.

    The interpreter imports ``repro`` from ``src`` (default: this
    repo's ``src``) and this repo's ``tests`` package, so a check
    defined in a test module runs as-is against another copy of the
    code. ``env`` adds environment variables. A run that outlives
    ``timeout`` seconds is killed, with every process it started (a
    pool's workers would outlive it otherwise), and raises
    ``subprocess.TimeoutExpired``. Returns the ``CompletedProcess``,
    with text output.
    """
    def run(code: str, src=None, env=None,
            timeout=None) -> subprocess.CompletedProcess:
        paths = [str(src or ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, **(env or {}),
                   PYTHONPATH=os.pathsep.join(paths))
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(proc.args, proc.returncode,
                                           out, err)
    return run


@pytest.fixture
def mutated_src(tmp_path):
    """``mutate(relpath, old, new, copy="src")``: a mutated copy of
    src/repro.

    Copies src/repro into ``tmp_path / copy`` on the first call for
    that ``copy``, replaces the first ``old`` in the file ``relpath``
    (relative to the package) with ``new``, and returns the directory
    that holds the copy. Later calls for the same ``copy`` edit it
    again, so one mutation may span several edits. A mutation whose
    ``old`` text is missing fails the test instead of checking nothing.
    """
    def mutate(relpath: str, old: str, new: str, copy: str = "src") -> Path:
        src = tmp_path / copy
        if not src.exists():
            shutil.copytree(SRC_REPRO, src / "repro")
        path = src / "repro" / relpath
        text = path.read_text(encoding="utf-8")
        assert old in text, f"mutation did not apply to {relpath}"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return src
    return mutate


@pytest.fixture(scope="session")
def tiny_twitter():
    """The tiny social dataset (fast engine runs)."""
    return load_dataset("twitter", "tiny")


@pytest.fixture(scope="session")
def tiny_wrn():
    """The tiny road-network dataset."""
    return load_dataset("wrn", "tiny")


@pytest.fixture(scope="session")
def tiny_uk():
    """The tiny web dataset."""
    return load_dataset("uk0705", "tiny")


@pytest.fixture(scope="session")
def small_twitter():
    """The small social dataset (calibrated findings)."""
    return load_dataset("twitter", "small")


@pytest.fixture(scope="session")
def small_wrn():
    """The small road-network dataset (calibrated findings)."""
    return load_dataset("wrn", "small")


@pytest.fixture(scope="session")
def small_uk():
    """The small web dataset (calibrated findings)."""
    return load_dataset("uk0705", "small")


@pytest.fixture(scope="session")
def small_clueweb():
    """The small ClueWeb-like dataset."""
    return load_dataset("clueweb", "small")


@pytest.fixture
def diamond_graph() -> Graph:
    """0 -> {1, 2} -> 3: the smallest interesting DAG."""
    return from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond")


@pytest.fixture
def cycle_graph() -> Graph:
    """A directed 5-cycle."""
    return from_edges([(i, (i + 1) % 5) for i in range(5)], name="cycle5")


@pytest.fixture
def two_components() -> Graph:
    """Two disjoint weakly connected components: {0,1,2} and {3,4}."""
    return from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5, name="two-comp")


@pytest.fixture
def spec16() -> ClusterSpec:
    """The smallest cluster of the paper's sweep."""
    return ClusterSpec(16)
