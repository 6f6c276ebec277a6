"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.datasets import load_dataset
from repro.graph import Graph, from_edges

#: the package under test, spelled the way the lint tests spell it, so
#: the paths of the shared parse match the paths they build
SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


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
