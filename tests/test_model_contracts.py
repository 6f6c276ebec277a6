"""Each engine stays inside its computation model, checked by running it.

The paper compares systems by running them on the same datasets and
workloads (§4), so the model an engine claims is checked the same way:
every engine runs every workload on every tiny dataset while the
``Cluster`` records which of its primitives were called from outside
the ``Cluster``. A primitive that another one calls (``uniform_compute``
calls ``parallel_compute``, every primitive calls ``advance``) is the
cluster's own business and is not recorded. The recorded set must fall
inside the engine's ``model_primitives``, and that declaration inside
``MODEL_PRIMITIVES[trace_model]``.

The same runs check span coverage: ``ResourceTracker`` raises
``SpanError`` for disk, network or memory-time work charged outside a
cluster span, so a cell that charges such work unspanned fails. They
check cost accounting by type: the simulated clock and the tracker's
counters are read-only properties, so an engine that writes them
instead of charging through ``advance`` and ``record_*`` raises
``AttributeError``.

A census over the loaded classes checks the rest of what Table 1 and
the result grids rely on: no ``Engine`` or ``Workload`` class holds a
mutable class attribute that every run in the process would share, and
every registered engine carries its ``key`` (equal to its registry
key), ``display_name`` and ``language``.

The mutation tests seed a contract breach into a copy of src/repro and
run the same check against the copy in a new interpreter.
"""

import functools
import inspect
import json
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Set, Tuple

import pytest

from repro.cluster import Cluster
from repro.core.runner import run_cell
from repro.datasets import load_dataset
from repro.engines import ENGINE_KEYS, make_engine
from repro.engines.base import (EXTENSION_WORKLOADS, MODEL_PRIMITIVES,
                                WORKLOAD_NAMES, Engine)
from repro.workloads.base import Workload

Cell = Tuple[str, str, str]  # (system, workload, tiny dataset)

DATASETS = ("twitter", "uk0705", "wrn")
#: Blogel-B's coordinate and URL partitioners need a dataset with
#: coordinates (the road network) or with URLs (the web graph)
DATASETS_OF = {"BB-coord": ("wrn",), "BB-url": ("uk0705",)}


def every_cell() -> List[Cell]:
    """Every engine × workload × tiny dataset it can run."""
    cells = []
    for system in ENGINE_KEYS:
        workloads = WORKLOAD_NAMES
        if system != "ST":  # the COST baseline implements the paper's four
            workloads += EXTENSION_WORKLOADS
        for workload in workloads:
            for dataset in DATASETS_OF.get(system, DATASETS):
                cells.append((system, workload, dataset))
    return cells


@contextmanager
def recorded_primitives() -> Iterator[Set[str]]:
    """Record the public ``Cluster`` methods called from outside it."""
    called: Set[str] = set()
    depth = 0

    def recording(name, method):
        @functools.wraps(method)
        def recorded(*args, **kwargs):
            nonlocal depth
            if depth == 0:
                called.add(name)
            depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth -= 1
        return recorded

    originals = {name: value for name, value in vars(Cluster).items()
                 if not name.startswith("_") and inspect.isfunction(value)}
    for name, method in originals.items():
        setattr(Cluster, name, recording(name, method))
    try:
        yield called
    finally:
        for name, method in originals.items():
            setattr(Cluster, name, method)


def contract_breaches(cells: Iterable[Cell]) -> List[str]:
    """Run ``cells`` on 16 machines and name every model-contract breach."""
    breaches = set()
    with recorded_primitives() as called:
        for system, workload, dataset in cells:
            called.clear()
            run_cell(system, workload, load_dataset(dataset, "tiny"), 16)
            engine = make_engine(system)
            name = type(engine).__name__
            declared = engine.model_primitives
            allowed = MODEL_PRIMITIVES[engine.trace_model]
            breaches.update(
                f"{name} ({system}) called {primitive}, outside its "
                f"model_primitives" for primitive in called - declared)
            breaches.update(
                f"{name} declares {primitive}, which its "
                f"{engine.trace_model!r} model does not allow"
                for primitive in declared - allowed)
    return sorted(breaches)


def breaches_in(fresh_python, src, cells: List[Cell]):
    """Run :func:`contract_breaches` against the code under ``src``."""
    return fresh_python(
        "import json\n"
        "from tests.test_model_contracts import contract_breaches\n"
        f"print(json.dumps(contract_breaches({cells!r})))", src=src)


def model_classes() -> List[type]:
    """Every ``Engine`` and ``Workload`` class ``repro`` defines, roots
    included, by qualified name."""
    found = {}
    stack = [Engine, Workload]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("repro."):
            found[f"{cls.__module__}.{cls.__qualname__}"] = cls
        stack.extend(cls.__subclasses__())
    return [found[name] for name in sorted(found)]


#: class-attribute types one run could mutate under another's feet
MUTABLE = (dict, list, set, bytearray)


def shared_mutable_attributes() -> List[str]:
    """Each non-dunder class attribute of a model class that is mutable."""
    return [f"{cls.__name__}.{name} ({type(value).__name__})"
            for cls in model_classes()
            for name, value in sorted(vars(cls).items())
            if not (name.startswith("__") and name.endswith("__"))
            and isinstance(value, MUTABLE)]


def metadata_breaches() -> List[str]:
    """Each registered engine's missing metadata, or key mismatch."""
    breaches = []
    for key in ENGINE_KEYS:
        engine = make_engine(key)
        name = f"{type(engine).__name__} ({key})"
        breaches += [f"{name} has no {attr}"
                     for attr in ("key", "display_name", "language")
                     if not getattr(engine, attr)]
        if engine.key and engine.key != key:
            breaches.append(f"{name} has key {engine.key!r}")
    return breaches


def census_in(fresh_python, src, check: str):
    """Run one census function against the code under ``src``."""
    return fresh_python(
        "import json\n"
        f"from tests.test_model_contracts import {check}\n"
        f"print(json.dumps({check}()))", src=src)


def test_model_classes_hold_no_mutable_class_attributes():
    classes = model_classes()
    engines = [cls for cls in classes if issubclass(cls, Engine)]
    assert {type(make_engine(key)) for key in ENGINE_KEYS} <= set(engines)
    assert len(engines) >= 12 and len(classes) - len(engines) >= 7
    assert shared_mutable_attributes() == []


def test_every_engine_declares_its_metadata():
    assert len(ENGINE_KEYS) >= 20
    assert metadata_breaches() == []


def test_every_engine_calls_only_its_models_primitives():
    cells = every_cell()
    assert {system for system, _, _ in cells} == set(ENGINE_KEYS)
    assert contract_breaches(cells) == []


# -- the same mutations the retired static rules were tested with ----------

GIRAPH_LOAD = ("engines/giraph.py", "cluster.sample_memory()")
GRAPHLAB_LOAD = ("engines/graphlab.py", "cluster.sample_memory()")


def test_an_off_model_primitive_fails_the_census(fresh_python, mutated_src):
    path, anchor = GIRAPH_LOAD
    src = mutated_src(path, anchor,
                      "cluster.broadcast(1.0)\n        " + anchor)
    proc = breaches_in(fresh_python, src, [("G", "pagerank", "twitter")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "GiraphEngine (G) called broadcast, outside its model_primitives",
    ]


def test_unspanned_disk_bytes_fail_the_run(fresh_python, mutated_src):
    path, anchor = GRAPHLAB_LOAD
    src = mutated_src(path, anchor,
                      "cluster.tracker.record_disk(read=1.0)\n        " + anchor)
    proc = breaches_in(fresh_python, src,
                       [("GL-S-R-I", "pagerank", "twitter")])
    assert proc.returncode != 0
    assert "SpanError: record_disk outside a cluster span" in proc.stderr


def test_unspanned_memory_time_fails_the_run(fresh_python, mutated_src):
    # the cost record bills GB-hours off the memory integral, so an
    # unspanned charge is billed work the journal cannot attribute
    path, anchor = GRAPHLAB_LOAD
    src = mutated_src(
        path, anchor,
        "cluster.tracker.record_memory_integral(1.0)\n        " + anchor)
    proc = breaches_in(fresh_python, src,
                       [("GL-S-R-I", "pagerank", "twitter")])
    assert proc.returncode != 0
    assert ("SpanError: record_memory_integral outside a cluster span"
            in proc.stderr)


def test_memory_time_inside_a_cluster_span_runs_clean(fresh_python,
                                                      mutated_src):
    # the same charge wrapped in a cluster span is how the Cluster
    # primitives accrue the integral themselves
    path, anchor = GRAPHLAB_LOAD
    src = mutated_src(
        path, anchor,
        'with cluster.tracer.span("extra", cat="cluster"):\n'
        "            cluster.tracker.record_memory_integral(1.0)\n"
        "        " + anchor)
    proc = breaches_in(fresh_python, src,
                       [("GL-S-R-I", "pagerank", "twitter")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_mutable_engine_class_attribute_fails_the_census(fresh_python,
                                                           mutated_src):
    # Giraph's Table 1 features as a plain dict literal, not a
    # read-only mapping: one run could rewrite every later run's row
    src = mutated_src("engines/giraph.py", "    features = MappingProxyType({",
                      "    features = ({")
    proc = census_in(fresh_python, src, "shared_mutable_attributes")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["GiraphEngine.features (dict)"]


def test_a_mutable_workload_class_attribute_fails_the_census(fresh_python,
                                                             mutated_src):
    src = mutated_src("workloads/pagerank.py", "    combinable = True\n",
                      "    combinable = True\n    seen = set()\n")
    proc = census_in(fresh_python, src, "shared_mutable_attributes")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["PageRank.seen (set)"]


def test_an_engine_without_language_fails_the_census(fresh_python,
                                                     mutated_src):
    # Vertica's root default is the empty string: Table 1 would render
    # a blank language column
    src = mutated_src("engines/vertica.py", '    language = "SQL"\n', "")
    proc = census_in(fresh_python, src, "metadata_breaches")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["VerticaEngine (V) has no language"]


@pytest.mark.parametrize("write", [
    "cluster.now = 0.0",
    "cluster.clock.now = 10.0",
    "cluster.tracker.network_bytes_sent += 1024",
], ids=["cluster-now", "clock-now", "tracker-counter"])
def test_writing_the_clock_or_a_counter_fails_the_run(fresh_python,
                                                      mutated_src, write):
    path, anchor = GIRAPH_LOAD
    src = mutated_src(path, anchor, write + "\n        " + anchor)
    proc = fresh_python(
        "from repro.core.runner import run_cell\n"
        "from repro.datasets import load_dataset\n"
        "run_cell('G', 'pagerank', load_dataset('twitter', 'tiny'), 16)",
        src=src)
    assert proc.returncode != 0
    assert write in proc.stderr  # the traceback ends at the mutation
    assert "AttributeError" in proc.stderr
