"""Each engine stays inside its computation model, checked by running it.

The paper compares systems by running them on the same datasets and
workloads (§4), so the model an engine claims is checked the same way:
every engine runs every workload on every tiny dataset while the
``Cluster`` records where each of its primitives is called from. A
primitive that another one calls (``uniform_compute`` calls
``parallel_compute``, every primitive calls ``advance``) is the
cluster's own business; the ones called from outside the ``Cluster``
must fall inside the engine's ``model_primitives``, and that
declaration inside ``MODEL_PRIMITIVES[trace_model]``.

The same recording drives a chaos census: for each call site of a
public ``Cluster`` method that a phase of a cell reaches, the
``Cluster``'s own calls included, the cell runs again with the first
call from that site raising a test-defined ``SimulatedFailure``. Every
such run must end as the failure cell of that fault; a broad
``except`` anywhere on the way up to ``Engine.run`` would turn it into
a finished run. The ``sample_memory()`` in ``Engine.run``'s ``finally``
runs after the phases, outside the failure handler by design, and is
not injected.

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
import os
import sys
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import pytest

import repro
from repro.cluster import Cluster, FailureKind, SimulatedFailure
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


#: a call site of a public ``Cluster`` method: (caller's file under
#: ``repro/``, caller's line, method name)
Site = Tuple[str, int, str]

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
CLUSTER_FILE = os.path.join("cluster", "cluster.py")


class InjectedFault(SimulatedFailure):
    """The fault the chaos census raises at a call site.

    Its kind only labels the failure cell; the census finds the fault
    by its message, which names the site.
    """

    kind = FailureKind.TIMEOUT


def fault_message(site: Site) -> str:
    path, line, name = site
    return f"injected fault at {path}:{line} ({name})"


@contextmanager
def cluster_calls(inject: Optional[Site] = None) -> Iterator[Dict[Site, bool]]:
    """Record each call site of a public ``Cluster`` method, in order.

    Maps each site reached to whether a phase was running at one of its
    calls: the run span and a phase span are open. With ``inject``, the
    first call from that site while a phase runs raises
    :class:`InjectedFault` instead of running the method.
    """
    calls: Dict[Site, bool] = {}

    def recording(name, method):
        @functools.wraps(method)
        def recorded(cluster, *args, **kwargs):
            nonlocal inject
            caller = sys._getframe(1)
            site = (os.path.relpath(caller.f_code.co_filename, PACKAGE_ROOT),
                    caller.f_lineno, name)
            in_phase = cluster.tracer.open_depth > 1
            calls[site] = calls.get(site, False) or in_phase
            if in_phase and site == inject:
                inject = None
                raise InjectedFault(fault_message(site))
            return method(cluster, *args, **kwargs)
        return recorded

    originals = {name: value for name, value in vars(Cluster).items()
                 if not name.startswith("_") and inspect.isfunction(value)}
    for name, method in originals.items():
        setattr(Cluster, name, recording(name, method))
    try:
        yield calls
    finally:
        for name, method in originals.items():
            setattr(Cluster, name, method)


def contract_breaches(cells: Iterable[Cell]) -> List[str]:
    """Run ``cells`` on 16 machines and name every model-contract breach."""
    breaches = set()
    for system, workload, dataset in cells:
        with cluster_calls() as calls:
            run_cell(system, workload, load_dataset(dataset, "tiny"), 16)
        called = {name for path, _, name in calls if path != CLUSTER_FILE}
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


def unsafe_fault_sites(cells: Iterable[Cell]) -> List[str]:
    """Inject a fault at each call site a phase of each cell reaches.

    Each injection re-runs the cell on 16 machines. Returns each run
    that did not end as the failure cell of the fault it was given:
    whatever caught the fault on the way up hid a failure.
    """
    unsafe = []
    for system, workload, dataset in cells:
        data = load_dataset(dataset, "tiny")
        with cluster_calls() as calls:
            run_cell(system, workload, data, 16)
        for site in [site for site, in_phase in calls.items() if in_phase]:
            with cluster_calls(inject=site):
                result = run_cell(system, workload, data, 16)
            if fault_message(site) not in result.failure_detail:
                unsafe.append(f"{system}:{workload}:{dataset}: "
                              f"{fault_message(site)} ended as {result.cell()}")
    return unsafe


def check_in(fresh_python, src, check: str, *args):
    """Run one check of this module against the code under ``src``."""
    return fresh_python(
        "import json\n"
        f"from tests.test_model_contracts import {check}\n"
        f"print(json.dumps({check}(*{args!r})))", src=src)


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


def test_every_fault_a_phase_meets_ends_as_its_failure_cell():
    assert unsafe_fault_sites(every_cell()) == []


# -- the same mutations the retired static rules were tested with ----------

GIRAPH_LOAD = ("engines/giraph.py", "cluster.sample_memory()")
GRAPHLAB_LOAD = ("engines/graphlab.py", "cluster.sample_memory()")


def test_an_off_model_primitive_fails_the_census(fresh_python, mutated_src):
    path, anchor = GIRAPH_LOAD
    src = mutated_src(path, anchor,
                      "cluster.broadcast(1.0)\n        " + anchor)
    proc = check_in(fresh_python, src, "contract_breaches",
                    [("G", "pagerank", "twitter")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "GiraphEngine (G) called broadcast, outside its model_primitives",
    ]


def test_unspanned_disk_bytes_fail_the_run(fresh_python, mutated_src):
    path, anchor = GRAPHLAB_LOAD
    src = mutated_src(path, anchor,
                      "cluster.tracker.record_disk(read=1.0)\n        " + anchor)
    proc = check_in(fresh_python, src, "contract_breaches",
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
    proc = check_in(fresh_python, src, "contract_breaches",
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
    proc = check_in(fresh_python, src, "contract_breaches",
                    [("GL-S-R-I", "pagerank", "twitter")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_mutable_engine_class_attribute_fails_the_census(fresh_python,
                                                           mutated_src):
    # Giraph's Table 1 features as a plain dict literal, not a
    # read-only mapping: one run could rewrite every later run's row
    src = mutated_src("engines/giraph.py", "    features = MappingProxyType({",
                      "    features = ({")
    proc = check_in(fresh_python, src, "shared_mutable_attributes")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["GiraphEngine.features (dict)"]


def test_a_mutable_workload_class_attribute_fails_the_census(fresh_python,
                                                             mutated_src):
    src = mutated_src("workloads/pagerank.py", "    combinable = True\n",
                      "    combinable = True\n    seen = set()\n")
    proc = check_in(fresh_python, src, "shared_mutable_attributes")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["PageRank.seen (set)"]


def test_an_engine_without_language_fails_the_census(fresh_python,
                                                     mutated_src):
    # Vertica's root default is the empty string: Table 1 would render
    # a blank language column
    src = mutated_src("engines/vertica.py", '    language = "SQL"\n', "")
    proc = check_in(fresh_python, src, "metadata_breaches")
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


# -- a fault injected under a swallowing handler is caught by the census --

SPARK_CELLS = [cell for cell in every_cell() if cell[0] == "S"]


def test_a_fault_swallowed_in_an_engine_fails_the_census(fresh_python,
                                                         mutated_src):
    # a broad except around Spark's repartitioning shuffle: the chaos
    # harness's own plans never fault inside that call
    src = mutated_src(
        "engines/spark.py",
        "        cluster.shuffle(raw)   # vertex-cut repartitioning\n",
        "        try:\n"
        "            cluster.shuffle(raw)\n"
        "        except Exception:\n"
        "            pass\n")
    proc = check_in(fresh_python, src, "unsafe_fault_sites", SPARK_CELLS)
    assert proc.returncode == 0, proc.stderr
    unsafe = json.loads(proc.stdout)
    # the call under the handler, and the cluster's own calls inside it
    assert any("engines/spark.py:" in line and "(shuffle) ended as" in line
               for line in unsafe)


def test_a_fault_swallowed_in_the_cluster_fails_the_census(fresh_python,
                                                           mutated_src):
    # a shuffle that swallows its own clock's timeout: every engine that
    # shuffles would finish a run that ran out of time
    src = mutated_src(
        "cluster/cluster.py",
        "            self.advance(t)\n        return t\n",
        "            try:\n"
        "                self.advance(t)\n"
        "            except Exception:\n"
        "                pass\n"
        "        return t\n")
    proc = check_in(fresh_python, src, "unsafe_fault_sites", SPARK_CELLS)
    assert proc.returncode == 0, proc.stderr
    unsafe = json.loads(proc.stdout)
    assert unsafe and all("cluster/cluster.py:" in line and "(advance)" in line
                          for line in unsafe)
