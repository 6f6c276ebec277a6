"""repro.lint: every RPL rule has a positive and a negative fixture,
noqa suppression works, the CLI exits correctly, and — the contract the
whole package exists for — src/repro itself is lint-clean. The
whole-tree checks lint the session's shared parse of src/repro; the
deep pass over it is in test_lint_deep.py."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    ALL_RULES,
    PARSE_ERROR_CODE,
    RULES_BY_CODE,
    expand_selectors,
    lint_file,
    lint_module,
    lint_source,
    select_rules,
)
from repro.lint.cli import main as lint_main

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
REPO_SRC = os.path.abspath(os.path.join(SRC_REPRO, ".."))


def codes(violations):
    return [v.code for v in violations]


def run(snippet, select=None):
    rules = select_rules([select]) if select else None
    return lint_source(textwrap.dedent(snippet), path="fixture.py", rules=rules)


# -- registry ---------------------------------------------------------------

def test_registry_covers_rpl001_through_rpl010():
    assert sorted(RULES_BY_CODE) == [f"RPL{i:03d}" for i in range(1, 11)]
    assert len(ALL_RULES) == 10
    for rule in ALL_RULES:
        assert rule.name and rule.rationale


def test_select_rules_rejects_unknown_code(tmp_path, capsys):
    for code in ("RPL999", "RPL016"):
        with pytest.raises(KeyError):
            select_rules([code])
    # the retired deep codes are unknown to --select, with --deep or not
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    for code in ("RPL011", "RPL013", "RPL015", "RPL016", "RPL017", "RPL018"):
        assert lint_main([str(clean), "--deep", "--select", code]) == 2
        assert lint_main([str(clean), "--select", code]) == 2
    assert "no rule code matches" in capsys.readouterr().err


def test_expand_selectors_prefix_matching():
    available = list(RULES_BY_CODE) + ["RPL011", "RPL012"]
    assert expand_selectors(["RPL001"], available) == ["RPL001"]
    assert expand_selectors(["RPL01"], available) == [
        "RPL010", "RPL011", "RPL012",
    ]
    assert expand_selectors(["rpl002", "RPL011"], available) == [
        "RPL002", "RPL011",
    ]
    with pytest.raises(KeyError):
        expand_selectors(["RPL9"], available)


def test_expand_selectors_exact_match_beats_prefix():
    # an exact code selects only itself even when it prefixes other
    # codes — the regression the docs promise now that RPL01 matches
    # several rules
    available = ["RPL018", "RPL0180", "RPL0181"]
    assert expand_selectors(["RPL018"], available) == ["RPL018"]
    assert expand_selectors(["rpl018"], available) == ["RPL018"]
    # a non-exact selector still expands by prefix
    assert expand_selectors(["RPL01"], available) == [
        "RPL018", "RPL0180", "RPL0181",
    ]


def test_expand_selectors_rpl01_matches_ten_deep_rules():
    # ten codes until RPL015-RPL017 were retired, then RPL011, RPL013
    # and RPL018; four remain
    from repro.lint.deep import DEEP_RULES_BY_CODE

    available = list(RULES_BY_CODE) + list(DEEP_RULES_BY_CODE)
    expanded = expand_selectors(["RPL01"], available)
    assert expanded == ["RPL010", "RPL012", "RPL014", "RPL019"]
    assert expand_selectors(["RPL019"], available) == ["RPL019"]
    for retired in ("RPL011", "RPL013", "RPL016", "RPL018"):
        with pytest.raises(KeyError):
            expand_selectors([retired], available)


# -- RPL001 wall-clock ------------------------------------------------------

def test_rpl001_flags_wall_clock_calls():
    found = run(
        """
        import time
        from datetime import datetime

        def load_phase():
            start = time.time()
            time.sleep(0.1)
            stamp = datetime.now()
            return start, stamp
        """,
        select="RPL001",
    )
    assert codes(found) == ["RPL001", "RPL001", "RPL001"]
    assert found[0].line == 6
    assert "time.time" in found[0].message


def test_rpl001_resolves_aliases():
    found = run(
        """
        import time as t

        def f():
            return t.perf_counter()
        """,
        select="RPL001",
    )
    assert codes(found) == ["RPL001"]


def test_rpl001_clean_simulated_time():
    found = run(
        """
        def execute(cluster):
            cluster.advance(3.5)
            return cluster.now
        """,
        select="RPL001",
    )
    assert found == []


# -- RPL002 randomness ------------------------------------------------------

def test_rpl002_flags_global_rng_and_unseeded_generator():
    found = run(
        """
        import random
        import numpy as np

        def sample():
            a = random.random()
            b = np.random.rand(4)
            rng = np.random.default_rng()
            return a, b, rng
        """,
        select="RPL002",
    )
    assert codes(found) == ["RPL002", "RPL002", "RPL002"]
    assert "OS-seeded" in found[2].message


def test_rpl002_clean_seeded_generator():
    found = run(
        """
        import numpy as np

        def sample(seed):
            rng = np.random.default_rng(seed)
            other = np.random.default_rng(7)
            return rng.random(), other.integers(10)
        """,
        select="RPL002",
    )
    assert found == []


# -- RPL003 superstep purity ------------------------------------------------

def test_rpl003_flags_graph_mutation_and_globals():
    found = run(
        """
        CACHE = {}

        class Sloppy:
            def superstep(self, graph, state):
                global CACHE
                graph.weights = None
                graph.adj[0] = []
                CACHE["x"] = 1
                return state
        """,
        select="RPL003",
    )
    assert len(found) == 4
    assert all(c == "RPL003" for c in codes(found))
    messages = " | ".join(v.message for v in found)
    assert "global" in messages and "graph" in messages


def test_rpl003_flags_execute_writing_dataset_graph():
    found = run(
        """
        class Eng:
            def _execute(self, dataset, workload, cluster, result, scale):
                dataset.graph.labels = None
        """,
        select="RPL003",
    )
    assert codes(found) == ["RPL003"]


def test_rpl003_clean_state_mutation():
    found = run(
        """
        class Tidy:
            def superstep(self, graph, state):
                state.values[graph.sources] = 0.0
                state.iteration += 1
                return state
        """,
        select="RPL003",
    )
    assert found == []


# -- RPL004 mutable class defaults ------------------------------------------

def test_rpl004_flags_mutable_defaults_on_model_classes():
    found = run(
        """
        class MyEngine:
            features = {}
            pending = []

        class MyWorkload(Workload):
            seen = set()
        """,
        select="RPL004",
    )
    assert codes(found) == ["RPL004", "RPL004", "RPL004"]
    assert "features" in found[0].message


def test_rpl004_ignores_immutable_defaults_and_non_model_classes():
    found = run(
        """
        from types import MappingProxyType

        class MyEngine:
            features = MappingProxyType({"a": "b"})
            order = ("load", "execute")

        class Unrelated:
            cache = {}
        """,
        select="RPL004",
    )
    assert found == []


# -- RPL005 exception discipline --------------------------------------------

def test_rpl005_flags_bare_except_everywhere():
    found = run(
        """
        def helper():
            try:
                return 1
            except:
                return 2
        """,
        select="RPL005",
    )
    assert codes(found) == ["RPL005"]
    assert "bare" in found[0].message


def test_rpl005_flags_swallowed_broad_except_in_phase_method():
    found = run(
        """
        class Eng:
            def _execute(self, dataset, workload, cluster, result, scale):
                try:
                    return self.loop()
                except Exception:
                    return None
        """,
        select="RPL005",
    )
    assert codes(found) == ["RPL005"]
    assert "SimulatedFailure" in found[0].message


def test_rpl005_clean_typed_or_reraising_handlers():
    found = run(
        """
        class Eng:
            def _execute(self, dataset, workload, cluster, result, scale):
                try:
                    return self.loop()
                except SimulatedFailure:
                    raise
                except Exception as exc:
                    raise RuntimeError("wrap") from exc

        def parse(text):
            try:
                return int(text)
            except ValueError:
                return 0
        """,
        select="RPL005",
    )
    assert found == []


# -- RPL006 engine metadata -------------------------------------------------

def test_rpl006_flags_concrete_engine_missing_metadata():
    found = run(
        """
        class SparseEngine(Engine):
            key = "SP"

            def _load(self, dataset, workload, cluster, result):
                pass
        """,
        select="RPL006",
    )
    assert codes(found) == ["RPL006"]
    assert "display_name" in found[0].message
    assert "language" in found[0].message


def test_rpl006_accepts_inherited_and_init_assigned_metadata():
    found = run(
        """
        class FullEngine(Engine):
            key = "F"
            display_name = "Full"
            language = "C++"

        class DerivedEngine(FullEngine):
            key = "F2"
            display_name = "Full v2"

        class InitEngine(Engine):
            display_name = "Init"
            language = "Java"

            def __init__(self, mode):
                self.key = f"I-{mode}"
        """,
        select="RPL006",
    )
    assert found == []


def test_rpl006_skips_abstract_and_mixin_classes():
    found = run(
        """
        import abc

        class LoopMixin:
            pass

        class PartialEngine(Engine):
            @abc.abstractmethod
            def _execute(self, dataset, workload, cluster, result, scale):
                ...
        """,
        select="RPL006",
    )
    assert found == []


# -- RPL007 cost accounting -------------------------------------------------

def test_rpl007_flags_clock_and_tracker_writes():
    found = run(
        """
        def cheat(cluster):
            cluster.now = 0.0
            cluster.clock.now = 10.0
            cluster.tracker.network_bytes_sent += 1024
        """,
        select="RPL007",
    )
    assert codes(found) == ["RPL007", "RPL007", "RPL007"]
    assert "advance" in found[0].message


def test_rpl007_clean_api_usage():
    found = run(
        """
        def charge(cluster):
            cluster.advance(5.0)
            cluster.tracker.record_network(sent=10.0, received=10.0)
            now = cluster.now
            return now
        """,
        select="RPL007",
    )
    assert found == []


# -- RPL008 set iteration ---------------------------------------------------

def test_rpl008_flags_accumulation_over_set():
    found = run(
        """
        def total(values):
            acc = 0.0
            for v in set(values):
                acc += v
            return acc
        """,
        select="RPL008",
    )
    assert codes(found) == ["RPL008"]
    assert "sorted" in found[0].message


def test_rpl008_flags_message_emission_over_set_method():
    found = run(
        """
        def fanout(frontier, other, outbox):
            for v in frontier.intersection(other):
                outbox.append(v)
        """,
        select="RPL008",
    )
    assert codes(found) == ["RPL008"]


def test_rpl008_clean_sorted_iteration():
    found = run(
        """
        def total(values):
            acc = 0.0
            for v in sorted(set(values)):
                acc += v
            return acc
        """,
        select="RPL008",
    )
    assert found == []


# -- RPL009 concurrency door ------------------------------------------------

def test_rpl009_flags_concurrency_imports_outside_exec():
    found = lint_source(
        textwrap.dedent(
            """
            import threading
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor
            from concurrent import futures
            """
        ),
        path="src/repro/core/runner.py",
        rules=select_rules(["RPL009"]),
    )
    assert codes(found) == ["RPL009"] * 4
    assert "repro/exec" in found[0].message


def test_rpl009_allowlists_the_executor_package():
    found = lint_source(
        textwrap.dedent(
            """
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing
            """
        ),
        path="src/repro/exec/executor.py",
        rules=select_rules(["RPL009"]),
    )
    assert found == []


def test_rpl009_allowlists_the_serving_package():
    found = lint_source(
        "import queue\nimport selectors\nimport threading\n"
        "done = threading.Event()\n",
        path="src/repro/serve/daemon.py",
        rules=select_rules(["RPL009"]),
    )
    assert found == []


def test_rpl009_flags_shared_state_primitives_inside_the_doors():
    found = lint_source(
        textwrap.dedent(
            """
            import socketserver
            import threading
            from multiprocessing import Lock
            from threading import Condition as Cond

            guard = threading.RLock()
            gate = threading.Semaphore(2)
            """
        ),
        path="src/repro/exec/executor.py",
        rules=select_rules(["RPL009"]),
    )
    assert codes(found) == ["RPL009"] * 5
    assert sorted(v.message.split("'")[1] for v in found) == [
        "Condition", "Lock", "RLock", "Semaphore", "socketserver"]
    assert "queues and events" in found[0].message


def test_rpl009_mutation_condition_back_in_the_daemon():
    # the pre-event-loop daemon guarded its queue with one Condition;
    # putting it back into the real daemon's text must be flagged
    source = os.path.join(SRC_REPRO, "serve", "daemon.py")
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    anchor = "        self.jobs: Dict[str, Job] = {}\n"
    assert anchor in text
    mutated = text.replace(
        anchor, anchor + "        self.cond = threading.Condition()\n")
    rules = select_rules(["RPL009"])
    assert lint_source(text, path=source, rules=rules) == []
    found = lint_source(mutated, path=source, rules=rules)
    assert codes(found) == ["RPL009"]
    assert "'Condition'" in found[0].message


def test_rpl009_ignores_relative_and_unrelated_imports():
    found = run(
        """
        from .concurrent import local_helper
        import itertools
        from functools import lru_cache
        """,
        select="RPL009",
    )
    assert found == []


def test_rpl009_src_repro_has_only_sanctioned_concurrency_doors(
        src_repro_modules):
    # the repo-level contract: every concurrency import in src/repro
    # lives under repro/exec/ or repro/serve/ (linting the real tree
    # proves it)
    rules = select_rules(["RPL009"])
    violations = [v for module in src_repro_modules.values()
                  for v in lint_module(module, rules=rules)]
    assert violations == []


# -- RPL010 recovery sites --------------------------------------------------

def test_rpl010_flags_simulated_failure_catch_outside_recovery_sites():
    found = lint_source(
        textwrap.dedent(
            """
            def sneaky(engine, dataset, workload, spec):
                try:
                    return engine.run(dataset, workload, spec)
                except SimulatedFailure:
                    return None
            """
        ),
        path="src/repro/core/runner.py",
        rules=select_rules(["RPL010"]),
    )
    assert codes(found) == ["RPL010"]
    assert "recovery sites" in found[0].message


def test_rpl010_flags_failure_subtypes_and_dotted_names():
    found = lint_source(
        textwrap.dedent(
            """
            def absorb(compute):
                try:
                    compute()
                except (SimulatedOOM, failures.SimulatedTimeout):
                    pass
                except MPIOverflowError:
                    pass
            """
        ),
        path="src/repro/workloads/pagerank.py",
        rules=select_rules(["RPL010"]),
    )
    assert codes(found) == ["RPL010", "RPL010"]
    assert "SimulatedOOM, SimulatedTimeout" in found[0].message


def test_rpl010_flags_swallowed_broad_except_in_guarded_packages():
    found = lint_source(
        textwrap.dedent(
            """
            def helper(compute):
                try:
                    return compute()
                except Exception:
                    return None
            """
        ),
        path="src/repro/engines/bsp.py",
        rules=select_rules(["RPL010"]),
    )
    assert codes(found) == ["RPL010"]
    assert "recovery cost" in found[0].message


def test_rpl010_allowlists_the_sanctioned_recovery_sites():
    snippet = textwrap.dedent(
        """
        def run(self, dataset, workload, spec):
            try:
                return self._execute(dataset, workload, spec)
            except SimulatedFailure as failure:
                return self._failure_cell(failure)
        """
    )
    for path in ("src/repro/engines/base.py", "src/repro/exec/executor.py"):
        assert lint_source(
            snippet, path=path, rules=select_rules(["RPL010"])
        ) == []


def test_rpl010_clean_specific_or_reraising_handlers_elsewhere():
    found = lint_source(
        textwrap.dedent(
            """
            def parse(text):
                try:
                    return int(text)
                except ValueError:
                    return 0

            def guard(compute):
                try:
                    return compute()
                except Exception:
                    raise
            """
        ),
        path="src/repro/exec/workers.py",
        rules=select_rules(["RPL010"]),
    )
    assert found == []


# -- suppression and parse errors -------------------------------------------

def test_noqa_suppresses_specific_code():
    found = run(
        """
        import time

        def f():
            return time.time()  # noqa: RPL001
        """,
    )
    assert found == []


def test_noqa_bare_suppresses_all_and_wrong_code_does_not():
    src = """
    import time

    def f():
        a = time.time()  # noqa
        b = time.time()  # noqa: RPL004
        return a, b
    """
    found = run(src)
    assert codes(found) == ["RPL001"]
    assert found[0].line == 6


def test_noqa_with_multiple_comma_separated_codes():
    src = """
    import time
    import random

    def f():
        return time.time(), random.random()  # noqa: RPL001, RPL002
    """
    assert run(src) == []


def test_noqa_multiple_codes_suppress_only_whats_listed():
    src = """
    import time
    import random

    def f():
        return time.time(), random.random()  # noqa: RPL002, RPL004
    """
    found = run(src)
    assert codes(found) == ["RPL001"]


def test_parse_error_reported_as_rpl000():
    found = lint_source("def broken(:\n", path="bad.py")
    assert codes(found) == [PARSE_ERROR_CODE]


def test_undecodable_file_reported_as_rpl000_not_traceback(tmp_path):
    bad = tmp_path / "latin.py"
    bad.write_bytes(b'x = "\xff\xfe"\n')
    found = lint_file(str(bad))
    assert codes(found) == [PARSE_ERROR_CODE]
    assert found[0].line == 1
    assert "decode" in found[0].message
    assert lint_main([str(bad)]) == 1


def test_null_byte_file_reported_as_rpl000(tmp_path):
    bad = tmp_path / "nul.py"
    bad.write_bytes(b"x = 1\x00\n")
    found = lint_file(str(bad))
    assert codes(found) == [PARSE_ERROR_CODE]
    assert lint_main([str(bad)]) == 1


# -- the meta-test: this repo honours its own contracts ---------------------

def test_src_repro_is_lint_clean(src_repro_modules):
    violations = [v for module in src_repro_modules.values()
                  for v in lint_module(module)]
    assert violations == [], "\n".join(v.format() for v in violations)


# -- CLI --------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")

    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out
    assert lint_main([str(dirty), "--select", "RPL004"]) == 0
    assert lint_main([str(dirty), "--select", "NOPE"]) == 2


def test_cli_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["violations"][0]["code"] == "RPL001"
    assert payload["violations"][0]["line"] == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES_BY_CODE:
        assert code in out
    # deep rules are part of the listing even without --deep
    for code in ("RPL012", "RPL014", "RPL019", "RPL020"):
        assert code in out
    for retired in ("RPL011", "RPL013", "RPL018"):
        assert retired not in out


def test_cli_select_prefix_and_ignore(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "import time\nimport random\n"
        "t = time.time()\nr = random.random()\n"
    )
    # prefix selects both RPL001 and RPL002
    assert lint_main([str(dirty), "--select", "RPL00"]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out and "RPL002" in out
    # ignoring one of them leaves the other
    assert lint_main([str(dirty), "--ignore", "RPL001"]) == 1
    out = capsys.readouterr().out
    assert "RPL001" not in out and "RPL002" in out
    # ignoring everything is clean
    assert lint_main([str(dirty), "--ignore", "RPL"]) == 0
    # unknown ignore selector is a usage error, same as --select
    assert lint_main([str(dirty), "--ignore", "XYZ"]) == 2


def test_cli_deep_rule_selection_requires_deep_flag(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean), "--select", "RPL012"]) == 2
    err = capsys.readouterr().err
    assert "--deep" in err
    assert lint_main([str(clean), "--deep", "--select", "RPL012"]) == 0


def test_cli_github_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_main([str(dirty), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={dirty},line=2,col=5,title=RPL001::" in out
    assert lint_main([str(dirty), "--select", "RPL004",
                      "--format", "github"]) == 0
    assert "clean" in capsys.readouterr().out


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as repro_main

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert repro_main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out
    assert repro_main(["lint", str(dirty)]) == 1
    assert "RPL001" in capsys.readouterr().out


def _front_end_outputs(argv):
    """stdout and exit code of ``repro lint ARGV`` and ``python -m repro.lint ARGV``."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    procs = [
        subprocess.Popen([sys.executable, "-m", *entry, *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         env=env)
        for entry in (("repro.cli", "lint"), ("repro.lint",))
    ]
    return [(proc.communicate()[0], proc.returncode) for proc in procs]


def test_repro_lint_and_python_m_repro_lint_agree(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    deep = _exec_package(tmp_path / "deep", """
        __all__ = ["work"]

        _MEMO = {}

        def work(task):
            return _MEMO.get(task)

        def prime(task, value):
            _MEMO[task] = value
        """)
    cases = [
        ([str(clean)], 0),
        ([str(dirty)], 1),
        ([deep, "--deep", "--format", "json"], 1),
        (["--list-rules"], 0),
        (["--explain", "RPL999"], 2),
    ]
    for argv, code in cases:
        via_repro, via_module = _front_end_outputs(argv)
        assert via_repro == via_module, argv
        assert via_repro[1] == code, argv
        if "--deep" in argv:
            assert b"RPL019" in via_repro[0]


def _exec_package(root, workers):
    """A one-module ``pkg.exec.workers`` package under ``root``."""
    (root / "pkg" / "exec").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "exec" / "__init__.py").write_text("")
    (root / "pkg" / "exec" / "workers.py").write_text(
        textwrap.dedent(workers))
    return str(root)


def test_repro_cli_lint_deep_subcommand(tmp_path, capsys):
    from repro.cli import main as repro_main

    # a per-process memo the worker fills and reads itself: clean
    clean = _exec_package(tmp_path / "clean", """
        __all__ = ["work"]

        _MEMO = {}

        def work(task):
            return _MEMO.setdefault(task, task * 2)
        """)
    # the parent primes what the worker reads: only the deep pass
    # (RPL019) sees it
    dirty = _exec_package(tmp_path / "dirty", """
        __all__ = ["work"]

        _MEMO = {}

        def work(task):
            return _MEMO.get(task)

        def prime(task, value):
            _MEMO[task] = value
        """)
    assert repro_main(["lint", clean, "--deep"]) == 0
    assert "clean" in capsys.readouterr().out
    assert repro_main(["lint", dirty]) == 0
    capsys.readouterr()
    assert repro_main(["lint", dirty, "--deep"]) == 1
    assert "RPL019" in capsys.readouterr().out


def test_cli_explain_shallow_rule(capsys):
    assert lint_main(["--explain", "RPL001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RPL001 — ")
    assert "rationale:" in out


def test_cli_explain_deep_rule_without_deep_flag(capsys):
    # deep rules are explainable without --deep; the docstring carries
    # the positive/negative example pair
    assert lint_main(["--explain", "rpl020"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RPL020 — bounded-retry")
    assert "Positive (flagged)::" in out
    assert "Negative (clean)::" in out


def test_cli_explain_unknown_code_exits_2(capsys):
    retired = ("RPL011", "RPL013", "RPL015", "RPL018")
    for code in ("RPL999",) + retired:
        assert lint_main(["--explain", code]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code" in err
        assert "RPL020" in err  # the known-codes list includes deep rules
        known = err.split("known codes:")[1]
        assert not any(code in known for code in retired)
