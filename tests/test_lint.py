"""repro.lint: every RPL rule has a positive and a negative fixture,
noqa suppression works, the CLI exits correctly, and — the contract the
whole package exists for — src/repro itself is lint-clean, with a
report that does not depend on the hash seed. The whole-tree checks
lint the session's shared parse of src/repro."""

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
    Violation,
    expand_selectors,
    lint_modules,
    load_module,
)
from repro.lint.cli import main as lint_main
from repro.lint.reporters import render_json

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
REPO_SRC = os.path.abspath(os.path.join(SRC_REPRO, ".."))


def codes(violations):
    return [v.code for v in violations]


def lint_source(text, path="<string>", rules=None):
    """Lint ``text`` standing for the file at ``path``."""
    module = load_module(path, text)
    if isinstance(module, Violation):
        return [module]
    return lint_modules({path: module}, rules)


def run(snippet, select=None):
    rules = [RULES_BY_CODE[select]] if select else None
    return lint_source(textwrap.dedent(snippet), path="fixture.py", rules=rules)


# -- registry ---------------------------------------------------------------

#: codes whose rules a type, a census or a run replaced; never reused
RETIRED = ("RPL004", "RPL006", "RPL007", "RPL011", "RPL012", "RPL013",
           "RPL014", "RPL015", "RPL016", "RPL017", "RPL018", "RPL019",
           "RPL020")


def test_registry_covers_rpl001_through_rpl010():
    # RPL004, RPL006 and RPL007 are retired
    assert [rule.code for rule in ALL_RULES] == [
        "RPL001", "RPL002", "RPL003", "RPL005", "RPL008", "RPL009", "RPL010"]
    assert len(RULES_BY_CODE) == len(ALL_RULES)
    for rule in ALL_RULES:
        assert rule.name and rule.rationale


def test_select_rules_rejects_unknown_code(tmp_path, capsys):
    # the retired codes are unknown to --select and --ignore
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    for code in ("RPL999",) + RETIRED:
        assert lint_main([str(clean), "--select", code]) == 2
        assert "no rule code matches" in capsys.readouterr().err
        assert lint_main([str(clean), "--ignore", code]) == 2


def test_expand_selectors_prefix_matching():
    available = ["RPL001", "RPL002", "RPL009", "RPL010", "RPL011", "RPL012"]
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


def test_expand_selectors_rpl01_matches_rpl010_alone():
    # RPL011-RPL020 are retired, so the prefix matches one rule
    assert expand_selectors(["RPL01"], RULES_BY_CODE) == ["RPL010"]
    for retired in RETIRED:
        with pytest.raises(KeyError):
            expand_selectors([retired], RULES_BY_CODE)


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
        rules=[RULES_BY_CODE["RPL009"]],
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
        rules=[RULES_BY_CODE["RPL009"]],
    )
    assert found == []


def test_rpl009_allowlists_the_serving_package():
    found = lint_source(
        "import queue\nimport selectors\nimport threading\n"
        "done = threading.Event()\n",
        path="src/repro/serve/daemon.py",
        rules=[RULES_BY_CODE["RPL009"]],
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
        rules=[RULES_BY_CODE["RPL009"]],
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
    rules = [RULES_BY_CODE["RPL009"]]
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
    assert lint_modules(src_repro_modules, [RULES_BY_CODE["RPL009"]]) == []


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
        rules=[RULES_BY_CODE["RPL010"]],
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
        rules=[RULES_BY_CODE["RPL010"]],
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
        rules=[RULES_BY_CODE["RPL010"]],
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
            snippet, path=path, rules=[RULES_BY_CODE["RPL010"]]
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
        rules=[RULES_BY_CODE["RPL010"]],
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
        b = time.time()  # noqa: RPL002
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
        return time.time(), random.random()  # noqa: RPL002, RPL005
    """
    found = run(src)
    assert codes(found) == ["RPL001"]


def test_noqa_line_covered_by_two_rules(tmp_path, capsys):
    # two codes anchored on one line: each is suppressed only by name
    target = tmp_path / "helpers.py"
    body = textwrap.dedent("""
        import random
        import time

        def stamp():
            return time.time(), random.random()<NOQA>
        """)
    args = [str(tmp_path), "--select", "RPL001,RPL002", "--format", "json"]

    def lint(noqa):
        target.write_text(body.replace("<NOQA>", noqa))
        code = lint_main(args)
        return code, json.loads(capsys.readouterr().out)["violations"]

    code, found = lint("")
    assert code == 1
    assert {v["code"] for v in found} == {"RPL001", "RPL002"}
    assert len({v["line"] for v in found}) == 1
    assert lint("  # noqa: RPL001, RPL002") == (0, [])
    code, found = lint("  # noqa: RPL001")
    assert code == 1
    assert [v["code"] for v in found] == ["RPL002"]


def test_parse_error_reported_as_rpl000():
    found = lint_source("def broken(:\n", path="bad.py")
    assert codes(found) == [PARSE_ERROR_CODE]


def test_undecodable_file_reported_as_rpl000_not_traceback(tmp_path):
    bad = tmp_path / "latin.py"
    bad.write_bytes(b'x = "\xff\xfe"\n')
    found = load_module(str(bad))
    assert isinstance(found, Violation)
    assert found.code == PARSE_ERROR_CODE
    assert found.line == 1
    assert "decode" in found.message
    assert lint_main([str(bad)]) == 1


def test_null_byte_file_reported_as_rpl000(tmp_path):
    bad = tmp_path / "nul.py"
    bad.write_bytes(b"x = 1\x00\n")
    found = load_module(str(bad))
    assert isinstance(found, Violation)
    assert found.code == PARSE_ERROR_CODE
    assert lint_main([str(bad)]) == 1


# -- the meta-test: this repo honours its own contracts ---------------------

def test_src_repro_is_lint_clean(src_repro_report):
    """src/repro is clean under every rule, and the pass is in budget.

    The pass includes RPL009, so this also proves that every
    concurrency import lives under repro/exec/ or repro/serve/ and that
    neither names a lock primitive.
    """
    violations, elapsed = src_repro_report
    assert violations == [], "\n".join(v.format() for v in violations)
    assert elapsed < 15.0, f"full pass took {elapsed:.1f}s (budget: 15s)"


def _other_hash_seed():
    """A PYTHONHASHSEED that differs from this process's own.

    Under a fixed seed (CI runs this test under PYTHONHASHSEED=0 too)
    the two seeds differ by construction; under a random one they
    differ but for a 2**-32 chance.
    """
    own = os.environ.get("PYTHONHASHSEED", "")
    if own.isdigit():
        return str((int(own) + 1) % 2**32)
    return "4242"


def test_report_is_byte_identical_across_hash_seeds(src_repro_modules,
                                                    src_repro_report):
    # the CLI under another hash seed prints, byte for byte, the report
    # of the in-process pass: no set or dict order leaks into findings
    env = dict(
        os.environ, PYTHONHASHSEED=_other_hash_seed(), PYTHONPATH=REPO_SRC
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json", SRC_REPRO],
        capture_output=True,
        env=env,
    )
    violations, _ = src_repro_report
    expected = render_json(violations, files_checked=len(src_repro_modules))
    assert proc.stdout.decode("utf-8") == expected + "\n"
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    assert json.loads(proc.stdout)["count"] == 0


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
    assert lint_main([str(dirty), "--select", "RPL002"]) == 0
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
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("RPL")]
    assert listed == sorted(RULES_BY_CODE)
    assert len(listed) == 7
    for retired in RETIRED:
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


def test_cli_rejects_the_deep_flag(tmp_path, capsys):
    # one pass runs every rule: --deep is gone
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    with pytest.raises(SystemExit) as exc:
        lint_main([str(clean), "--deep"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


def test_cli_github_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_main([str(dirty), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={dirty},line=2,col=5,title=RPL001::" in out
    assert lint_main([str(dirty), "--select", "RPL002",
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
    cases = [
        ([str(clean)], 0),
        ([str(dirty)], 1),
        ([str(dirty), "--format", "json"], 1),
        ([str(clean), "--deep"], 2),
        (["--list-rules"], 0),
        (["--explain", "RPL999"], 2),
    ]
    for argv, code in cases:
        via_repro, via_module = _front_end_outputs(argv)
        assert via_repro == via_module, argv
        assert via_repro[1] == code, argv


def test_cli_explain_shallow_rule(capsys):
    assert lint_main(["--explain", "RPL001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RPL001 — ")
    assert "rationale:" in out
    assert "obs/hostclock.py" in out  # the rule module's docstring


def test_cli_explain_unknown_code_exits_2(capsys):
    for code in ("RPL999",) + RETIRED:
        assert lint_main(["--explain", code]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code" in err
        known = err.split("known codes:")[1]
        assert known.strip() == ", ".join(sorted(RULES_BY_CODE))
