"""repro.lint.deep: the whole-program pass builds a faithful model of the
tree (modules, MROs, call graph), each deep rule fires on a seeded
mutation of the real engines, the pass is fast and byte-deterministic,
and — the contract the subpackage exists for — src/repro itself is
clean under every rule.

src/repro is parsed once per session (``src_repro_modules`` in
conftest.py) and linted once in-process; mutation tests re-parse only
the file they mutate."""

import json
import os
import re
import subprocess
import sys
import textwrap
import time

import pytest

from repro.lint import lint_module
from repro.lint.deep import (
    DEEP_RULES,
    DEEP_RULES_BY_CODE,
    build_program,
    deep_lint_modules,
    deep_lint_paths,
)
from repro.lint.deep.baseline import (
    filter_baselined,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.deep.program import module_name_for
from repro.lint.reporters import render_json
from repro.lint.rules.base import Violation
from repro.lint.source import SourceModule

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
REPO_SRC = os.path.abspath(os.path.join(SRC_REPRO, ".."))


def rules(code):
    return [DEEP_RULES_BY_CODE[code]]


def codes(violations):
    return [v.code for v in violations]


# -- registry ---------------------------------------------------------------

def test_deep_registry_covers_rpl011_through_rpl020():
    # RPL015-RPL017 are retired and their codes stay unused
    assert sorted(DEEP_RULES_BY_CODE) == [
        "RPL011", "RPL012", "RPL013", "RPL014", "RPL018", "RPL019", "RPL020",
    ]
    assert len(DEEP_RULES) == 7
    for rule in DEEP_RULES:
        assert rule.name and rule.rationale


# -- program model ----------------------------------------------------------

def test_module_name_for_walks_packages():
    assert module_name_for(
        os.path.join(SRC_REPRO, "engines", "bsp.py")
    ) == "repro.engines.bsp"
    assert module_name_for(
        os.path.join(SRC_REPRO, "lint", "__init__.py")
    ) == "repro.lint"


def _program_from(tmp_path, files):
    sources = {}
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        sources[str(path)] = SourceModule.parse(
            textwrap.dedent(text), path=str(path)
        )
    return build_program(sources)


def test_mro_linearizes_mixin_diamonds(tmp_path):
    program = _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            class Engine:
                def run(self):
                    return self.step()

                def step(self):
                    return "base"
            """,
        "pkg/mix.py": """
            class LoopMixin:
                def step(self):
                    return "mixin"
            """,
        "pkg/impl.py": """
            from .base import Engine
            from .mix import LoopMixin

            class FastEngine(LoopMixin, Engine):
                pass
            """,
    })
    fast = program.classes["pkg.impl.FastEngine"]
    names = [c.name for c in program.mro(fast)]
    assert names == ["FastEngine", "LoopMixin", "Engine"]
    # step resolves through the mixin, run through the root
    assert program.resolve_method(fast, "step").qualname == (
        "pkg.mix.LoopMixin.step"
    )
    assert program.resolve_method(fast, "run").qualname == (
        "pkg.base.Engine.run"
    )


def test_super_resolution_skips_past_the_defining_class(tmp_path):
    program = _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            class Engine:
                def _load(self):
                    return "root"
            """,
        "pkg/mid.py": """
            from .base import Engine

            class MidEngine(Engine):
                def _load(self):
                    return super()._load()
            """,
        "pkg/leaf.py": """
            from .mid import MidEngine

            class LeafEngine(MidEngine):
                pass
            """,
    })
    leaf = program.classes["pkg.leaf.LeafEngine"]
    mid = program.classes["pkg.mid.MidEngine"]
    resolved = program.resolve_super_method(leaf, mid, "_load")
    assert resolved.qualname == "pkg.base.Engine._load"


# -- RPL011 on a fixture package (builtin model table fallback) -------------

def test_rpl011_flags_undeclared_and_disallowed_primitives(tmp_path):
    program_dir = tmp_path / "eng"
    (program_dir / "__init__.py").parent.mkdir()
    (program_dir / "__init__.py").write_text("")
    (program_dir / "base.py").write_text(textwrap.dedent("""
        class Engine:
            trace_model = "bsp"

            def run(self, cluster):
                self._load(cluster)
                self._execute(cluster)
        """))
    (program_dir / "toy.py").write_text(textwrap.dedent("""
        from .base import Engine

        class ToyEngine(Engine):
            trace_model = "single-thread"
            model_primitives = frozenset({"advance"})

            def _load(self, cluster):
                cluster.advance(1.0)

            def _execute(self, cluster):
                self._charge(cluster)

            def _charge(self, cluster):
                cluster.shuffle(10.0)

        class BareEngine(Engine):
            def _load(self, cluster):
                pass

            def _execute(self, cluster):
                pass

        class GreedyEngine(Engine):
            trace_model = "single-thread"
            model_primitives = frozenset({"advance", "shuffle"})

            def _load(self, cluster):
                pass

            def _execute(self, cluster):
                pass

        class TidyEngine(Engine):
            model_primitives = frozenset({"advance", "shuffle"})

            def _load(self, cluster):
                cluster.advance(1.0)

            def _execute(self, cluster):
                cluster.shuffle(10.0)
        """))
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL011"))
    messages = {v.message for v in found}
    assert codes(found) == ["RPL011"] * 3
    # ToyEngine: shuffle reached two hops from run but not declared
    assert any(
        "cluster.shuffle()" in m and "ToyEngine" in m for m in messages
    )
    # BareEngine: no declaration at all
    assert any(
        "BareEngine" in m and "model_primitives" in m for m in messages
    )
    # GreedyEngine: declares a primitive its model forbids
    assert any(
        "GreedyEngine" in m and "shuffle" in m and "does not allow" in m
        for m in messages
    )
    # TidyEngine: declares what it reaches, within its (bsp) model
    assert not any("TidyEngine" in m for m in messages)


# -- RPL018-RPL020 on fixture packages: one positive + one negative each ----

_RPL018_COMMON = {
    "pkg/__init__.py": "",
    "pkg/core/__init__.py": "",
    "pkg/engines/__init__.py": "",
    "pkg/workloads/__init__.py": "",
    "pkg/exec/__init__.py": "",
    "pkg/engines/base.py": """
        class Engine:
            def run(self):
                return None
        """,
    "pkg/engines/toy.py": """
        from .base import Engine
        from ..workloads.foo import step

        class ToyEngine(Engine):
            def run(self):
                return step()
        """,
    "pkg/workloads/foo.py": """
        def step():
            return 1
        """,
    "pkg/core/runner.py": """
        from ..engines.toy import ToyEngine

        def run_cell(system, workload, dataset, cluster_size, chaos=None):
            return ToyEngine().run()
        """,
}


def _rpl018_cache_module(packages, keys):
    entries = "\n".join(f'        "{k}": {v},' for k, v in keys.items())
    listed = ", ".join(f'"{p}"' for p in packages)
    return (
        "import hashlib\n"
        "\n"
        f"_RESULT_PACKAGES = ({listed},)\n"
        "\n"
        "def cell_key(task, dataset):\n"
        "    payload = {\n"
        f"{entries}\n"
        "    }\n"
        "    return hashlib.sha256(repr(payload).encode()).hexdigest()\n"
    )


def test_rpl018_flags_missing_package_and_missing_key(tmp_path):
    files = dict(_RPL018_COMMON)
    # "workloads" is reachable from the engine but not digested, and
    # run_cell's chaos parameter never reaches the key dict
    files["pkg/exec/cache.py"] = _rpl018_cache_module(
        ["core", "engines"],
        {
            "system": "task.system", "workload": "task.workload",
            "dataset": "dataset", "cluster_size": "task.cluster_size",
        },
    )
    _program_from(tmp_path, files)
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL018"))
    assert codes(found) == ["RPL018", "RPL018"]
    messages = " ".join(v.message for v in found)
    assert "'workloads'" in messages and "_RESULT_PACKAGES" in messages
    assert "'chaos'" in messages and "stale" in messages


def test_rpl018_complete_key_is_clean(tmp_path):
    files = dict(_RPL018_COMMON)
    files["pkg/exec/cache.py"] = _rpl018_cache_module(
        ["core", "engines", "workloads"],
        {
            "system": "task.system", "workload": "task.workload",
            "dataset": "dataset", "cluster_size": "task.cluster_size",
            "chaos": "task.chaos",
        },
    )
    _program_from(tmp_path, files)
    assert deep_lint_paths([str(tmp_path)], rules=rules("RPL018")) == []


def test_rpl019_flags_parent_written_worker_read_state(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _MEMO = {}

            def work(task):
                return _MEMO.get(task)

            def prime(task, value):
                _MEMO[task] = value
            """,
    })
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "'_MEMO'" in found[0].message
    assert "outside the worker cone" in found[0].message


def test_rpl019_per_process_memo_is_clean(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _LOCAL = {}
            _LIMITS = {"max": 4}

            def work(task):
                if task not in _LOCAL:
                    _LOCAL[task] = task * 2
                return _LOCAL[task]

            def parent_report(tasks):
                return len(tasks)
            """,
    })
    # _LOCAL is filled and read inside the cone (re-derived per
    # process); _LIMITS is read-only everywhere — both are sound
    assert deep_lint_paths([str(tmp_path)], rules=rules("RPL019")) == []


def test_rpl019_flags_worker_written_parent_read_state(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _RESULTS = []

            def work(task):
                _RESULTS.append(task)

            def collect():
                return list(_RESULTS)
            """,
    })
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "inside the worker cone" in found[0].message
    assert "pool future" in found[0].message


_RPL020_CLOCK = {
    "pkg/__init__.py": "",
    "pkg/hostclock.py": """
        import time

        def host_sleep(seconds):
            time.sleep(seconds)

        def host_now():
            return time.monotonic()
        """,
}


def test_rpl020_flags_unbounded_poll_loop(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/poll.py"] = """
        from .hostclock import host_sleep

        def wait_ready(conn):
            while True:
                if conn.ready():
                    return conn.take()
                host_sleep(0.1)
        """
    _program_from(tmp_path, files)
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL020"))
    # the data-dependent exit is the condition being waited for, not a
    # bound on the wait — the loop spins forever when ready() never comes
    assert codes(found) == ["RPL020"]
    assert "wait_ready" in found[0].message
    assert "host_sleep" in found[0].message


def test_rpl020_counter_deadline_and_condition_bounds_are_clean(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/poll.py"] = """
        from .hostclock import host_now, host_sleep

        def wait_counted(conn, retries):
            attempts = 0
            while True:
                if conn.ready():
                    return conn.take()
                if attempts >= retries:
                    raise TimeoutError("gave up")
                attempts += 1
                host_sleep(0.1)

        def wait_deadline(conn, timeout):
            deadline = host_now() + timeout
            while True:
                if conn.ready():
                    return conn.take()
                if host_now() >= deadline:
                    raise TimeoutError("gave up")
                host_sleep(0.1)

        def wait_conditional(conn):
            while not conn.closed():
                host_sleep(0.1)
        """
    _program_from(tmp_path, files)
    # attempt counter, host-clock deadline, and a non-constant loop test
    # are the three sanctioned bounds
    assert deep_lint_paths([str(tmp_path)], rules=rules("RPL020")) == []


def test_rpl020_follows_same_module_calls_only(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/local.py"] = """
        from .hostclock import host_sleep

        def backoff(attempt):
            host_sleep(0.1 * attempt)

        def spin(conn):
            while True:
                if conn.ready():
                    return conn.take()
                backoff(1)
        """
    files["pkg/remote.py"] = """
        from .local import backoff

        def dispatch(conn):
            while True:
                if conn.ready():
                    return conn.take()
                backoff(1)
        """
    _program_from(tmp_path, files)
    found = deep_lint_paths([str(tmp_path)], rules=rules("RPL020"))
    # spin sleeps through a same-module helper and is charged for it;
    # dispatch merely enters another module's machinery, which owns its
    # own bounds — one finding, on local.py
    assert codes(found) == ["RPL020"]
    assert found[0].path.endswith("local.py")
    assert "spin" in found[0].message


# -- seeded mutations of the real tree: each rule fires ---------------------

def _mutated_tree(modules, relpath, mutate):
    """The shared parse with one real file swapped for its mutation.

    Only the mutated file is re-parsed, under its original path, so the
    deep pass sees the real tree with one seeded change.
    """
    path = os.path.join(SRC_REPRO, relpath)
    text = modules[path].text
    mutated = mutate(text)
    assert mutated != text, f"mutation did not apply to {relpath}"
    tree = dict(modules)
    tree[path] = SourceModule.parse(mutated, path=path)
    return tree


def test_rpl011_mutation_forbidden_primitive(src_repro_modules):
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("engines", "giraph.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.broadcast(1.0)\n        cluster.sample_memory()",
            1,
        ),
    )
    found = deep_lint_modules(tree, rules=rules("RPL011"))
    assert codes(found) == ["RPL011"]
    assert "cluster.broadcast()" in found[0].message
    assert "GiraphEngine" in found[0].message


def test_rpl012_mutation_unordered_iteration_leak(src_repro_modules):
    def mutate(s):
        s = s.replace(
            "def _load(",
            "def _leak(self):\n"
            "        out = []\n"
            "        for v in {1, 2}:\n"
            "            out.append(v)\n"
            "        return out\n\n"
            "    def _load(",
            1,
        )
        return s.replace(
            "cluster.hdfs_read(",
            "self._leak()\n        cluster.hdfs_read(",
            1,
        )

    tree = _mutated_tree(
        src_repro_modules, os.path.join("engines", "gelly.py"), mutate
    )
    found = deep_lint_modules(tree, rules=rules("RPL012"))
    assert codes(found) == ["RPL012"]
    assert "set literal" in found[0].message


def test_rpl013_mutation_unwrapped_tracker_record(src_repro_modules):
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.tracker.record_disk(read=1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    found = deep_lint_modules(tree, rules=rules("RPL013"))
    assert codes(found) == ["RPL013"]
    assert "record_disk" in found[0].message
    assert "span" in found[0].message


def test_rpl013_mutation_unspanned_memory_integral(src_repro_modules):
    # the cost record bills GB-hours off record_memory_integral, so an
    # unspanned call is untraceable billed work — RPL013 must fire
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.tracker.record_memory_integral(1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    found = deep_lint_modules(tree, rules=rules("RPL013"))
    assert codes(found) == ["RPL013"]
    assert "record_memory_integral" in found[0].message


def test_rpl013_memory_integral_inside_span_is_clean(src_repro_modules):
    # the same charge wrapped in a span is the sanctioned shape (how
    # the Cluster primitives themselves accrue the integral): no finding
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "with cluster.tracer.span(\"extra\", cat=\"cluster\"):\n"
            "            cluster.tracker.record_memory_integral(1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    assert deep_lint_modules(tree, rules=rules("RPL013")) == []


def test_rpl014_mutation_stray_broad_except(src_repro_modules):
    def mutate(s):
        match = re.search(r"( +)(cluster\.shuffle\([^\n]+\))", s)
        indent, call = match.group(1), match.group(2)
        wrapped = (
            f"{indent}try:\n"
            f"{indent}    {call}\n"
            f"{indent}except Exception:\n"
            f"{indent}    pass"
        )
        return s[: match.start()] + wrapped + s[match.end():]

    tree = _mutated_tree(
        src_repro_modules, os.path.join("engines", "spark.py"), mutate
    )
    found = deep_lint_modules(tree, rules=rules("RPL014"))
    assert codes(found) == ["RPL014"]
    assert "broad except" in found[0].message
    assert "fault" in found[0].message


def test_rpl018_mutation_dropped_result_package(src_repro_modules):
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("exec", "cache.py"),
        lambda s: s.replace('"partitioning", "workloads",', '"partitioning",', 1),
    )
    found = deep_lint_modules(tree, rules=rules("RPL018"))
    assert codes(found) == ["RPL018"]
    assert "'workloads'" in found[0].message
    assert "_RESULT_PACKAGES" in found[0].message


def test_rpl018_mutation_dropped_chaos_key(src_repro_modules):
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("exec", "cache.py"),
        lambda s: s.replace(
            '        "chaos": None if task.chaos is None else task.chaos.to_dict(),\n',
            "",
            1,
        ),
    )
    found = deep_lint_modules(tree, rules=rules("RPL018"))
    assert codes(found) == ["RPL018"]
    assert "'chaos'" in found[0].message
    assert "stale" in found[0].message


def test_rpl019_mutation_parent_primed_dataset_memo(src_repro_modules):
    def mutate(s):
        s = s.replace(
            'dataset = load_dataset(task["dataset"], task["size"])',
            'dataset = _WARM_DATASETS.get((task["dataset"], task["size"])) '
            'or load_dataset(task["dataset"], task["size"])',
            1,
        )
        return s + (
            "\n\n_WARM_DATASETS = {}\n"
            "\n\n"
            "def prime_dataset(name, size):\n"
            "    _WARM_DATASETS[(name, size)] = load_dataset(name, size)\n"
        )

    tree = _mutated_tree(
        src_repro_modules, os.path.join("exec", "workers.py"), mutate
    )
    found = deep_lint_modules(tree, rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "'_WARM_DATASETS'" in found[0].message
    assert "worker processes never see" in found[0].message.lower()


def test_rpl020_mutation_unbounding_the_submit_backoff(src_repro_modules):
    # strip the retry bound from the serve client's submit loop: the
    # queue-full backoff then sleeps forever against a saturated daemon
    tree = _mutated_tree(
        src_repro_modules,
        os.path.join("serve", "client.py"),
        lambda s: s.replace("if rejections >= retries:", "if False:", 1),
    )
    found = deep_lint_modules(tree, rules=rules("RPL020"))
    assert codes(found) == ["RPL020"]
    assert found[0].path.endswith("client.py")
    assert "submit" in found[0].message


# -- the meta-test: the tree honours its own contracts ----------------------

@pytest.fixture(scope="module")
def src_repro_report(src_repro_modules):
    """Findings of the shallow and deep passes over the shared parse.

    The passes run once, and the findings come out in the order
    ``repro lint --deep`` prints them. Returns them with the passes'
    wall time.
    """
    start = time.perf_counter()
    violations = []
    for module in src_repro_modules.values():
        violations.extend(lint_module(module))
    violations.extend(deep_lint_modules(src_repro_modules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations, time.perf_counter() - start


def test_src_repro_is_deep_clean_and_fast(src_repro_report):
    """src/repro is clean under every shallow and deep rule, in budget.

    The shallow pass includes RPL009, so this also proves that every
    concurrency import lives under repro/exec/ or repro/serve/ and that
    neither names a lock primitive.
    """
    violations, elapsed = src_repro_report
    assert violations == [], "\n".join(v.format() for v in violations)
    assert elapsed < 15.0, f"full pass took {elapsed:.1f}s (budget: 15s)"


def test_committed_baseline_is_empty():
    path = os.path.join(os.path.dirname(__file__), "..", "lint-baseline.json")
    assert load_baseline(path) == []


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


def test_deep_report_is_byte_identical_across_hash_seeds(
    src_repro_modules, src_repro_report
):
    # the CLI under another hash seed prints, byte for byte, the report
    # of the in-process pass: no set or dict order leaks into findings
    env = dict(
        os.environ, PYTHONHASHSEED=_other_hash_seed(), PYTHONPATH=REPO_SRC
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--deep",
         "--format", "json", SRC_REPRO],
        capture_output=True,
        env=env,
    )
    violations, _ = src_repro_report
    expected = render_json(violations, files_checked=len(src_repro_modules))
    assert proc.stdout.decode("utf-8") == expected + "\n"
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    assert json.loads(proc.stdout)["count"] == 0


# -- baseline ---------------------------------------------------------------

def test_baseline_roundtrip_ignores_line_numbers(tmp_path):
    path = str(tmp_path / "baseline.json")
    vold = Violation(
        code="RPL013", message="m", path="src\\repro\\x.py", line=10, col=0
    )
    assert write_baseline(path, [vold]) == 1
    baseline = load_baseline(path)
    # same finding on a different line, posix separators: still filtered
    vnew = Violation(
        code="RPL013", message="m", path="src/repro/x.py", line=99, col=4
    )
    assert filter_baselined([vnew], baseline) == []
    other = Violation(
        code="RPL013", message="other", path="src/repro/x.py", line=99, col=4
    )
    assert filter_baselined([other], baseline) == [other]
    assert fingerprint(vold) == fingerprint(vnew)


def test_baseline_loader_tolerates_garbage(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert load_baseline(missing) == []
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    assert load_baseline(str(corrupt)) == []
    wrong_version = tmp_path / "v0.json"
    wrong_version.write_text('{"version": 0, "fingerprints": [["a","b","c"]]}')
    assert load_baseline(str(wrong_version)) == []


# -- noqa across passes -----------------------------------------------------

def test_noqa_line_covered_by_shallow_and_deep_rule(tmp_path):
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    (obs_dir / "__init__.py").write_text("")
    body = textwrap.dedent("""
        def total(values, out):
            for v in {1, 2}:<NOQA>
                out.append(v)
            return out
        """)
    target = obs_dir / "helpers.py"

    from repro.lint.cli import main as lint_main

    target.write_text(body.replace("<NOQA>", ""))
    args = [str(tmp_path), "--deep", "--select", "RPL008,RPL012",
            "--format", "json"]
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 1
    payload = json.loads(buf.getvalue())
    hit_codes = {v["code"] for v in payload["violations"]}
    assert hit_codes == {"RPL008", "RPL012"}
    lines = {v["line"] for v in payload["violations"]}
    assert len(lines) == 1  # both passes anchored on the same loop line

    target.write_text(body.replace("<NOQA>", "  # noqa: RPL008, RPL012"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 0

    # suppressing only the shallow code leaves the deep finding alive
    target.write_text(body.replace("<NOQA>", "  # noqa: RPL008"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 1
    payload = json.loads(buf.getvalue())
    assert {v["code"] for v in payload["violations"]} == {"RPL012"}
