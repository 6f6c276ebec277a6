"""repro.lint.deep — whole-program determinism and safety analysis.

The shallow pass (RPL001–RPL010) sees one file at a time; this package
parses the whole tree once, builds a module table, static MROs, and a
conservative call graph, and checks the contracts that only exist
*between* files and that no run can catch:

- RPL012 determinism taint — nothing unordered/unseeded/host-varying
  flows into the RunResult/Journal cone;
- RPL014 chaos safety — no broad handler can absorb a reachable
  simulated fault before its recovery is priced;
- RPL019 worker sharing — no ``exec`` module-level mutable state is
  expected to cross a process boundary;
- RPL020 bounded retry — every ``while`` loop that sleeps through the
  host-clock door carries a reachable bound (attempt counter or
  deadline check).

The engine contracts that a run shows exactly are checked by running
them, and their rules are retired (their codes are not reused):

- RPL011 model conformance → ``tests/test_model_contracts.py`` records
  the ``Cluster`` primitives real runs call and checks them against
  each engine's ``model_primitives`` and ``MODEL_PRIMITIVES``;
- RPL013 span coverage → ``ResourceTracker.record_disk``,
  ``record_network`` and ``record_memory_integral`` raise
  :class:`~repro.obs.SpanError` outside a ``cluster`` span, in every run;
- RPL018 cache-key soundness → ``tests/test_import_census.py`` checks
  that every package a cell loads is digested into the cache key, and
  that each ``run_cell`` parameter changes ``cell_key``.

RPL015–RPL017 were static guesses at host cost (pool payloads, loop
digests, superstep hot-loop hygiene). They are retired too: host cost
is measured per layer instead (``perfbench/run.py --trace 1``).

The serving stack needs no lockset analysis: the daemon's event loop
owns all of its state and its one executor thread shares none, and the
shallow RPL009 keeps lock primitives out of ``repro/exec`` and
``repro/serve``.

Usage::

    repro lint --deep src/repro            # shallow + deep, exit 1 on findings
    python -m repro.lint --deep --format json src

Findings carry the same :class:`Violation` shape as the shallow rules
and honour ``# noqa: RPLxxx`` on the flagged line.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..rules.base import Violation
from ..source import SourceModule
from .base import DeepRule
from .program import Program, build_program
from .rpl012_determinism import DeterminismTaintRule
from .rpl014_chaos_safety import ChaosSafetyRule
from .rpl019_worker_sharing import WorkerSharingRule
from .rpl020_bounded_retry import BoundedRetryRule

__all__ = [
    "DeepRule",
    "DEEP_RULES",
    "DEEP_RULES_BY_CODE",
    "Program",
    "build_program",
    "deep_lint_modules",
    "deep_lint_paths",
]

DEEP_RULES = (
    DeterminismTaintRule(),
    ChaosSafetyRule(),
    WorkerSharingRule(),
    BoundedRetryRule(),
)

DEEP_RULES_BY_CODE = {rule.code: rule for rule in DEEP_RULES}


def deep_lint_modules(
    sources: Mapping[str, SourceModule],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Violation]:
    """Run the deep rules over parsed modules keyed by path."""
    if rules is None:
        rules = DEEP_RULES
    program = build_program(sources)
    by_path = {source.path: source for source in sources.values()}
    unique = {}
    for rule in rules:
        for violation in rule.check_program(program):
            source = by_path.get(violation.path)
            if source is not None and source.suppressed(
                violation.code, violation.line
            ):
                continue
            key = (
                violation.path,
                violation.line,
                violation.col,
                violation.code,
                violation.message,
            )
            unique[key] = violation
    return [unique[key] for key in sorted(unique)]


def deep_lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Violation]:
    """Parse every file under ``paths`` and run the deep rules.

    Unparseable files are skipped here — the shallow pass owns RPL000
    reporting for them — so the deep pass analyzes the largest
    consistent subset of the tree.
    """
    from .. import iter_python_files, load_module

    sources = {}
    for path in iter_python_files(paths):
        try:
            module = load_module(path)
        except OSError:
            continue
        if isinstance(module, SourceModule):
            sources[path] = module
    return deep_lint_modules(sources, rules=rules)
