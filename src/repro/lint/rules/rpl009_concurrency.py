"""RPL009 — concurrency ban: scheduler doors only (``exec``, ``serve``).

The simulation models distributed execution with *simulated* clocks and
deterministic cost accounting; host-level concurrency anywhere inside
the model would let scheduling nondeterminism leak into results (span
orders, metric interleavings, iteration counts). Real parallelism
belongs to the layers *around* the model — the experiment executor in
``repro/exec/``, which fans out whole independent cells and proves
bit-equivalence with the sequential path, and the serving layer in
``repro/serve/``, whose one event loop hands every client's work to
one executor thread running that same executor. Mirroring RPL001's
single-wall-clock-door pattern, every import of ``threading``,
``multiprocessing``, or ``concurrent.futures`` outside those packages
is a violation, so the repo's entire concurrency surface stays
auditable in two directories that never compute a simulated quantity.

Inside the doors, threads share no mutable state: they hand work over
through queues, events and the serve loop's wake socket. So the doors
may not name a lock primitive (``Lock``, ``RLock``, ``Condition``,
``Semaphore``, ``BoundedSemaphore``, ``Barrier``) or the thread-per-
connection ``socketserver`` machinery; a lock would be the first sign
of state that two threads both write.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..source import SourceModule
from .base import Rule, Violation

__all__ = ["ConcurrencyRule"]

#: module families that create host-level concurrency
_BANNED_ROOTS = ("threading", "multiprocessing", "concurrent")

#: names that share memory between threads: banned inside the doors
_SHARED_STATE = ("Lock", "RLock", "Condition", "Semaphore",
                 "BoundedSemaphore", "Barrier", "socketserver")

#: the sanctioned concurrency packages (path fragment match, both
#: separators so Windows checkouts stay covered): the cell executor and
#: the serving layer that feeds it
_ALLOWED_FRAGMENTS = (
    "repro/exec/",
    "repro\\exec\\",
    "repro/serve/",
    "repro\\serve\\",
)


def _is_allowlisted(path: str) -> bool:
    return any(fragment in path for fragment in _ALLOWED_FRAGMENTS)


def _banned_root(module_name: Optional[str]) -> Optional[str]:
    if not module_name:
        return None
    root = module_name.split(".", 1)[0]
    return root if root in _BANNED_ROOTS else None


def _shared_state_names(node: ast.AST) -> Iterator[str]:
    """Banned shared-state names one node spells out (import or attribute)."""
    if isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.Import):
        names = [alias.name.split(".", 1)[0] for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [(node.module or "").split(".", 1)[0]]
        names += [alias.name for alias in node.names]
    else:
        return
    for name in names:
        if name in _SHARED_STATE:
            yield name


class ConcurrencyRule(Rule):
    """Ban thread/process machinery outside the executor package."""

    code = "RPL009"
    name = "concurrency-door"
    rationale = (
        "host-level concurrency is nondeterministic; all of it lives in "
        "repro/exec (the scheduler) and repro/serve (the daemon), never "
        "inside the simulation, and even there threads share no state "
        "a lock would have to guard"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if _is_allowlisted(module.path):
            for node in module.nodes:
                for name in _shared_state_names(node):
                    yield self.violation(
                        module,
                        node,
                        f"shared-state primitive {name!r} in a concurrency "
                        f"door — threads here hand work over through "
                        f"queues and events, never through locked state",
                    )
            return
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _banned_root(alias.name)
                    if root:
                        yield self._flag(module, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                # absolute imports only: a relative ``from .concurrent``
                # is a local module, not the stdlib family
                if node.level == 0 and _banned_root(node.module):
                    yield self._flag(module, node, node.module or "")

    def _flag(self, module: SourceModule, node: ast.AST, name: str) -> Violation:
        return self.violation(
            module,
            node,
            f"concurrency import {name!r} outside repro/exec and "
            f"repro/serve — cells parallelize through the executor, "
            f"never inside the model",
        )
