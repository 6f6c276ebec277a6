"""RPL010 — recovery sites: who may catch a :class:`SimulatedFailure`.

Chaos turns failure handling into part of the measured model: a crash
must reach ``Engine.run``'s single handler (which prices recovery via
the engine's :class:`~repro.engines.base.RecoveryModel` and records the
failure cell), and a worker-process death must reach the executor's
retry policy. An ``except SimulatedFailure`` anywhere else — or a broad
``except Exception`` swallowing inside the engine/executor packages —
short-circuits that path: the fault is absorbed before its recovery
cost is charged, so the run reports a healthy-looking time that the
chaos grid can't trust. Failure types may only be caught at the two
sanctioned recovery sites: ``repro/engines/base.py`` and
``repro/exec/executor.py``.

RPL005 polices *how* exceptions are handled everywhere (no bare
excepts, no swallowed broad excepts in phase methods); this rule
polices *where* the simulation's failure types may be handled at all.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..source import SourceModule, dotted_parts
from .base import Rule, Violation

__all__ = ["RecoverySiteRule"]

#: the simulated failure taxonomy (cluster/failures.py)
_FAILURE_TYPES = frozenset({
    "SimulatedFailure", "SimulatedOOM", "SimulatedTimeout",
    "MPIOverflowError", "ShuffleError",
})

_BROAD = frozenset({"Exception", "BaseException"})

#: packages where failures travel to their recovery site (both
#: separators so Windows checkouts stay covered)
_GUARDED_FRAGMENTS = (
    "repro/engines/", "repro\\engines\\",
    "repro/exec/", "repro\\exec\\",
)

#: the sanctioned recovery sites: Engine.run's failure-to-cell handler
#: and the executor's worker-crash retry path
_ALLOWED_FRAGMENTS = (
    "repro/engines/base.py", "repro\\engines\\base.py",
    "repro/exec/executor.py", "repro\\exec\\executor.py",
)


def _is_guarded(path: str) -> bool:
    return any(fragment in path for fragment in _GUARDED_FRAGMENTS)


def _is_allowlisted(path: str) -> bool:
    return any(fragment in path for fragment in _ALLOWED_FRAGMENTS)


def _named_types(type_node: Optional[ast.AST]) -> Iterator[str]:
    if type_node is None:
        return
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    for node in nodes:
        parts = dotted_parts(node)
        if parts:
            yield parts[-1]


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


class RecoverySiteRule(Rule):
    """Failure types are caught only at the sanctioned recovery sites."""

    code = "RPL010"
    name = "recovery-sites"
    rationale = (
        "a SimulatedFailure absorbed outside Engine.run / the executor "
        "skips recovery pricing — the chaos grid would report healthy "
        "times for runs that silently ate a fault"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if _is_allowlisted(module.path):
            return
        guarded = _is_guarded(module.path)
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = set(_named_types(node.type))
            caught = sorted(names & _FAILURE_TYPES)
            if caught:
                yield self.violation(
                    module,
                    node,
                    f"except {', '.join(caught)} outside the sanctioned "
                    f"recovery sites (engines/base.py, exec/executor.py) — "
                    f"failures must reach Engine.run to be priced",
                )
            elif guarded and names & _BROAD and not _reraises(node):
                yield self.violation(
                    module,
                    node,
                    "broad except without re-raise inside engines//exec "
                    "can absorb a SimulatedFailure before its recovery "
                    "cost is charged — catch specific types or re-raise",
                )
