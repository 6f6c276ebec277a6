"""RPL014 — chaos safety: faults can only land in sanctioned handlers.

RPL010 polices failure handling *lexically*: no ``except
SimulatedFailure`` outside the two recovery sites, no swallowed broad
except inside ``engines/``/``exec/``. What it cannot see is a broad
``except Exception`` three modules away whose try body *transitively*
reaches a fault-raising site — ``cluster.advance`` raises
:class:`SimulatedTimeout` past the budget, engines raise OOM/MPI/shuffle
faults mid-superstep — and silently absorbs the fault before
``Engine.run`` prices its recovery. Under chaos injection that handler
turns a measured failure into a healthy-looking number.

This rule computes a whole-program ``can_raise`` fixpoint (seeded by
``raise <FailureType>`` statements and cluster-primitive call sites,
propagated caller-ward over the conservative call graph) and then flags
every broad handler — bare ``except``, ``except Exception``, ``except
BaseException`` — that does not re-raise, sits outside the sanctioned
recovery sites, and guards a try body that can reach a fault-raising
site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..callgraph import call_sites, resolve_targets
from ..program import FunctionInfo, Program
from ..source import dotted_parts
from .base import ProgramRule, Violation
from .rpl010_recovery_sites import (
    _ALLOWED_FRAGMENTS,
    _BROAD,
    _FAILURE_TYPES,
    _named_types,
    _reraises,
)

__all__ = ["ChaosSafetyRule"]

#: the Cluster primitives (cluster/cluster.py): each can raise a
#: simulated failure (``advance`` past the 24-hour budget, for one)
_PRIMITIVES = frozenset({
    "advance",
    "parallel_compute",
    "uniform_compute",
    "shuffle",
    "gather_to_master",
    "broadcast",
    "barrier",
    "hdfs_read",
    "hdfs_write",
    "local_disk_io",
    "sample_memory",
})


def _raises_failure_type(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            exc = sub.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            parts = dotted_parts(exc)
            if parts and parts[-1] in _FAILURE_TYPES:
                return True
    return False


def _has_primitive_site(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ):
            parts = dotted_parts(sub.func)
            if (
                parts
                and parts[-1] in _PRIMITIVES
                and len(parts) >= 2
                and parts[-2] == "cluster"
            ):
                return True
    return False


def _can_raise_set(program: Program) -> Set[str]:
    """Qualnames of functions that may (transitively) raise a fault."""
    can_raise: Set[str] = set()
    callers: Dict[str, List[str]] = {}
    worklist: List[str] = []
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if _raises_failure_type(fn.node) or _has_primitive_site(fn.node):
            can_raise.add(qualname)
            worklist.append(qualname)
        for site in call_sites(fn):
            for target, _binding in resolve_targets(
                program, site, fn, fn.owner
            ):
                callers.setdefault(target.qualname, []).append(qualname)
    while worklist:
        callee = worklist.pop()
        for caller in callers.get(callee, ()):
            if caller not in can_raise:
                can_raise.add(caller)
                worklist.append(caller)
    return can_raise


def _try_body_can_raise(
    program: Program,
    fn: FunctionInfo,
    try_node: ast.Try,
    can_raise: Set[str],
) -> bool:
    for stmt in try_node.body:
        if _raises_failure_type(stmt) or _has_primitive_site(stmt):
            return True
    # a faux FunctionInfo restricted to the try body keeps call-site
    # extraction and resolution identical to the fixpoint's
    body_holder = ast.Module(body=list(try_node.body), type_ignores=[])
    probe = FunctionInfo(
        name=fn.name,
        qualname=fn.qualname,
        module=fn.module,
        node=body_holder,
        owner=fn.owner,
        is_abstract=False,
    )
    for site in call_sites(probe):
        for target, _binding in resolve_targets(program, site, probe, fn.owner):
            if target.qualname in can_raise:
                return True
    return False


class ChaosSafetyRule(ProgramRule):
    """Broad handlers must not absorb reachable simulated faults."""

    code = "RPL014"
    name = "chaos-safety"
    rationale = (
        "a broad except whose try body transitively reaches a fault-"
        "raising site absorbs SimulatedFailures before Engine.run "
        "prices recovery — chaos grids would report healthy times for "
        "runs that ate a fault"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        can_raise = _can_raise_set(program)
        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            path = fn.module.path
            if any(fragment in path for fragment in _ALLOWED_FRAGMENTS):
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    names = set(_named_types(handler.type))
                    broad = handler.type is None or bool(names & _BROAD)
                    if not broad or _reraises(handler):
                        continue
                    if _try_body_can_raise(program, fn, node, can_raise):
                        yield self.violation(
                            fn.module.source,
                            handler,
                            f"broad except in {fn.qualname} can absorb a "
                            f"simulated fault raised inside its try body "
                            f"— catch specific exceptions or re-raise so "
                            f"the fault reaches its recovery site",
                        )
