"""RPL013 — cost-accounting completeness: no untraced simulated work.

PR 3's observability contract is that every simulated cost lands inside
an ``obs`` span: the journal's per-phase/per-superstep breakdowns (and
the chaos grid's recovery accounting built on them) are only complete if
no engine charges disk or network bytes outside a span. The ``Cluster``
primitives wrap themselves — ``shuffle``/``hdfs_read``/... open their
own spans around ``tracker.record_*`` — so the residual risk is a
direct ``cluster.tracker.record_disk(...)`` / ``record_network(...)``
call sitting outside any ``with ....span(...)`` block, which silently
drops that work from every trace export.

This rule scans every function reachable from an engine's ``run`` plus
the ``cluster`` package itself and flags tracker disk/network/memory-
integral records that are not lexically enclosed in a span ``with``
block. ``record_memory_integral`` joined the tracked set with the cost
record (``repro.obs.cost``): the memory×time integral it accrues is
billed as GB-hours, so an unspanned call would charge dollars the trace
cannot attribute. Memory snapshots and CPU records stay exempt:
``sample_memory`` records one fleet-wide memory row outside spans by
design (a gauge, not work), and ``record_cpu``, which records a whole
compute phase in one call (the tracker folds the phases once per run),
is only called by the span-wrapped ``parallel_compute`` primitive.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..rules.base import Violation
from ..source import dotted_parts
from .base import DeepRule, concrete_engines
from .program import FunctionInfo, Program
from .reachability import engine_cone

__all__ = ["SpanCoverageRule"]

#: tracker records that represent traceable simulated work (and, for
#: the memory integral, billable cost — see repro.obs.cost)
_WORK_RECORDS = frozenset(
    {"record_disk", "record_network", "record_memory_integral"}
)


def _is_span_with(stmt: ast.AST) -> bool:
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return False
    for item in stmt.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "span"
        ):
            return True
    return False


def _unspanned_records(fn_node: ast.AST) -> List[Tuple[ast.Call, str]]:
    findings: List[Tuple[ast.Call, str]] = []

    def visit(node: ast.AST, in_span: bool) -> None:
        covered = in_span or _is_span_with(node)
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            parts = dotted_parts(node.func)
            if (
                parts
                and parts[-1] in _WORK_RECORDS
                and "tracker" in parts[:-1]
                and not covered
            ):
                findings.append((node, parts[-1]))
        for child in ast.iter_child_nodes(node):
            visit(child, covered)

    visit(fn_node, False)
    return findings


def _scoped_functions(program: Program) -> List[FunctionInfo]:
    picked = {}
    for engine in concrete_engines(program):
        for fn, _binding in engine_cone(program, engine, skip_chaos=True):
            picked[fn.qualname] = fn
    for name in program.modules:
        module = program.modules[name]
        if "cluster" in module.name_parts:
            for fn in module.functions.values():
                picked[fn.qualname] = fn
            for cls in module.classes.values():
                for fn in cls.methods.values():
                    picked[fn.qualname] = fn
    return [picked[q] for q in sorted(picked)]


class SpanCoverageRule(DeepRule):
    """Every disk/network/memory-integral record in an engine cone is spanned."""

    code = "RPL013"
    name = "span-coverage"
    rationale = (
        "simulated disk/network/memory work recorded outside an obs span "
        "disappears from the journal — trace exports, recovery "
        "accounting and the cost record would under-report model cost"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for fn in _scoped_functions(program):
            for call, record in _unspanned_records(fn.node):
                yield self.violation(
                    fn.module.path,
                    call,
                    f"{record}() outside any obs span in {fn.qualname} — "
                    f"wrap the charge in `with ....span(...)` so the "
                    f"journal sees it",
                )
