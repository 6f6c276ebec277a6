"""RPL020 — sleep-and-retry loop with no reachable bound.

A loop that sleeps through the host-clock door (``host_sleep``) is, by
construction, *waiting for the outside world*: admission control to
admit, a daemon to produce a result batch, a crashed worker's backoff
to elapse. When the thing it waits for never happens — the daemon
stalls, the queue stays full — an unbounded poll loop hangs the caller
forever, which is exactly the failure mode the serving layer's
deadlines exist to prevent. Every such loop must carry a reachable
bound: either the loop condition itself can become false, or a branch
inside the body compares *progress* (an attempt counter mutated in the
loop, or a clock reading) against a limit and exits.

Mechanically, the rule examines every ``while`` loop whose body's
call closure — followed conservatively through *same-module* functions
only, so a loop that merely dispatches into another subsystem's own
retry machinery is not charged for that subsystem's sleeps — reaches a
``host_sleep`` call. A loop with a non-constant test passes (the
condition is the bound). A ``while True:`` must contain an ``if``
whose test holds a comparison against something that changes per
iteration — a name assigned in the loop body (``attempt >= retries``
after ``attempt += 1``) or a host-clock reading (``host_now() >=
deadline``) — and
that guards a ``break``, ``return``, or ``raise``. Data-dependent
exits alone (``if batch["complete"]: return``) do not count: they are
the condition being waited for, not a bound on the wait.

Positive (flagged)::

    while True:
        batch = link.results(job_id)
        if batch["complete"]:       # the awaited event, not a bound
            return batch
        host_sleep(0.05)

Negative (clean)::

    deadline = host_now() + timeout
    while True:
        if host_now() >= deadline:  # progress against a limit
            raise TimeoutError(job_id)
        batch = link.results(job_id)
        if batch["complete"]:
            return batch
        host_sleep(0.05)
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..callgraph import call_sites, resolve_targets
from ..program import ClassInfo, FunctionInfo, Program
from .base import ProgramRule, Violation

__all__ = ["BoundedRetryRule"]

#: the host-clock door's sleeping and reading primitives (obs/hostclock.py)
_SLEEP_NAME = "host_sleep"
_NOW_NAME = "host_now"

_Node = Tuple[FunctionInfo, Optional[ClassInfo]]


def _node_key(node: _Node) -> Tuple[str, str]:
    fn, binding = node
    return (fn.qualname, binding.qualname if binding else "")


def _loop_reaches_sleep(
    program: Program,
    fn: FunctionInfo,
    loop: ast.While,
) -> bool:
    """Does the loop body's same-module call closure reach host_sleep?"""
    module = fn.module
    binding = fn.owner
    in_loop = {id(n) for n in ast.walk(loop) if isinstance(n, ast.Call)}

    stack: List[_Node] = []

    def expand(node: _Node, only: Optional[Set[int]] = None) -> bool:
        """Push same-module callees; True when a site is the sleep itself."""
        for site in call_sites(node[0]):
            if only is not None and id(site.node) not in only:
                continue
            if site.name == _SLEEP_NAME:
                return True
            for target in resolve_targets(program, site, node[0], node[1]):
                if target[0].module is module:
                    stack.append(target)
        return False

    if expand((fn, binding), only=in_loop):
        return True
    seen: Set[Tuple[str, str]] = set()
    while stack:
        node = stack.pop()
        key = _node_key(node)
        if key in seen:
            continue
        seen.add(key)
        if expand(node):
            return True
    return False


def _loop_assigned_names(loop: ast.While) -> Set[str]:
    """Names stored (assignment, augmented, for-target) in the loop body."""
    names: Set[str] = set()
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
    return names


def _is_clock_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == _NOW_NAME


def _bounding_compare(test: ast.expr, assigned: Set[str]) -> bool:
    """A comparison against per-iteration progress: counter or clock.

    An arbitrary call in a comparison (``response.get("error") !=
    "queue-full"``) is data-dependent — only a host-clock reading
    (``host_now() >= deadline``) or a name the loop body mutates
    (``attempt >= retries``) measures the wait itself.
    """
    for sub in ast.walk(test):
        if not isinstance(sub, ast.Compare):
            continue
        for operand in [sub.left] + list(sub.comparators):
            if _is_clock_call(operand):
                return True  # deadline check: host_now() >= deadline
            if isinstance(operand, ast.Name) and operand.id in assigned:
                return True  # attempt counter mutated in the body
    return False


def _guards_exit(branch: ast.If) -> bool:
    return any(
        isinstance(sub, (ast.Break, ast.Return, ast.Raise))
        for sub in ast.walk(branch)
    )


def _loop_is_bounded(loop: ast.While) -> bool:
    test = loop.test
    if not (isinstance(test, ast.Constant) and test.value):
        return True  # the condition itself can end the loop
    assigned = _loop_assigned_names(loop)
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.If)
                and _guards_exit(sub)
                and _bounding_compare(sub.test, assigned)
            ):
                return True
    return False


class BoundedRetryRule(ProgramRule):
    """Flag host-sleeping ``while`` loops that can never give up."""

    code = "RPL020"
    name = "bounded-retry"
    rationale = (
        "a sleep-and-retry loop without a reachable bound hangs forever "
        "when the condition it polls never comes true — bound it with an "
        "attempt counter or a host-clock deadline"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.While):
                    continue
                if _loop_is_bounded(node):
                    continue
                if not _loop_reaches_sleep(program, fn, node):
                    continue
                yield self.violation(
                    fn.module.source,
                    node,
                    f"this 'while' loop in '{fn.name}' sleeps through "
                    f"host_sleep but has no reachable bound — its test is "
                    f"constant and no branch compares an in-loop counter "
                    f"or a clock reading before break/return/raise; bound "
                    f"the attempts or check a deadline",
                )
