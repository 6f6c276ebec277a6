"""RPL012 — determinism taint: nothing unordered reaches a RunResult.

The repo's headline guarantee — same seed ⇒ byte-identical journals,
parallel == sequential bit-for-bit — holds only if no value flowing into
a :class:`RunResult` field or a Journal payload depends on unordered
iteration, unseeded randomness, host time, or other run-to-run-varying
sources. The per-file rules catch the easy shapes file-locally (RPL001
wall-clock, RPL002 RNG, RPL008 set accumulation); this rule applies the
stricter taint policy to exactly the functions whose return values can
reach result/journal state: everything reachable from an engine's
``run`` (chaos included — recovery costs land in the journal too) plus
the whole ``obs`` package.

Flagged sources inside that cone:

- iterating a set expression at all (for / comprehension), not just
  when accumulating — order-dependent even when the body looks pure;
- ``.pop()`` with no argument on a set expression (arbitrary element);
- host-clock calls (RPL001's banned list) and unseeded RNG (RPL002's
  classifier) — re-checked here because the cone crosses files the
  per-file allowlists may not cover;
- unsorted ``os.listdir`` / ``os.scandir`` / ``glob.glob`` /
  ``glob.iglob`` (filesystem order is platform-dependent);
- ``uuid.uuid1()`` / ``uuid.uuid4()`` (host/time/random identity).

Order-insensitive consumers (``sorted``, ``min``, ``max``, ``len``,
``sum``, ``any``, ``all``) neutralize the *order* sources inside their
arguments; value sources (time, RNG, uuid) stay flagged everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..program import ClassInfo, FunctionInfo, Program
from ..reachability import engine_cone
from ..source import dotted_name
from .base import ProgramRule, Violation
from .rpl001_wallclock import _BANNED as _BANNED_CLOCKS
from .rpl001_wallclock import _is_allowlisted as _hostclock_door
from .rpl002_randomness import RandomnessRule
from .rpl008_set_iteration import _set_expression as set_expression

__all__ = ["DeterminismTaintRule"]

#: callables whose result depends on filesystem enumeration order
_FS_ORDER = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: callables whose value varies run to run by construction
_IDENTITY = frozenset({"uuid.uuid1", "uuid.uuid4"})

#: consumers that erase iteration order from their argument
_ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "min", "max", "len", "sum", "any", "all",
})

_RNG = RandomnessRule()


def concrete_engines(program: Program) -> List[ClassInfo]:
    """Every instantiable Engine subclass, sorted by qualified name.

    A class is a concrete engine when a class named ``Engine`` appears
    in its static MRO (beyond itself) and no method resolved through
    that MRO is still abstract.
    """
    engines = []
    for qualname in sorted(program.classes):
        cls = program.classes[qualname]
        if cls.name == "Engine":
            continue
        linear = program.mro(cls)
        if not any(c.name == "Engine" for c in linear[1:]):
            continue
        method_names = {name for c in linear for name in c.methods}
        resolved = (program.resolve_method(cls, n) for n in method_names)
        if any(fn is not None and fn.is_abstract for fn in resolved):
            continue
        engines.append(cls)
    return engines


def _scoped_functions(program: Program) -> List[FunctionInfo]:
    """Engine cones (chaos included) plus every function in ``obs``."""
    picked = {}
    for engine in concrete_engines(program):
        for fn, _binding in engine_cone(program, engine, skip_chaos=False):
            picked[fn.qualname] = fn
    for name in program.modules:
        if "obs" in program.modules[name].name_parts:
            module = program.modules[name]
            for fn in module.functions.values():
                picked[fn.qualname] = fn
            for cls in module.classes.values():
                for fn in cls.methods.values():
                    picked[fn.qualname] = fn
    return [picked[q] for q in sorted(picked)]


class DeterminismTaintRule(ProgramRule):
    """No unordered/unseeded/host-varying source in the result cone."""

    code = "RPL012"
    name = "determinism-taint"
    rationale = (
        "RunResult fields and Journal payloads must be byte-identical "
        "across reruns; set order, unseeded RNG, host time, and "
        "filesystem order must not flow into them"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for fn in _scoped_functions(program):
            if _hostclock_door(fn.module.path):
                # the one sanctioned wall-clock module (see RPL001):
                # it profiles the simulator, never a simulated quantity
                continue
            imports = fn.module.source.imports
            for node, message in self._scan(fn.node, imports):
                yield self.violation(fn.module.source, node, message)

    def _scan(
        self, root: ast.AST, imports
    ) -> List[Tuple[ast.AST, str]]:
        findings: List[Tuple[ast.AST, str]] = []
        order_safe_nodes: Set[int] = set()

        def visit(node: ast.AST, order_safe: bool) -> None:
            safe_here = order_safe or id(node) in order_safe_nodes
            if isinstance(node, ast.Call):
                resolved = imports.resolve(dotted_name(node.func))
                if resolved in _BANNED_CLOCKS:
                    findings.append((
                        node,
                        f"host-clock call {resolved}() in the result cone "
                        f"— simulated quantities come from cluster.now",
                    ))
                elif resolved in _IDENTITY:
                    findings.append((
                        node,
                        f"{resolved}() varies per run — derive identities "
                        f"from seeds or coordinates",
                    ))
                elif resolved in _FS_ORDER and not safe_here:
                    findings.append((
                        node,
                        f"{resolved}() enumerates in platform-dependent "
                        f"order — wrap in sorted(...)",
                    ))
                elif resolved:
                    rng_finding = _RNG._classify(resolved, node)
                    if rng_finding:
                        findings.append((
                            node,
                            f"nondeterministic RNG in the result cone: "
                            f"{rng_finding}",
                        ))
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SAFE_CONSUMERS
                ):
                    for arg in node.args:
                        order_safe_nodes.add(id(arg))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args
                    and not node.keywords
                    and set_expression(node.func.value)
                ):
                    findings.append((
                        node,
                        "set .pop() removes an arbitrary element — "
                        "order-dependent value in the result cone",
                    ))
            if isinstance(node, (ast.For, ast.AsyncFor)) and not safe_here:
                described = set_expression(node.iter)
                if described and id(node.iter) not in order_safe_nodes:
                    findings.append((
                        node,
                        f"iteration over {described} in the result cone — "
                        f"set order is hash-dependent; iterate sorted(...)",
                    ))
            if isinstance(node, ast.comprehension) and not safe_here:
                described = set_expression(node.iter)
                if described and id(node.iter) not in order_safe_nodes:
                    findings.append((
                        node.iter,
                        f"comprehension over {described} in the result "
                        f"cone — set order is hash-dependent; iterate "
                        f"sorted(...)",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child, safe_here)

        visit(root, False)
        findings.sort(key=lambda f: (f[0].lineno, f[0].col_offset, f[1]))
        return findings
