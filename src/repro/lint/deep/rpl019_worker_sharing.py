"""RPL019 — module-level mutable state shared across process boundaries.

``exec`` and ``serve`` are the packages allowed to spawn processes and
threads (RPL009's legal concurrency doors), and process boundaries make
module-level mutable state a trap: under ``spawn`` a worker never sees
the parent's writes, under ``fork`` it sees a frozen snapshot, and the
parent never sees the worker's writes back. Code that *looks* like it
communicates through a module dict silently doesn't. The serving
layer's executor thread is held to the same shape: it reaches only the
arguments it was started with, never module globals.

The rule builds the worker cone — everything reachable from functions
shipped to the pool (``pool.submit(fn, ...)``) or exported by a
``workers`` module's ``__all__`` — and classifies every reference to a
module-level dict/list/set in ``exec`` modules as a read or a mutation,
inside or outside that cone. Two patterns are flagged:

* written outside the cone, read inside — the parent primes state the
  worker cannot see;
* written inside the cone, read outside — worker results the parent
  never receives.

State that both sides only read, or that the worker cone alone fills
and consumes (a per-process memo, rebuilt in every worker), is sound
and passes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..rules.base import Violation
from ..source import dotted_parts
from .base import DeepRule
from .program import FunctionInfo, ModuleInfo, Program
from .reachability import Node, reachable

__all__ = ["WorkerSharingRule"]

#: constructors whose module-level result is mutable shared state
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
})

#: method calls that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "clear", "extend", "insert",
    "pop", "popitem", "remove", "discard", "appendleft", "extendleft",
})


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        return bool(parts) and parts[-1] in _MUTABLE_CONSTRUCTORS
    return False


#: pool/executor methods that ship work (and its arguments) to workers
_DISPATCH_METHODS = frozenset({
    "submit", "map", "starmap", "apply", "apply_async", "imap",
    "imap_unordered",
})

#: receiver-name fragments that mark a pool-like object
_POOL_RECEIVERS = ("pool", "executor")


def pool_dispatch(call: ast.Call) -> Optional[str]:
    """The dispatch method name when ``call`` ships work to a pool.

    Matches ``<recv>.submit(...)`` / ``.map(...)`` / ``.apply_async(...)``
    etc. where some segment of the receiver chain names a pool or
    executor (``pool.submit``, ``self.executor.map``). Name-based on
    purpose: the linter never imports the code under analysis.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _DISPATCH_METHODS:
        return None
    parts = dotted_parts(func)
    receiver = parts[:-1] if parts else []
    if not receiver:
        return None
    for segment in receiver:
        lowered = segment.lower()
        if any(marker in lowered for marker in _POOL_RECEIVERS):
            return func.attr
    return None


#: packages under scrutiny: every RPL009 concurrency door
_CONCURRENT_PACKAGES = ("exec", "serve")


def _exec_modules(program: Program) -> List[ModuleInfo]:
    return [
        program.modules[name]
        for name in sorted(program.modules)
        if any(pkg in program.modules[name].name_parts
               for pkg in _CONCURRENT_PACKAGES)
    ]


def _dunder_all(module: ModuleInfo) -> Set[str]:
    node = module.assigns.get("__all__")
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return set()
    return {
        elt.value
        for elt in node.elts
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }


def _worker_cone(program: Program) -> Set[str]:
    """Qualnames of every function a worker process may execute."""
    roots: List[Node] = []
    seen: Set[str] = set()

    def add(fn: Optional[FunctionInfo]) -> None:
        if fn is not None and fn.qualname not in seen:
            seen.add(fn.qualname)
            roots.append((fn, fn.owner))

    for module in _exec_modules(program):
        exported = _dunder_all(module)
        if module.name_parts[-1] == "workers":
            for name in sorted(module.functions):
                if name in exported:
                    add(module.functions[name])
        for node in module.source.nodes:
            if not isinstance(node, ast.Call) or pool_dispatch(node) is None:
                continue
            if not node.args or not isinstance(node.args[0], ast.Name):
                continue
            shipped = node.args[0].id
            target = module.functions.get(shipped)
            if target is None:
                resolved = module.source.imports.resolve(shipped) or shipped
                target = program.functions.get(
                    module.resolve_relative(resolved)
                )
            add(target)
    return {fn.qualname for fn, _ in reachable(program, roots)}


def _binds_locally(fn: FunctionInfo, name: str) -> bool:
    """True when ``name`` is a parameter or plain local of ``fn``."""
    node = fn.node
    args = node.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        if arg.arg == name:
            return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global) and name in sub.names:
            return False
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            for t in ast.walk(sub.target):
                if isinstance(t, ast.Name) and t.id == name:
                    return True
    return False


def _references(
    fn: FunctionInfo, module: ModuleInfo, var: str
) -> Iterator[Tuple[ast.AST, bool]]:
    """(node, is_mutation) for each reference to ``module.var`` in ``fn``.

    Catches the variable as a bare name in its own module and through
    ``from x import var`` / ``x.var`` chains from other modules.
    """

    def refers(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            if fn.module is module and expr.id == var:
                return not _binds_locally(fn, var)
            resolved = fn.module.source.imports.resolve(expr.id)
            if resolved is None:
                return False
            return fn.module.resolve_relative(resolved) == f"{module.name}.{var}"
        parts = dotted_parts(expr)
        if not parts or parts[-1] != var:
            return False
        prefix = ".".join(parts[:-1])
        resolved = fn.module.source.imports.resolve(prefix) or prefix
        return fn.module.resolve_relative(resolved) == module.name

    for node in ast.walk(fn.node):
        if isinstance(node, ast.AugAssign) and refers(node.target):
            yield node, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and refers(target.value):
                    yield node, True
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATORS and refers(node.func.value):
                yield node, True
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), ast.Load
        ):
            if refers(node):
                yield node, False


class WorkerSharingRule(DeepRule):
    """Flag exec module state that cannot survive a process boundary."""

    code = "RPL019"
    name = "cross-process-state-sharing"
    rationale = (
        "module-level mutable state does not cross process boundaries; "
        "workers must re-derive it or receive it in the task payload"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        exec_modules = _exec_modules(program)
        if not exec_modules:
            return
        cone = _worker_cone(program)
        for module in exec_modules:
            for var in sorted(module.assigns):
                value = module.assigns[var]
                if not _is_mutable_value(value):
                    continue
                reads_in, reads_out = [], []
                writes_in, writes_out = [], []
                for other in exec_modules:
                    for fname in sorted(other.functions):
                        self._collect(
                            other.functions[fname], module, var, cone,
                            reads_in, reads_out, writes_in, writes_out,
                        )
                    for cls_name in sorted(other.classes):
                        cls = other.classes[cls_name]
                        for mname in sorted(cls.methods):
                            self._collect(
                                cls.methods[mname], module, var, cone,
                                reads_in, reads_out, writes_in, writes_out,
                            )
                if writes_out and reads_in:
                    yield self.violation(
                        module.path,
                        value,
                        f"'{var}' is written outside the worker cone "
                        f"(e.g. {writes_out[0]}) but read inside it "
                        f"(e.g. {reads_in[0]}) — worker processes never "
                        f"see the parent's writes; ship the value in "
                        f"the task payload or re-derive it per process",
                    )
                elif writes_in and reads_out:
                    yield self.violation(
                        module.path,
                        value,
                        f"'{var}' is written inside the worker cone "
                        f"(e.g. {writes_in[0]}) but read outside it "
                        f"(e.g. {reads_out[0]}) — the parent never sees "
                        f"worker writes; return results through the "
                        f"pool future instead",
                    )

    @staticmethod
    def _collect(
        fn: FunctionInfo,
        module: ModuleInfo,
        var: str,
        cone: Set[str],
        reads_in: List[str],
        reads_out: List[str],
        writes_in: List[str],
        writes_out: List[str],
    ) -> None:
        in_cone = fn.qualname in cone
        for _node, is_mutation in _references(fn, module, var):
            if is_mutation:
                (writes_in if in_cone else writes_out).append(fn.qualname)
            else:
                (reads_in if in_cone else reads_out).append(fn.qualname)
