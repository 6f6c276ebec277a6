"""Deep-rule plumbing: the DeepRule ABC and engine-model helpers.

Deep rules check a :class:`~repro.lint.deep.program.Program` rather than
one module, but they emit the same :class:`~repro.lint.rules.base.Violation`
records as the shallow pass so the reporters and ``# noqa`` filtering
treat both passes uniformly.
"""

from __future__ import annotations

import abc
import ast
from typing import Dict, FrozenSet, Iterator, List, Optional

from ..rules.base import Violation
from .program import ClassInfo, Program

__all__ = [
    "DeepRule",
    "DEFAULT_MODEL_PRIMITIVES",
    "concrete_engines",
    "model_primitive_table",
    "parse_primitive_set",
]

#: fallback copy of engines/base.py's MODEL_PRIMITIVES — used when the
#: analyzed tree does not include an ``engines.base`` module (test
#: fixtures); the real table is parsed statically from the tree so the
#: contract lives with the engines, not the linter
DEFAULT_MODEL_PRIMITIVES: Dict[str, FrozenSet[str]] = {
    "bsp": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "gas": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "dataflow": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
    }),
    "block-centric": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "barrier", "hdfs_read", "hdfs_write", "sample_memory",
        "gather_to_master",
    }),
    "mapreduce": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "local_disk_io", "sample_memory",
    }),
    "relational": frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "local_disk_io", "sample_memory",
    }),
    "single-thread": frozenset({
        "advance", "uniform_compute", "local_disk_io", "sample_memory",
    }),
}


class DeepRule(abc.ABC):
    """One whole-program contract, with a stable code and rationale."""

    code: str = ""
    name: str = ""
    rationale: str = ""

    @abc.abstractmethod
    def check_program(self, program: Program) -> Iterator[Violation]:
        """Yield every violation of this rule across ``program``."""

    def violation(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=self.code,
            message=message,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(code={self.code!r})"


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


def parse_primitive_set(node: ast.expr) -> Optional[FrozenSet[str]]:
    """Statically evaluate a ``frozenset({...})`` / set-literal of strings."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name not in ("frozenset", "set") or len(node.args) != 1:
            return None
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        values = []
        for elt in node.elts:
            if not isinstance(elt, ast.Constant) or not isinstance(
                elt.value, str
            ):
                return None
            values.append(elt.value)
        return frozenset(values)
    return None


def model_primitive_table(program: Program) -> Dict[str, FrozenSet[str]]:
    """The model → allowed-primitives map, parsed from ``engines.base``.

    Falls back to :data:`DEFAULT_MODEL_PRIMITIVES` when the analyzed
    tree has no ``engines.base`` module or its table is unparseable.
    """
    for name in sorted(program.modules):
        if name == "engines.base" or name.endswith(".engines.base"):
            node = program.modules[name].assigns.get("MODEL_PRIMITIVES")
            if isinstance(node, ast.Dict):
                table: Dict[str, FrozenSet[str]] = {}
                for key, value in zip(node.keys, node.values):
                    if not isinstance(key, ast.Constant):
                        continue
                    parsed = parse_primitive_set(value)
                    if parsed is not None:
                        table[str(key.value)] = parsed
                if table:
                    return table
    return dict(DEFAULT_MODEL_PRIMITIVES)
