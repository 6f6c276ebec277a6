"""Deep-rule plumbing: the DeepRule ABC and the concrete-engine finder.

Deep rules check a :class:`~repro.lint.deep.program.Program` rather than
one module, but they emit the same :class:`~repro.lint.rules.base.Violation`
records as the shallow pass so the reporters and ``# noqa`` filtering
treat both passes uniformly.
"""

from __future__ import annotations

import abc
import ast
from typing import Iterator, List

from ..rules.base import Violation
from .program import ClassInfo, Program

__all__ = ["DeepRule", "concrete_engines"]


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
