"""Rule plumbing: the Violation record and the per-file Rule."""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..source import SourceModule

__all__ = ["Violation", "Rule", "iter_methods"]


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a file position."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        """flake8-style one-liner: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


class Rule(abc.ABC):
    """One checkable contract, with a stable code and rationale."""

    #: stable identifier used in reports and ``# noqa`` comments
    code: str = ""
    #: short human name shown by ``--list-rules``
    name: str = ""
    #: one-line statement of the contract this rule enforces
    rationale: str = ""

    @abc.abstractmethod
    def check(self, module: SourceModule) -> Iterator[Violation]:
        """Yield every violation of this rule in ``module``."""

    def violation(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Violation:
        """Build a Violation anchored at ``node``."""
        return Violation(
            code=self.code,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(code={self.code!r})"


def iter_methods(
    cls: ast.ClassDef, names: Optional[Tuple[str, ...]] = None
) -> Iterator[ast.FunctionDef]:
    """The class body's (sync and async) method definitions, by name."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if names is None or node.name in names:
                yield node
