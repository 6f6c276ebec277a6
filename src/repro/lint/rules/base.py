"""Rule plumbing: the Violation record, the Rule ABC, class-model helpers.

The domain rules need to know which classes in a module are part of the
simulation's object model (Engine subclasses, Workload subclasses).
Inheritance crosses module boundaries, so :func:`model_classes` combines
two static signals: transitive base resolution *within* the module, and
the repo's strict naming convention (every engine class name ends in
``Engine``; the abstract roots are named ``Engine`` / ``Workload``).
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..source import SourceModule, dotted_parts

__all__ = ["Violation", "Rule", "model_classes", "base_names", "iter_methods"]


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


def base_names(cls: ast.ClassDef) -> List[str]:
    """Last segment of each base class expression (``abc.ABC`` → ``ABC``)."""
    names = []
    for base in cls.bases:
        parts = dotted_parts(base)
        if parts:
            names.append(parts[-1])
    return names


def model_classes(
    nodes: Sequence[ast.AST], roots: Tuple[str, ...] = ("Engine", "Workload")
) -> Dict[str, str]:
    """Map each model class name among a module's nodes to its root.

    A class belongs to root ``R`` when its own name is ``R`` or ends with
    ``R`` (the repo's naming convention for cross-module subclasses), one
    of its base names is ``R`` or ends with ``R``, or one of its bases is
    another class in this module already classified under ``R``.
    """
    classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
    classified: Dict[str, str] = {}

    def matches(name: str, root: str) -> bool:
        return name == root or name.endswith(root)

    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in classified:
                continue
            for root in roots:
                direct = matches(cls.name, root) or any(
                    matches(b, root) for b in base_names(cls)
                )
                inherited = any(
                    classified.get(b) == root for b in base_names(cls)
                )
                if direct or inherited:
                    classified[cls.name] = root
                    changed = True
                    break
    return classified


def iter_methods(
    cls: ast.ClassDef, names: Optional[Tuple[str, ...]] = None
) -> Iterator[ast.FunctionDef]:
    """The class body's (sync and async) method definitions, by name."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if names is None or node.name in names:
                yield node
