"""RPL006 — engine metadata completeness.

Table 1, the result-grid headers, and the §7 discussion all key off
three attributes every concrete engine must carry: ``key`` (the
figure abbreviation), ``display_name``, and ``language``. A subclass
that forgets one inherits the abstract root's empty string and renders
blank grid columns. The rule resolves inheritance within a module
(HaLoop ← Hadoop) and accepts ``self.<attr> = ...`` assignments in
``__init__`` (GraphLab builds its key from its mode flags).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..source import SourceModule
from .base import Rule, Violation, base_names, iter_methods

__all__ = ["EngineMetadataRule"]

_REQUIRED = ("key", "display_name", "language")

#: names marking a class as abstract machinery rather than a concrete engine
_ABSTRACT_MARKERS = ("Mixin", "Base", "Abstract")


def _declared_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes the class body sets: class-level or ``self.X`` anywhere."""
    attrs: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                attrs.add(stmt.target.id)
    for method in iter_methods(cls):
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
    return attrs


def _has_abstract_methods(cls: ast.ClassDef) -> bool:
    for method in iter_methods(cls):
        for deco in method.decorator_list:
            name = deco.attr if isinstance(deco, ast.Attribute) else (
                deco.id if isinstance(deco, ast.Name) else None
            )
            if name in ("abstractmethod", "abstractproperty"):
                return True
    return False


class EngineMetadataRule(Rule):
    """Every concrete Engine subclass defines key/display_name/language."""

    code = "RPL006"
    name = "engine-metadata"
    rationale = (
        "Table 1 and the result grids key off key/display_name/language; "
        "a missing attribute renders blank columns"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in module.nodes
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if not self._is_concrete_engine(cls):
                continue
            effective, unresolved_engine_base = self._effective_attrs(
                cls, classes
            )
            missing = [a for a in _REQUIRED if a not in effective]
            if missing and not unresolved_engine_base:
                yield self.violation(
                    module,
                    cls,
                    f"concrete engine {cls.name} does not define "
                    f"{', '.join(missing)} — Table 1 and the grids require "
                    f"all of {', '.join(_REQUIRED)}",
                )

    def _is_concrete_engine(self, cls: ast.ClassDef) -> bool:
        if cls.name == "Engine" or cls.name.startswith("_"):
            return False
        if any(marker in cls.name for marker in _ABSTRACT_MARKERS):
            return False
        engine_ish = cls.name.endswith("Engine") or any(
            b == "Engine" or b.endswith("Engine") for b in base_names(cls)
        )
        return engine_ish and not _has_abstract_methods(cls)

    def _effective_attrs(
        self, cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]
    ):
        """(attrs including in-module bases, saw-unresolvable-engine-base)."""
        attrs: Set[str] = set()
        unresolved = False
        seen: Set[str] = set()
        stack = [cls.name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            node = classes.get(name)
            if node is None:
                # an imported base: if it is itself an engine subclass we
                # cannot see what it defines — be lenient
                if name != "Engine" and name.endswith("Engine"):
                    unresolved = True
                continue
            attrs |= _declared_attrs(node)
            stack.extend(base_names(node))
        return attrs, unresolved
