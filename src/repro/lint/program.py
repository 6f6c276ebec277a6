"""Whole-program model: module table, class table, static MRO.

The whole-program rules reason *across* files, so they need what a
single :class:`~repro.lint.source.SourceModule` cannot give them: which
dotted module a path is (``src/repro/engines/bsp.py`` →
``repro.engines.bsp``), which class a base-class expression refers to
after import aliasing and relative imports, and what a class's
method-resolution order looks like without ever importing the code
under analysis. Everything here is static — built from the ASTs
alone — and deterministic: tables are keyed and iterated in sorted
order so two runs over the same tree produce byte-identical reports.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .source import SourceModule, dotted_parts

__all__ = [
    "module_name_for",
    "ModuleInfo",
    "ClassInfo",
    "FunctionInfo",
    "Program",
    "build_program",
]


def module_name_for(path: str) -> str:
    """Dotted module name, derived by walking up while ``__init__.py`` exists.

    Works on any checkout layout (no sys.path assumptions): the package
    root is simply the first ancestor directory without an
    ``__init__.py``.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    return ".".join(reversed(parts)) or stem


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str  # ``module.func`` or ``module.Class.method``
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    owner: Optional["ClassInfo"]
    is_abstract: bool

    def __repr__(self) -> str:  # keep debugging output short
        return f"FunctionInfo({self.qualname})"


@dataclass
class ClassInfo:
    """One class definition with resolved base references."""

    name: str
    qualname: str  # ``module.Class``
    module: "ModuleInfo"
    node: ast.ClassDef
    base_refs: List[str]  # dotted names after import-alias resolution
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname})"


@dataclass
class ModuleInfo:
    """One parsed file placed in the import namespace."""

    name: str  # dotted module name
    path: str
    source: SourceModule
    is_package: bool
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level simple assignments: name → value expression
    assigns: Dict[str, ast.expr] = field(default_factory=dict)

    @property
    def name_parts(self) -> Tuple[str, ...]:
        return tuple(self.name.split("."))

    def resolve_relative(self, dotted: str) -> str:
        """Resolve a leading-dots import reference against this module."""
        if not dotted.startswith("."):
            return dotted
        level = len(dotted) - len(dotted.lstrip("."))
        rest = dotted[level:]
        base = list(self.name_parts)
        if not self.is_package:
            base = base[:-1]
        base = base[: len(base) - (level - 1)] if level > 1 else base
        return ".".join(base + ([rest] if rest else [])).strip(".")


def _is_abstract(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", []):
        parts = dotted_parts(deco)
        if parts and parts[-1] in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _collect_assigns(body: List[ast.stmt]) -> Dict[str, ast.expr]:
    assigns: Dict[str, ast.expr] = {}
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                assigns[stmt.target.id] = stmt.value
    return assigns


class Program:
    """The analyzed tree: every module, class, and function, cross-linked."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # by dotted name
        self.classes: Dict[str, ClassInfo] = {}  # by qualname
        self.functions: Dict[str, FunctionInfo] = {}  # by qualname
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self._mro_cache: Dict[str, List[ClassInfo]] = {}

    # -- construction -------------------------------------------------------

    def add_module(self, source: SourceModule) -> ModuleInfo:
        name = module_name_for(source.path)
        is_package = os.path.basename(source.path) == "__init__.py"
        info = ModuleInfo(
            name=name, path=source.path, source=source, is_package=is_package
        )
        info.assigns = _collect_assigns(source.tree.body)
        for stmt in source.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._add_class(info, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{name}.{stmt.name}",
                    module=info,
                    node=stmt,
                    owner=None,
                    is_abstract=_is_abstract(stmt),
                )
                info.functions[stmt.name] = fn
                self.functions[fn.qualname] = fn
        self.modules[name] = info
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        refs = []
        for base in node.bases:
            parts = dotted_parts(base)
            if not parts:
                continue
            resolved = module.source.imports.resolve(".".join(parts))
            refs.append(resolved or ".".join(parts))
        cls = ClassInfo(
            name=node.name,
            qualname=f"{module.name}.{node.name}",
            module=module,
            node=node,
            base_refs=refs,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{cls.qualname}.{stmt.name}",
                    module=module,
                    node=stmt,
                    owner=cls,
                    is_abstract=_is_abstract(stmt),
                )
                cls.methods[stmt.name] = fn
                self.functions[fn.qualname] = fn
                self.methods_by_name.setdefault(stmt.name, []).append(fn)
        module.classes[node.name] = cls
        self.classes[cls.qualname] = cls

    def finalize(self) -> None:
        """Sort the by-name index so traversals are deterministic."""
        for fns in self.methods_by_name.values():
            fns.sort(key=lambda f: f.qualname)

    # -- resolution ---------------------------------------------------------

    def resolve_class(
        self, ref: str, from_module: ModuleInfo
    ) -> Optional[ClassInfo]:
        """Find the ClassInfo a base/attribute reference points at."""
        if "." not in ref:
            local = from_module.classes.get(ref)
            if local is not None:
                return local
        dotted = from_module.resolve_relative(ref)
        found = self.classes.get(dotted)
        if found is not None:
            return found
        # re-exports (``from .base import Engine`` then ``from . import
        # Engine`` elsewhere): fall back to the simple name when it is
        # unambiguous across the whole program
        simple = dotted.rsplit(".", 1)[-1]
        candidates = sorted(
            (c for c in self.classes.values() if c.name == simple),
            key=lambda c: c.qualname,
        )
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Static linearization: depth-first, left-to-right, keep-last.

        Keep-last dedup puts shared roots after every subclass, which
        matches C3 on the simple diamonds this codebase uses (mixins +
        a single Engine root).
        """
        cached = self._mro_cache.get(cls.qualname)
        if cached is not None:
            return cached
        order: List[ClassInfo] = []

        def visit(c: ClassInfo, trail: Tuple[str, ...]) -> None:
            if c.qualname in trail:  # cyclic bases: malformed input
                return
            order.append(c)
            for ref in c.base_refs:
                base = self.resolve_class(ref, c.module)
                if base is not None:
                    visit(base, trail + (c.qualname,))

        visit(cls, ())
        seen = set()
        linear: List[ClassInfo] = []
        for c in reversed(order):
            if c.qualname not in seen:
                seen.add(c.qualname)
                linear.append(c)
        linear.reverse()
        self._mro_cache[cls.qualname] = linear
        return linear

    def resolve_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        for c in self.mro(cls):
            if name in c.methods:
                return c.methods[name]
        return None

    def resolve_super_method(
        self, concrete: ClassInfo, defining: Optional[ClassInfo], name: str
    ) -> Optional[FunctionInfo]:
        """What ``super().name(...)`` binds to for a ``concrete`` instance."""
        linear = self.mro(concrete)
        start = 0
        if defining is not None:
            for i, c in enumerate(linear):
                if c.qualname == defining.qualname:
                    start = i + 1
                    break
        for c in linear[start:]:
            if name in c.methods:
                return c.methods[name]
        return None


def build_program(sources: Mapping[str, SourceModule]) -> Program:
    """Assemble a Program from parsed modules keyed by path."""
    program = Program()
    ordered = sorted(sources.values(), key=lambda s: module_name_for(s.path))
    for source in ordered:
        program.add_module(source)
    program.finalize()
    return program
