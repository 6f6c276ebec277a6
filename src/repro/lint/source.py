"""Parsed-source container and import resolution shared by every rule.

A :class:`SourceModule` bundles one file's text, its AST, that AST's
nodes (walked once), and the ``# noqa`` suppression map, so rules never
re-tokenize or re-walk a file. The :class:`ImportMap` resolves local
names back to the fully qualified module path they were imported from
(``np.random.rand`` → ``numpy.random.rand``), which is what lets the
wall-clock and randomness rules see through aliases.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

__all__ = ["SourceModule", "ImportMap", "dotted_parts", "dotted_name", "target_chain"]

#: flake8-compatible suppression comment: ``# noqa`` or ``# noqa: RPL001, RPL005``
_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)


class ImportMap:
    """Maps local binding names to the qualified names they import."""

    def __init__(self) -> None:
        self._bindings: Dict[str, str] = {}

    @classmethod
    def from_nodes(cls, nodes: Iterable[ast.AST]) -> "ImportMap":
        """Collect every import binding among a module's nodes."""
        imports = cls()
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports._bindings[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds the name ``a`` to package a
                        root = alias.name.split(".", 1)[0]
                        imports._bindings[root] = root
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports._bindings[local] = f"{module}.{alias.name}"
        return imports

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the first segment of a dotted name via the bindings."""
        if not dotted:
            return dotted
        head, _, rest = dotted.partition(".")
        target = self._bindings.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string, or None."""
    parts = dotted_parts(node)
    return ".".join(parts) if parts else None


def target_chain(node: ast.AST) -> Optional[List[str]]:
    """Name chain of an assignment target, looking through subscripts.

    ``graph.adj[0].weights`` → ``["graph", "adj", "weights"]``. Returns
    None when the target is not rooted at a plain name (e.g. a call
    result), which no purity rule can reason about statically.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        else:
            return None


@dataclass
class SourceModule:
    """One file's worth of everything a rule needs."""

    path: str
    tree: ast.Module
    #: every node of ``tree`` in ``ast.walk`` order, walked once so the
    #: module-wide scans of every rule share it
    nodes: List[ast.AST]
    imports: ImportMap
    #: line → suppressed codes; None means a bare ``# noqa`` (all codes)
    noqa: Dict[int, Optional[FrozenSet[str]]]

    @classmethod
    def parse(cls, text: str, path: str = "<string>") -> "SourceModule":
        """Parse source text; raises SyntaxError on unparseable input."""
        tree = ast.parse(text, filename=path)
        nodes = list(ast.walk(tree))
        noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match:
                codes = match.group("codes")
                noqa[lineno] = (
                    frozenset(c.strip().upper() for c in codes.split(","))
                    if codes
                    else None
                )
        return cls(
            path=path,
            tree=tree,
            nodes=nodes,
            imports=ImportMap.from_nodes(nodes),
            noqa=noqa,
        )

    def suppressed(self, code: str, line: int) -> bool:
        """True when ``# noqa`` on ``line`` covers ``code``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code in codes
