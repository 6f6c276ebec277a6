"""Conservative call-site extraction and target resolution.

Each function body yields a list of :class:`CallSite` records classified
by shape — ``self.m(...)``, ``super().m(...)``, a plain name call, or an
attribute call on some other receiver. Resolution maps a site to the
program functions it may invoke: self/super calls resolve exactly
through the concrete class's static MRO; name calls resolve through the
import map; attribute calls try an exact dotted resolution first and
fall back to *every* same-named method in the program (sound
over-approximation — the whole-program rules would rather follow one
edge too many than miss a call).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .program import ClassInfo, FunctionInfo, Program
from .source import dotted_parts

__all__ = ["CallSite", "call_sites", "resolve_targets"]


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    kind: str  # "self" | "super" | "name" | "attr"
    name: str  # called method/function simple name
    chain: Optional[Tuple[str, ...]]  # dotted receiver chain, when named


def _classify(call: ast.Call) -> Optional[CallSite]:
    func = call.func
    if isinstance(func, ast.Name):
        return CallSite(node=call, kind="name", name=func.id, chain=(func.id,))
    if not isinstance(func, ast.Attribute):
        return None
    parts = dotted_parts(func)
    if parts is None:
        value = func.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        ):
            return CallSite(node=call, kind="super", name=func.attr, chain=None)
        return CallSite(node=call, kind="attr", name=func.attr, chain=None)
    chain = tuple(parts)
    kind = "self" if chain[0] == "self" and len(chain) == 2 else "attr"
    return CallSite(node=call, kind=kind, name=func.attr, chain=chain)


def call_sites(fn: FunctionInfo) -> List[CallSite]:
    """Every call expression in ``fn``'s body (nested defs included)."""
    sites = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            site = _classify(node)
            if site is not None:
                sites.append(site)
    return sites


def resolve_targets(
    program: Program,
    site: CallSite,
    current: FunctionInfo,
    binding: Optional[ClassInfo],
) -> List[Tuple[FunctionInfo, Optional[ClassInfo]]]:
    """The program functions a call site may invoke, with self bindings."""
    if site.kind == "self":
        cls = binding or current.owner
        if cls is None:
            return []
        target = program.resolve_method(cls, site.name)
        return [(target, cls)] if target else []
    if site.kind == "super":
        cls = binding or current.owner
        if cls is None:
            return []
        target = program.resolve_super_method(cls, current.owner, site.name)
        return [(target, cls)] if target else []
    if site.kind == "name":
        module = current.module
        resolved = module.source.imports.resolve(site.name) or site.name
        dotted = module.resolve_relative(resolved)
        # same-module function first, then the fully qualified name
        local = module.functions.get(dotted)
        if local is not None:
            return [(local, None)]
        fn = program.functions.get(dotted)
        if fn is not None:
            return [(fn, fn.owner)]
        # constructing a class runs its __init__
        cls = program.resolve_class(dotted, module)
        if cls is not None:
            init = program.resolve_method(cls, "__init__")
            return [(init, cls)] if init else []
        return []
    # attr: exact dotted resolution, else every same-named method
    if site.chain is not None:
        module = current.module
        resolved = module.source.imports.resolve(".".join(site.chain))
        dotted = module.resolve_relative(resolved or ".".join(site.chain))
        fn = program.functions.get(dotted)
        if fn is not None:
            return [(fn, fn.owner)]
        owner_name, _, method = dotted.rpartition(".")
        cls = program.classes.get(owner_name)
        if cls is not None:
            target = program.resolve_method(cls, method)
            if target is not None:
                return [(target, cls)]
    candidates = program.methods_by_name.get(site.name, [])
    return [(fn, fn.owner) for fn in candidates]
