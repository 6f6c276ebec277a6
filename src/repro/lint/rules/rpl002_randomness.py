"""RPL002 — unseeded randomness: every random draw must be replayable.

Synthetic datasets, Voronoi seeds, and partition placement all come
from random draws; the paper's grids are only reproducible because each
draw goes through a ``numpy.random.Generator`` constructed from an
explicit seed. The module-level ``random.*`` and legacy
``numpy.random.*`` functions share hidden global state, and an
argument-less ``default_rng()`` / ``Random()`` seeds from the OS — all
of them make a rerun produce a different benchmark.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..source import SourceModule, dotted_name
from .base import Rule, Violation

__all__ = ["RandomnessRule"]

#: numpy.random attributes that are seeded-generator machinery, not draws
_NUMPY_OK = frozenset({
    "default_rng",
    "Generator",
    "RandomState",  # only as a type reference; calls are caught below
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
})

#: stdlib random attributes that construct an explicitly seedable RNG
_STDLIB_OK = frozenset({"Random", "SystemRandom"})


def _first_arg_missing_or_none(call: ast.Call) -> bool:
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in call.keywords:
        if kw.arg == "seed":
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
    return True


class RandomnessRule(Rule):
    """Require seeded Generator objects for every source of randomness."""

    code = "RPL002"
    name = "unseeded-randomness"
    rationale = (
        "datasets and partitions must replay exactly; use "
        "numpy.random.default_rng(seed), never global RNG state"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve(dotted_name(node.func))
            if not resolved:
                continue
            finding = self._classify(resolved, node)
            if finding:
                yield self.violation(module, node, finding)

    def _classify(self, resolved: str, call: ast.Call) -> Optional[str]:
        if resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if tail not in _STDLIB_OK:
                return (
                    f"{resolved}() uses the shared global RNG — construct "
                    f"random.Random(seed) or numpy.random.default_rng(seed)"
                )
            if tail == "Random" and _first_arg_missing_or_none(call):
                return "random.Random() without a seed is OS-seeded"
            return None
        if resolved.startswith("numpy.random."):
            tail = resolved.split(".")[2]
            if tail not in _NUMPY_OK:
                return (
                    f"legacy global-state call {resolved}() — use a seeded "
                    f"numpy.random.default_rng(seed) Generator"
                )
            if tail in ("default_rng", "RandomState") and (
                _first_arg_missing_or_none(call)
            ):
                return f"{resolved}() without a seed is OS-seeded"
        return None
