"""repro.lint — domain-aware static analysis for the simulation's contracts.

The paper's conclusions only hold if every engine faithfully executes
its computation model; in this codebase that faithfulness is a set of
code contracts (all time flows through ``cluster.advance``, supersteps
are pure over the ``Graph``, randomness is seeded, only
:class:`SimulatedFailure` signals run failure, ...). This package
machine-checks those contracts with an AST-based analyzer built on the
stdlib ``ast`` module — no third-party dependencies.

Usage::

    python -m repro.lint src/              # lint a tree, exit 1 on findings
    python -m repro.lint --format json src # machine-readable report
    repro lint                             # same, via the main CLI

One pass parses each file once and runs every rule (RPL001-RPL003,
RPL005, RPL008-RPL010) on each file by itself. The contracts between
files are checked by running the code instead: hash-seed independence
and spawn-safe workers against the golden manifest, fault handling by
an injection census, and bounded retries under a subprocess timeout
(``tests/test_golden_manifest.py``, ``tests/test_model_contracts.py``,
``tests/test_bounded_waits.py``). Each rule has a stable code; a
finding on a line is suppressed by a trailing ``# noqa: RPLxxx``
comment (bare ``# noqa`` suppresses every code on that line).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Mapping, Optional, Sequence, Union

from .rules import ALL_RULES, RULES_BY_CODE, Rule, Violation
from .source import SourceModule

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "Rule",
    "Violation",
    "SourceModule",
    "lint_modules",
    "load_module",
    "iter_python_files",
    "expand_selectors",
    "PARSE_ERROR_CODE",
]

#: pseudo-code reported when a file cannot be parsed at all
PARSE_ERROR_CODE = "RPL000"


def expand_selectors(
    selectors: Iterable[str], codes: Iterable[str]
) -> List[str]:
    """Resolve ``--select``/``--ignore`` selectors against known codes.

    Two forms, checked in order:

    * **exact** — a selector that *is* a known code selects only that
      code, never anything it happens to prefix;
    * **prefix** — anything else matches ruff-style by prefix:
      ``RPL00`` selects every RPL00x rule, ``RPL`` selects everything.

    Returns the sorted matching subset of ``codes``; raises KeyError for
    a selector that matches nothing (the CLI turns that into exit 2).
    """
    available = sorted(set(codes))
    matched = set()
    for selector in selectors:
        prefix = selector.strip().upper()
        if not prefix:
            continue
        if prefix in available:
            matched.add(prefix)
            continue
        hits = [code for code in available if code.startswith(prefix)]
        if not hits:
            raise KeyError(
                f"no rule code matches selector {prefix!r}; available: "
                f"{available}"
            )
        matched.update(hits)
    return sorted(matched)


def load_module(
    path: str, text: Optional[str] = None
) -> Union[SourceModule, Violation]:
    """Parse one file (or ``text`` standing for it) into a SourceModule.

    A file that cannot be decoded as UTF-8 or parsed is an RPL000
    violation, not a traceback: every pass must keep walking the rest
    of the tree. An ``OSError`` while reading propagates.
    """
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return SourceModule.parse(text, path=path)
    except UnicodeDecodeError as exc:
        message, line, col = f"could not decode file as UTF-8: {exc.reason}", 1, 0
    except SyntaxError as exc:
        message, line, col = (
            f"could not parse file: {exc.msg}",
            exc.lineno or 1,
            (exc.offset or 1) - 1,
        )
    except ValueError as exc:
        # python 3.9 raises bare ValueError for e.g. null bytes
        message, line, col = f"could not parse file: {exc}", 1, 0
    return Violation(
        code=PARSE_ERROR_CODE, message=message, path=path, line=line, col=col
    )


def lint_modules(
    modules: Mapping[str, SourceModule],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Run ``rules`` (default: every rule) over parsed modules keyed by path.

    Findings on a line whose ``# noqa`` names their code are dropped;
    the rest come back once each, in (path, line, col, code, message)
    order.
    """
    if rules is None:
        rules = ALL_RULES
    unique = {}
    for module in modules.values():
        for rule in rules:
            for violation in rule.check(module):
                if module.suppressed(violation.code, violation.line):
                    continue
                key = (violation.path, violation.line, violation.col,
                       violation.code, violation.message)
                unique[key] = violation
    return [unique[key] for key in sorted(unique)]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            found.append(path)
    return found

