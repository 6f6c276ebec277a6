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

Each rule has a stable code (RPL001..RPL010); a finding on a line is
suppressed by a trailing ``# noqa: RPLxxx`` comment (bare ``# noqa``
suppresses every code on that line).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from .rules import ALL_RULES, RULES_BY_CODE, Rule, Violation
from .source import SourceModule

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "Rule",
    "Violation",
    "SourceModule",
    "lint_source",
    "lint_module",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "select_rules",
    "expand_selectors",
    "PARSE_ERROR_CODE",
]

#: pseudo-code reported when a file cannot be parsed at all
PARSE_ERROR_CODE = "RPL000"


def select_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve a list of rule codes into rule instances (all by default)."""
    if select is None:
        return list(ALL_RULES)
    rules = []
    for code in select:
        code = code.strip().upper()
        if code not in RULES_BY_CODE:
            raise KeyError(
                f"unknown rule code {code!r}; expected one of "
                f"{sorted(RULES_BY_CODE)}"
            )
        rules.append(RULES_BY_CODE[code])
    return rules


def expand_selectors(
    selectors: Iterable[str], codes: Iterable[str]
) -> List[str]:
    """Resolve ``--select``/``--ignore`` selectors against known codes.

    Two forms, checked in order:

    * **exact** — a selector that *is* a known code selects only that
      code: ``RPL018`` selects RPL018 alone, never anything it happens
      to prefix;
    * **prefix** — anything else matches ruff-style by prefix:
      ``RPL01`` selects every RPL01x rule (RPL010-RPL014, RPL018 and
      RPL019), ``RPL`` selects everything.

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


def lint_source(
    text: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one source string; returns sorted, noqa-filtered violations."""
    if rules is None:
        rules = ALL_RULES
    try:
        module = SourceModule.parse(text, path=path)
    except SyntaxError as exc:
        return [
            Violation(
                code=PARSE_ERROR_CODE,
                message=f"could not parse file: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            )
        ]
    except ValueError as exc:
        # python 3.9 raises bare ValueError for e.g. null bytes
        return [
            Violation(
                code=PARSE_ERROR_CODE,
                message=f"could not parse file: {exc}",
                path=path,
                line=1,
                col=0,
            )
        ]
    return lint_module(module, rules)


def lint_module(
    module: SourceModule, rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Run shallow rules over an already-parsed module (noqa-filtered)."""
    if rules is None:
        rules = ALL_RULES
    violations = []
    for rule in rules:
        for violation in rule.check(module):
            if not module.suppressed(violation.code, violation.line):
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def lint_file(path: str, rules: Optional[Sequence[Rule]] = None) -> List[Violation]:
    """Lint one file on disk.

    A file that is not valid UTF-8 is a diagnostic (RPL000), not a
    traceback — the CLI must keep walking the rest of the tree.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return [
            Violation(
                code=PARSE_ERROR_CODE,
                message=f"could not decode file as UTF-8: {exc.reason}",
                path=path,
                line=1,
                col=0,
            )
        ]
    return lint_source(text, path=path, rules=rules)


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


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Lint every Python file under ``paths`` (files or directories)."""
    violations = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path, rules=rules))
    return violations
