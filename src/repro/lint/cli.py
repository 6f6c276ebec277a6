"""Command-line entry point: ``python -m repro.lint [paths...]``.

The one parser behind both ``python -m repro.lint`` and ``repro lint``.
Exit codes follow linter convention: 0 clean, 1 findings, 2 bad usage.
One pass parses each file once and runs every rule over it; every rule
checks one file by itself. ``--select`` / ``--ignore`` filter the
rules — an exact code matches only itself, anything shorter matches
ruff-style by prefix — and ``--explain RPLxxx`` prints one rule's
rationale and the discipline it enforces. ``# noqa: RPLxxx`` on a line
suppresses a single finding on purpose.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import (
    RULES_BY_CODE,
    Rule,
    Violation,
    expand_selectors,
    iter_python_files,
    lint_modules,
    load_module,
)
from .reporters import RENDERERS, render_rule_list
from .source import SourceModule

__all__ = ["main", "build_parser", "run_explain", "run_lint"]


def build_parser(prog: str = "python -m repro.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Domain-aware static analysis for the simulation's model "
            "contracts: rules RPL001-RPL003, RPL005 and RPL008-RPL010, "
            "each checking one file at a time, in one pass."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        help=(
            "comma-separated rule codes or prefixes to run; an exact "
            "code (RPL001) selects only itself, a prefix (RPL00) "
            "selects every code it starts (default: every rule)"
        ),
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule codes or prefixes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its rationale and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help=(
            "print one rule's rationale and the discipline it "
            "enforces, then exit (exit 2 on unknown codes)"
        ),
    )
    return parser


def run_explain(code: str) -> int:
    """Print one rule's full documentation; exit 2 on unknown codes."""
    code = code.strip().upper()
    rule = RULES_BY_CODE.get(code)
    if rule is None:
        known = ", ".join(sorted(RULES_BY_CODE))
        print(
            f"unknown rule code {code!r} — known codes: {known}",
            file=sys.stderr,
        )
        return 2
    lines = [f"{rule.code} — {rule.name}", "", f"rationale: {rule.rationale}"]
    doc = sys.modules[type(rule).__module__].__doc__
    if doc:
        lines += ["", doc.strip()]
    print("\n".join(lines))
    return 0


def _active_rules(select: Optional[str], ignore: Optional[str]) -> List[Rule]:
    """The rules left after --select/--ignore filtering, in code order.

    Raises KeyError (exit 2 upstream) for a selector matching nothing.
    """
    codes = sorted(RULES_BY_CODE)
    if select:
        codes = expand_selectors(
            [s for s in select.split(",") if s.strip()], codes
        )
    if ignore:
        ignored = expand_selectors(
            [s for s in ignore.split(",") if s.strip()], RULES_BY_CODE
        )
        codes = [code for code in codes if code not in ignored]
    return [RULES_BY_CODE[code] for code in codes]


def run_lint(
    paths: List[str],
    fmt: str = "text",
    select: Optional[str] = None,
    list_rules: bool = False,
    ignore: Optional[str] = None,
    explain: Optional[str] = None,
) -> int:
    """Run the analyzer; prints a report and returns the exit code."""
    if explain:
        return run_explain(explain)
    if list_rules:
        print(render_rule_list())
        return 0
    try:
        rules = _active_rules(select, ignore)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    files = iter_python_files(paths)
    if not files:
        print(f"no Python files under {paths}", file=sys.stderr)
        return 2

    sources: Dict[str, SourceModule] = {}
    violations: List[Violation] = []
    for path in files:
        try:
            module = load_module(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc.strerror}", file=sys.stderr)
            return 2
        if isinstance(module, Violation):
            violations.append(module)
        else:
            sources[path] = module
    violations.extend(lint_modules(sources, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    render = RENDERERS[fmt]
    print(render(violations, files_checked=len(files)))
    return 1 if violations else 0


def main(
    argv: Optional[List[str]] = None, prog: str = "python -m repro.lint"
) -> int:
    args = build_parser(prog).parse_args(argv)
    try:
        return run_lint(
            paths=args.paths,
            fmt=args.format,
            select=args.select,
            list_rules=args.list_rules,
            ignore=args.ignore,
            explain=args.explain,
        )
    except BrokenPipeError:
        # report piped into head/less that exited early; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
