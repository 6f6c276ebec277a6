"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes follow linter convention: 0 clean, 1 findings, 2 bad usage.
The shallow pass (RPL001-RPL010) always runs; ``--deep`` additionally
builds the whole-program model and runs RPL011-RPL014 and RPL018-RPL020.
``--select`` / ``--ignore`` filter both passes — an exact code matches
only itself, anything shorter matches ruff-style by prefix —
``--baseline`` suppresses previously recorded findings,
``--ast-cache`` shares parsed ASTs between the shallow and deep CI
steps, and ``--explain RPLxxx`` prints one rule's rationale, the
discipline it enforces, and its minimal positive/negative example.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import (
    PARSE_ERROR_CODE,
    RULES_BY_CODE,
    Violation,
    expand_selectors,
    iter_python_files,
    lint_module,
)
from .reporters import RENDERERS, render_rule_list
from .source import SourceModule

__all__ = ["main", "build_parser", "run_explain", "run_lint"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Domain-aware static analysis for the simulation's model "
            "contracts (shallow rules RPL001-RPL010; --deep adds the "
            "whole-program rules RPL011-RPL014 and RPL018-RPL020)."
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
            "code (RPL018) selects only itself, a prefix (RPL01) "
            "selects every code it starts (default: all active rules)"
        ),
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule codes or prefixes to skip",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the whole-program pass (RPL011-RPL014, "
            "RPL018-RPL020): call-graph model conformance, determinism "
            "taint, span coverage, chaos safety, cache-key soundness, "
            "cross-process state sharing, and bounded-retry hygiene"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file (lint-baseline.json): recorded findings are "
            "suppressed so CI fails only on new ones"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with every current finding and exit 0",
    )
    parser.add_argument(
        "--ast-cache",
        metavar="FILE",
        help=(
            "pickle of parsed ASTs, reused between the shallow and deep "
            "steps (stale entries re-parse automatically)"
        ),
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
            "print one rule's rationale, the discipline it enforces, "
            "and its minimal positive/negative example, then exit "
            "(deep rules included without --deep; exit 2 on unknown "
            "codes)"
        ),
    )
    return parser


def run_explain(code: str) -> int:
    """Print one rule's full documentation; exit 2 on unknown codes."""
    from .deep import DEEP_RULES_BY_CODE

    merged: Dict[str, object] = dict(RULES_BY_CODE)
    merged.update(DEEP_RULES_BY_CODE)
    code = code.strip().upper()
    rule = merged.get(code)
    if rule is None:
        known = ", ".join(sorted(merged))
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


def _active_rules(
    select: Optional[str], ignore: Optional[str], deep: bool
) -> Dict[str, object]:
    """Codes → rule instances after --select/--ignore filtering.

    Raises KeyError (exit 2 upstream) for a selector matching nothing;
    a selector that only matches deep codes without ``--deep`` gets a
    hint to pass the flag.
    """
    from .deep import DEEP_RULES_BY_CODE

    active: Dict[str, object] = dict(RULES_BY_CODE)
    if deep:
        active.update(DEEP_RULES_BY_CODE)
    if select:
        selectors = [s for s in select.split(",") if s.strip()]
        try:
            picked = expand_selectors(selectors, active)
        except KeyError:
            if not deep:
                # distinguish "unknown code" from "deep code without --deep"
                everything = dict(active)
                everything.update(DEEP_RULES_BY_CODE)
                picked = expand_selectors(selectors, everything)
                raise KeyError(
                    f"selector {select!r} only matches deep rules "
                    f"({', '.join(p for p in picked if p not in active)}) "
                    f"— pass --deep to run them"
                )
            raise
        active = {code: active[code] for code in picked}
    if ignore:
        ignored = expand_selectors(
            [s for s in ignore.split(",") if s.strip()],
            list(RULES_BY_CODE) + list(DEEP_RULES_BY_CODE),
        )
        active = {c: r for c, r in active.items() if c not in ignored}
    return active


def run_lint(
    paths: List[str],
    fmt: str = "text",
    select: Optional[str] = None,
    list_rules: bool = False,
    ignore: Optional[str] = None,
    deep: bool = False,
    baseline: Optional[str] = None,
    update_baseline: bool = False,
    ast_cache: Optional[str] = None,
    explain: Optional[str] = None,
) -> int:
    """Run the analyzer; prints a report and returns the exit code."""
    from .deep import DEEP_RULES_BY_CODE, deep_lint_modules
    from .deep.astcache import AstCache
    from .deep.baseline import filter_baselined, load_baseline, write_baseline

    if explain:
        return run_explain(explain)
    if list_rules:
        print(render_rule_list())
        return 0
    if update_baseline and not baseline:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    try:
        active = _active_rules(select, ignore, deep)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    shallow_rules = [r for c, r in sorted(active.items()) if c in RULES_BY_CODE]
    deep_rules = [
        r for c, r in sorted(active.items()) if c in DEEP_RULES_BY_CODE
    ]
    files = iter_python_files(paths)
    if not files:
        print(f"no Python files under {paths}", file=sys.stderr)
        return 2

    cache = AstCache(ast_cache)
    sources: Dict[str, SourceModule] = {}
    violations: List[Violation] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read {path}: {exc.strerror}", file=sys.stderr)
            return 2
        except UnicodeDecodeError as exc:
            violations.append(Violation(
                code=PARSE_ERROR_CODE,
                message=f"could not decode file as UTF-8: {exc.reason}",
                path=path,
                line=1,
                col=0,
            ))
            continue
        module = cache.get(path, text)
        if module is None:
            try:
                module = SourceModule.parse(text, path=path)
            except SyntaxError as exc:
                violations.append(Violation(
                    code=PARSE_ERROR_CODE,
                    message=f"could not parse file: {exc.msg}",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                ))
                continue
            except ValueError as exc:
                # python 3.9 raises bare ValueError for e.g. null bytes
                violations.append(Violation(
                    code=PARSE_ERROR_CODE,
                    message=f"could not parse file: {exc}",
                    path=path,
                    line=1,
                    col=0,
                ))
                continue
            cache.put(path, text, module)
        sources[path] = module
        violations.extend(lint_module(module, shallow_rules))
    cache.save()

    if deep and deep_rules:
        violations.extend(deep_lint_modules(sources, rules=deep_rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))

    if update_baseline:
        count = write_baseline(baseline, violations)
        print(f"baseline updated: {count} fingerprint(s) -> {baseline}")
        return 0
    if baseline:
        violations = filter_baselined(violations, load_baseline(baseline))

    render = RENDERERS[fmt]
    print(render(violations, files_checked=len(files)))
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_lint(
            paths=args.paths,
            fmt=args.format,
            select=args.select,
            list_rules=args.list_rules,
            ignore=args.ignore,
            deep=args.deep,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            ast_cache=args.ast_cache,
            explain=args.explain,
        )
    except BrokenPipeError:
        # report piped into head/less that exited early; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
