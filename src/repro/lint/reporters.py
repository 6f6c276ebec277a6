"""Violation reporters: flake8-style text, machine JSON, GitHub annotations."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Sequence

from .rules import RULES_BY_CODE, Violation

__all__ = [
    "render_text",
    "render_json",
    "render_github",
    "render_rule_list",
    "rule_for",
]


def _all_rules_by_code() -> Dict[str, object]:
    """Shallow and deep registries merged (import kept local: the deep
    package imports rule helpers from this package's siblings)."""
    from .deep import DEEP_RULES_BY_CODE

    merged: Dict[str, object] = dict(RULES_BY_CODE)
    merged.update(DEEP_RULES_BY_CODE)
    return merged


def rule_for(code: str) -> Optional[object]:
    """The shallow or deep rule instance behind a code, if any."""
    return _all_rules_by_code().get(code)


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """One line per finding plus a per-code summary."""
    lines: List[str] = [v.format() for v in violations]
    if violations:
        counts = Counter(v.code for v in violations)
        lines.append("")
        for code in sorted(counts):
            rule = rule_for(code)
            label = rule.name if rule else "parse-error"
            lines.append(f"{code} ({label}): {counts[code]}")
        lines.append(
            f"{len(violations)} finding(s) in {files_checked} file(s)"
        )
    else:
        lines.append(f"{files_checked} file(s) clean")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    """Stable JSON document for tooling."""
    payload = {
        "files_checked": files_checked,
        "count": len(violations),
        "violations": [
            {
                "code": v.code,
                "message": v.message,
                "path": v.path,
                "line": v.line,
                "col": v.col + 1,
            }
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_annotation(text: str) -> str:
    """GitHub workflow-command escaping for the message part."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(violations: Sequence[Violation], files_checked: int) -> str:
    """``::error`` workflow commands — inline annotations on the PR diff."""
    lines = [
        f"::error file={v.path},line={v.line},col={v.col + 1},"
        f"title={v.code}::{_escape_annotation(v.message)}"
        for v in violations
    ]
    if violations:
        lines.append(
            f"{len(violations)} finding(s) in {files_checked} file(s)"
        )
    else:
        lines.append(f"{files_checked} file(s) clean")
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list-rules`` table (shallow RPL001-010 + deep RPL011-014, RPL018-020)."""
    merged = _all_rules_by_code()
    lines = []
    for code in sorted(merged):
        rule = merged[code]
        lines.append(f"{code}  {rule.name}")
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
