"""The findings model every analysis pass reports through.

A :class:`Finding` is one rule violation at one source location.  It
carries everything CI and a human need to act on it: the rule id,
``file:line:col``, a message stating the defect, and a fix hint stating
the repo-approved way out.  Every finding fails the run.  Findings
order deterministically (path, line, col, rule), so two runs over the
same tree print byte-identical reports — the same discipline the
simulator holds its own exports to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

__all__ = ["Finding", "render_text", "render_json_payload"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""


def render_text(findings: List[Finding]) -> str:
    """Human-facing report, one finding per line, hint indented."""
    lines: List[str] = []
    for finding in sorted(findings):
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col} "
            f"{finding.rule}: {finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    return "\n".join(lines)


def render_json_payload(findings: List[Finding]) -> Dict[str, object]:
    """The ``--json`` document: deterministic, machine-ingestible."""
    ordered = sorted(findings)
    return {
        "findings": [asdict(finding) for finding in ordered],
        "count": len(ordered),
    }
