"""Pass orchestration: run every pass, collect the findings.

A pass is any object with a ``name``, a ``rules`` mapping (rule id →
one-line description, the ``--list-rules`` catalog), and a
``run(project) -> List[Finding]`` method.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.findings import Finding
from repro.analysis.project import Project, parse_error_findings

__all__ = ["AnalysisPass", "run_passes"]


class AnalysisPass:
    """Base class for passes (subclassing is convention, not duck law)."""

    name: str = "pass"
    rules: Dict[str, str] = {}

    def run(self, project: Project) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


def run_passes(
    project: Project, passes: Sequence[AnalysisPass]
) -> List[Finding]:
    """Run ``passes`` over ``project``; every finding, sorted."""
    findings: List[Finding] = list(parse_error_findings(project))
    for analysis_pass in passes:
        findings.extend(analysis_pass.run(project))
    return sorted(findings)
