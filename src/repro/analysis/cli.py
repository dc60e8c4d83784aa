"""``python -m repro.analysis`` — the static-analysis gate.

Runs every registered pass over the given paths (default: ``src``)
and exits nonzero on any finding.  CI runs ``--json src/`` as a hard
gate; humans get the text report with fix hints.

Examples::

    python -m repro.analysis src/
    python -m repro.analysis --json src/ > findings.json
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import AnalysisPass, run_passes
from repro.analysis.findings import render_json_payload, render_text
from repro.analysis.passes import (
    CheckpointCoveragePass,
    DeterminismPass,
    MetricNamePass,
    TraceKindPass,
)
from repro.analysis.project import load_project

__all__ = ["build_passes", "main", "rule_catalog"]


def build_passes() -> List[AnalysisPass]:
    """The default pass set, in report-grouping order."""
    return [
        DeterminismPass(),
        TraceKindPass(),
        CheckpointCoveragePass(),
        MetricNamePass(),
    ]


def rule_catalog() -> Dict[str, str]:
    catalog: Dict[str, str] = {
        "SYN001": "file does not parse",
    }
    for analysis_pass in build_passes():
        catalog.update(analysis_pass.rules)
    return catalog


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repo-specific static analysis: determinism lint, trace-kind "
            "cross-check, checkpoint coverage, metrics-name lint"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the findings as a deterministic JSON document",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(rule_catalog().items()):
            print(f"{rule}  {description}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    project = load_project(paths)
    findings = run_passes(project, build_passes())

    if args.json:
        print(
            json.dumps(
                render_json_payload(findings),
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    elif findings:
        print(render_text(findings))
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
    else:
        print(f"OK: {len(project.files)} files clean")
    return 1 if findings else 0
