"""Metrics-name lint: canonical keys.

The :class:`~repro.obs.metrics.MetricsRegistry` keys every value by the
canonical ``name{label=value}`` string with sorted labels — that string
is the contract trace comparisons and the soak SLO guard key on across
runs.  The way to silently break it is a hand-written key literal that
doesn't parse canonically (snapshot diffs then miss it forever).

========  ============================================================
rule      fires when
========  ============================================================
MET001    a metric name/key literal is malformed: braces in a name
          passed to ``metric_key`` (labels go through kwargs), or a
          ``name{...}`` key literal whose labels are not canonical
          (``k=v`` pairs, sorted)
========  ============================================================
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.astutil import str_literal
from repro.analysis.engine import AnalysisPass
from repro.analysis.findings import Finding
from repro.analysis.project import Project

__all__ = ["MetricNamePass"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
#: A string literal that *looks like* a labelled metric key.
_KEYLIKE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*\{.*\}$")
_KEY_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_.]*)\{(?P<labels>[^{}]*)\}$"
)


def _key_problem(literal: str) -> str:
    """Why a ``name{...}`` literal is not canonical; '' when it is."""
    match = _KEY_RE.match(literal)
    if match is None:
        return "does not parse as name{label=value,...}"
    label_names: List[str] = []
    for part in match.group("labels").split(","):
        if "=" not in part:
            return f"label {part!r} is not a key=value pair"
        key, value = part.split("=", 1)
        if not re.match(r"^[A-Za-z_]\w*$", key):
            return f"label name {key!r} is not an identifier"
        if not value:
            return f"label {key!r} has an empty value"
        if " " in key or value.startswith(" "):
            return f"label {part!r} carries whitespace"
        label_names.append(key)
    if label_names != sorted(label_names):
        return (
            f"labels {label_names} are not sorted — metric_key() would "
            f"produce {sorted(label_names)}"
        )
    return ""


class MetricNamePass(AnalysisPass):
    name = "metric-names"
    rules = {
        "MET001": "malformed metric name or non-canonical key literal",
    }

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for file in project.files:
            if file.tree is None:
                continue
            if "repro/analysis/" in file.path.as_posix():
                continue
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_call(file, node))
                elif isinstance(node, ast.Constant):
                    literal = str_literal(node)
                    if literal is None or not _KEYLIKE_RE.match(literal):
                        continue
                    problem = _key_problem(literal)
                    if problem:
                        findings.append(
                            Finding(
                                path=file.display_path,
                                line=node.lineno,
                                col=node.col_offset,
                                rule="MET001",
                                message=(
                                    f"metric key literal {literal!r} is "
                                    f"not canonical: {problem}"
                                ),
                                hint=(
                                    "build keys with "
                                    "repro.obs.metrics.metric_key() "
                                    "instead of hand-formatting"
                                ),
                            )
                        )
        return findings

    def _check_call(self, file, node: ast.Call) -> List[Finding]:
        func = node.func
        method = None
        if isinstance(func, ast.Attribute):
            method = func.attr
        elif isinstance(func, ast.Name):
            method = func.id
        if method != "metric_key" or not node.args:
            return []
        name = str_literal(node.args[0])
        if name is None:
            return []  # dynamic names are legal (collector loops)
        if _NAME_RE.match(name):
            return []
        return [
            Finding(
                path=file.display_path,
                line=node.lineno,
                col=node.col_offset,
                rule="MET001",
                message=(
                    f"metric name {name!r} is not a bare identifier "
                    "— labels belong in keyword arguments, not "
                    "hand-formatted into the name"
                ),
                hint='write e.g. metric_key("drops", ap=ap_id)',
            )
        ]
