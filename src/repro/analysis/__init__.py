"""Repo-specific static analysis (``python -m repro.analysis``).

An AST-based lint engine (stdlib only) whose passes encode this
reproduction's *actual* invariants instead of generic style:

* :mod:`~repro.analysis.passes.determinism` — seed discipline, wall-
  clock bans, sorted iteration on export paths, no salted ``hash()``
  (DET001–DET006);
* :mod:`~repro.analysis.passes.tracekinds` — trace emit sites vs the
  ``repro.obs.schema`` catalog, both directions (TRC001–TRC003);
* :mod:`~repro.analysis.passes.checkpoint` — controller volatile state
  vs ``WgttController.snapshot`` coverage (CKP001–CKP003);
* :mod:`~repro.analysis.passes.metricnames` — canonical metric keys
  (MET001).

Every finding fails the run.  The feature-flag manifest
(``analysis/flags.toml``) is held to the live config defaults by
``tests/test_analysis.py``.  See docs/static-analysis.md.
"""

from repro.analysis.engine import AnalysisPass, run_passes
from repro.analysis.findings import Finding
from repro.analysis.project import Project, load_project

__all__ = [
    "AnalysisPass",
    "Finding",
    "Project",
    "load_project",
    "run_passes",
]
