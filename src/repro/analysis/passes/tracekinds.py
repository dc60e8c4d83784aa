"""Trace-kind cross-check: emit sites vs the ``repro.obs.schema`` catalog.

Every subsystem emits typed events/spans through ``sim.obs.trace``
(PR 4), and downstream consumers — the invariant checker's
subscriptions, the Chrome exporter's lane mapping, cross-run trace
diffing — key on the literal event *names*.  A name that exists only
at its emit site is invisible to the schema validator; a name that
exists only in the schema is a consumer contract nothing fulfills.
This pass harvests every ``tracer.emit(sub, name, ...)`` /
``tracer.begin(sub, name, ...)`` literal across the scanned tree and
cross-checks the set against :data:`repro.obs.schema.TRACE_NAMES` in
both directions.

========  ============================================================
rule      fires when
========  ============================================================
TRC001    an emit site uses a (sub, name) the schema catalog lacks
TRC002    a catalog entry is emitted nowhere in the scanned tree
TRC003    an emit site's sub or name is not a string literal
========  ============================================================

TRC002 only fires when the scan included the known emitting packages
(it stays silent on a partial scan such as ``python -m repro.analysis
somefile.py``), so pointing the tool at one file never reports the
whole catalog as dead.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import dotted_name, str_literal
from repro.analysis.engine import AnalysisPass
from repro.analysis.findings import Finding
from repro.analysis.project import Project

__all__ = ["TraceKindPass", "harvest_emit_sites"]

#: Paths that contain emit sites; TRC002 (never-emitted) only makes
#: sense when the scan covered them.
_FULL_SCAN_MARKER = "repro/core/controller.py"


def _literal_choices(node: ast.AST) -> Optional[List[str]]:
    """All values a literal-or-literal-conditional expression can take.

    Accepts plain string constants and ``"a" if cond else "b"`` shapes
    (both arms literal) — the coordinator names its span "failover" or
    "switch" this way, and both names are statically known.
    """
    literal = str_literal(node)
    if literal is not None:
        return [literal]
    if isinstance(node, ast.IfExp):
        body = _literal_choices(node.body)
        orelse = _literal_choices(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def _is_emit_receiver(receiver: Optional[str]) -> bool:
    if receiver is None:
        return False
    return (
        receiver == "tracer"
        or receiver == "trace"
        or receiver.endswith(".trace")
        or receiver.endswith(".tracer")
    )


def harvest_emit_sites(
    project: Project,
) -> Tuple[Dict[Tuple[str, str], List[Tuple[str, int]]], List[Finding]]:
    """All literal (sub, name) pairs at emit sites, plus TRC003s."""
    sites: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    dynamic: List[Finding] = []
    for file in project.files:
        if file.tree is None:
            continue
        # The tracer implementation itself calls neither; skip the obs
        # package so the schema/validator modules can mention names.
        if "repro/obs/" in file.path.as_posix():
            continue
        if "repro/analysis/" in file.path.as_posix():
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("emit", "begin"):
                continue
            if not _is_emit_receiver(dotted_name(func.value)):
                continue
            if len(node.args) < 2:
                continue
            subs = _literal_choices(node.args[0])
            names = _literal_choices(node.args[1])
            if subs is None or names is None:
                dynamic.append(
                    Finding(
                        path=file.display_path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="TRC003",
                        message=(
                            "trace emit with a non-literal sub/name: "
                            "the schema cross-check cannot see it"
                        ),
                        hint="pass the subsystem and event name as string literals",
                    )
                )
                continue
            for sub in subs:
                for name in names:
                    sites.setdefault((sub, name), []).append(
                        (file.display_path, node.lineno)
                    )
    return sites, dynamic


class TraceKindPass(AnalysisPass):
    name = "trace-kinds"
    rules = {
        "TRC001": "emitted trace (sub, name) missing from the schema catalog",
        "TRC002": "schema catalog trace name emitted nowhere",
        "TRC003": "trace emit site with non-literal sub/name",
    }

    def __init__(
        self, catalog: Optional[Mapping[str, Sequence[str]]] = None
    ):
        #: name -> allowed subsystems; None loads the live schema.
        self._catalog = catalog

    def _load_catalog(self) -> Mapping[str, Sequence[str]]:
        if self._catalog is not None:
            return self._catalog
        from repro.obs.schema import TRACE_NAMES

        return TRACE_NAMES

    def run(self, project: Project) -> List[Finding]:
        catalog = self._load_catalog()
        sites, findings = harvest_emit_sites(project)

        emitted_names: Set[str] = set()
        for (sub, name), locations in sorted(sites.items()):
            emitted_names.add(name)
            allowed = catalog.get(name)
            path, line = sorted(locations)[0]
            if allowed is None:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule="TRC001",
                        message=(
                            f"trace name {name!r} (sub {sub!r}) is not in "
                            "repro.obs.schema.TRACE_NAMES"
                        ),
                        hint=(
                            "add the name (with its subsystem) to the "
                            "schema catalog in the same change"
                        ),
                    )
                )
            elif sub not in allowed:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule="TRC001",
                        message=(
                            f"trace name {name!r} emitted by sub {sub!r}, "
                            f"but the schema allows only {sorted(allowed)}"
                        ),
                        hint=(
                            "extend the name's subsystem list in "
                            "repro.obs.schema.TRACE_NAMES if the new "
                            "emitter is intentional"
                        ),
                    )
                )

        full_scan = any(
            file.path.as_posix().endswith(_FULL_SCAN_MARKER)
            for file in project.files
        )
        if full_scan:
            for name in sorted(set(catalog) - emitted_names):
                findings.append(
                    Finding(
                        path="src/repro/obs/schema.py",
                        line=1,
                        col=0,
                        rule="TRC002",
                        message=(
                            f"schema catalog name {name!r} is emitted "
                            "nowhere in the scanned tree"
                        ),
                        hint=(
                            "remove the dead catalog entry (or restore "
                            "the missing emit site)"
                        ),
                    )
                )
        return findings
