"""Checkpoint-coverage: controller volatile state vs its own ``snapshot``.

The HA guarantee is that ``WgttController.snapshot`` captures
**all** of the controller's volatile protocol state — a promoted
standby restores it and continues bit-identically.  That "all" decays
one field at a time: PR 7 added the admission pacer, PR 8 added the
departed-client replay guard, and nothing but reviewer memory connects
a new ``self._foo`` to the serializer beside it.  This pass closes the
loop statically, in ``repro/core/controller.py`` alone:

* an attribute is **volatile** when any method outside ``__init__``
  assigns it (``self.x = ...``, ``self.x[...] = ...``, ``self.x += 1``)
  or calls a mutating container method on it (``.add``, ``.append``,
  ``.pop``, ``.update``, ...);
* it is **covered** when ``WgttController.snapshot`` reads
  ``self.<attr>``;
* deliberately non-checkpointed state carries an inline
  ``# volatile-ok: reason`` on one of its assignment lines (the reason
  is mandatory — an allowlist entry is a design decision, not a shrug).

Classes serialized through ``to_state()`` (``ClientState``) are held to
the same rule for every attribute they assign.

========  ============================================================
rule      fires when
========  ============================================================
CKP001    volatile attribute neither checkpointed nor ``volatile-ok``
CKP002    ``snapshot`` / ``restore`` reads an attribute the controller
          class never assigns (serializer drifted ahead of the state)
CKP003    a ``# volatile-ok`` with no reason
========  ============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.engine import AnalysisPass
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile

__all__ = ["CheckpointCoveragePass"]

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_VOLATILE_OK_RE = re.compile(
    r"#\s*volatile-ok(?::\s*(?P<reason>.*\S))?"
)
_SELF_ATTR_RE = re.compile(r"self\.(\w+)")


def _self_attr_of_target(node: ast.AST) -> Optional[str]:
    """``self.x`` / ``self.x[...]`` assignment target → ``x``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_reads(function: ast.AST) -> Dict[str, int]:
    """``self.<attr>`` references in ``function`` → first line."""
    reads: Dict[str, int] = {}
    for sub in ast.walk(function):
        if isinstance(sub, ast.Attribute) and _self_attr_of_target(sub):
            reads.setdefault(sub.attr, sub.lineno)
    return reads


class CheckpointCoveragePass(AnalysisPass):
    name = "checkpoint-coverage"
    rules = {
        "CKP001": "volatile controller state not covered by the checkpoint",
        "CKP002": "checkpoint reads an attribute the controller lacks",
        "CKP003": "volatile-ok allowlist entry without a reason",
    }

    STATE_FILE = "repro/core/controller.py"
    STATE_CLASS = "WgttController"

    @staticmethod
    def _harvest_state(
        class_node: ast.ClassDef,
    ) -> Tuple[Set[str], Dict[str, int], Dict[str, ast.FunctionDef]]:
        """(all assigned attrs, volatile attr → first mutation line,
        method name → method)."""
        assigned: Set[str] = set()
        volatile: Dict[str, int] = {}
        methods: Dict[str, ast.FunctionDef] = {}

        for method in class_node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            methods[method.name] = method
            in_init = method.name == "__init__"
            for node in ast.walk(method):
                attrs_here: List[str] = []
                if isinstance(node, ast.Assign):
                    attrs_here = [
                        attr
                        for attr in map(_self_attr_of_target, node.targets)
                        if attr is not None
                    ]
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    attr = _self_attr_of_target(node.target)
                    if attr is not None:
                        attrs_here = [attr]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                ):
                    attr = _self_attr_of_target(node.func.value)
                    if attr is not None and not in_init:
                        volatile.setdefault(attr, node.lineno)
                if attrs_here:
                    assigned.update(attrs_here)
                    if not in_init:
                        for attr in attrs_here:
                            volatile.setdefault(attr, node.lineno)
        return assigned, volatile, methods

    @staticmethod
    def _harvest_allowlist(
        file: SourceFile,
    ) -> Tuple[Dict[str, str], List[Finding]]:
        """``# volatile-ok`` markers: attr → reason, plus CKP003s."""
        allowlist: Dict[str, str] = {}
        findings: List[Finding] = []
        for line_no, line in enumerate(file.lines, start=1):
            match = _VOLATILE_OK_RE.search(line)
            if match is None:
                continue
            attr_match = _SELF_ATTR_RE.search(line)
            reason = (match.group("reason") or "").strip()
            if not reason:
                findings.append(
                    Finding(
                        path=file.display_path,
                        line=line_no,
                        col=0,
                        rule="CKP003",
                        message=(
                            "volatile-ok without a reason: deliberately "
                            "non-checkpointed state must say why the "
                            "loss across failover is acceptable"
                        ),
                        hint="write `# volatile-ok: <why>`",
                    )
                )
            if attr_match is not None:
                allowlist[attr_match.group(1)] = reason
        return allowlist, findings

    def run(self, project: Project) -> List[Finding]:
        file = project.by_suffix(self.STATE_FILE)
        if file is None or file.tree is None:
            return []  # partial scan: nothing to check
        allowlist, findings = self._harvest_allowlist(file)
        path = file.display_path

        def ckp001(line: int, message: str, hint: str) -> Finding:
            return Finding(
                path=path,
                line=line,
                col=0,
                rule="CKP001",
                message=message,
                hint=f"{hint}, or mark the assignment `# volatile-ok: <why>`",
            )

        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            assigned, volatile, methods = self._harvest_state(node)
            if node.name == self.STATE_CLASS:
                snapshot = methods.get("snapshot")
                covered = _self_reads(snapshot) if snapshot else {}
                for attr in sorted(volatile):
                    if attr in covered or attr in allowlist:
                        continue
                    findings.append(
                        ckp001(
                            volatile[attr],
                            f"{node.name}.{attr} is mutated outside "
                            f"__init__ but {node.name}.snapshot never "
                            "reads it — this state is lost across failover",
                            "read it in snapshot() and refill it in "
                            "restore()",
                        )
                    )
                referenced: Dict[str, int] = {}
                for name in ("snapshot", "restore"):
                    if name in methods:
                        referenced.update(_self_reads(methods[name]))
                for attr in sorted(referenced):
                    if attr in assigned or attr in methods:
                        continue
                    findings.append(
                        Finding(
                            path=path,
                            line=referenced[attr],
                            col=0,
                            rule="CKP002",
                            message=(
                                f"{node.name}.snapshot/restore reads "
                                f"self.{attr}, which {node.name} never "
                                "assigns — the serializer drifted ahead "
                                "of the state"
                            ),
                            hint="remove or rename the stale read",
                        )
                    )
            elif "to_state" in methods:
                # Everything a to_state class assigns is protocol state
                # (these classes exist to be checkpointed), so the audit
                # covers every assigned attr, not just later mutations.
                serialized = _self_reads(methods["to_state"])
                for attr in sorted(assigned):
                    if attr in serialized or attr in allowlist:
                        continue
                    findings.append(
                        ckp001(
                            volatile.get(attr, node.lineno),
                            f"{node.name}.{attr} is never read by "
                            f"{node.name}.to_state — this field is lost "
                            "across checkpoint/restore",
                            "serialize it in to_state/from_state",
                        )
                    )
        return findings
