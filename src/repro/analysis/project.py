"""Source loading and AST parsing: what every pass reads."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.analysis.findings import Finding

__all__ = ["SourceFile", "Project", "load_project"]


@dataclass
class SourceFile:
    """One parsed source file."""

    path: Path
    #: Path as reported in findings (relative to the invocation root
    #: when possible, so reports are machine-portable).
    display_path: str
    lines: List[str]
    tree: Optional[ast.AST]
    parse_error: Optional[str]


@dataclass
class Project:
    """Everything the passes see: the parsed files."""

    files: List[SourceFile]

    def by_suffix(self, suffix: str) -> Optional[SourceFile]:
        """The unique file whose posix path ends with ``suffix``."""
        matches = [
            f for f in self.files if f.path.as_posix().endswith(suffix)
        ]
        return matches[0] if len(matches) == 1 else None


def load_source_file(path: Path, display_path: str) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree: Optional[ast.AST] = None
    parse_error: Optional[str] = None
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        parse_error = f"{error.msg} (line {error.lineno})"
    return SourceFile(
        path=path,
        display_path=display_path,
        lines=text.splitlines(),
        tree=tree,
        parse_error=parse_error,
    )


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            collected.append(path)
    # De-duplicate while preserving the sorted-within-path order.
    seen: Dict[Path, None] = {}
    for path in collected:
        seen.setdefault(path.resolve(), None)
    return list(seen)


def load_project(paths: Iterable[Path], root: Optional[Path] = None) -> Project:
    root = (root or Path.cwd()).resolve()
    files: List[SourceFile] = []
    for path in iter_python_files(paths):
        try:
            display = path.relative_to(root).as_posix()
        except ValueError:
            display = path.as_posix()
        files.append(load_source_file(path, display))
    return Project(files=files)


def parse_error_findings(project: Project) -> List[Finding]:
    """Unparseable files are findings, not crashes: the rest of the
    tree still gets analyzed."""
    findings: List[Finding] = []
    for file in project.files:
        if file.parse_error is not None:
            findings.append(
                Finding(
                    path=file.display_path,
                    line=1,
                    col=0,
                    rule="SYN001",
                    message=f"file does not parse: {file.parse_error}",
                    hint="fix the syntax error; analysis skipped this file",
                )
            )
    return findings
