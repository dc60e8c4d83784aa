"""Small AST helpers shared by the passes."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "dotted_name",
    "str_literal",
    "fstring_literal_prefix",
    "walk_functions",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def str_literal(node: Optional[ast.AST]) -> Optional[str]:
    """The value of a plain string constant, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def fstring_literal_prefix(node: ast.AST) -> Optional[str]:
    """The leading literal text of an f-string, else None.

    ``f"fading/{ap}/{client}"`` → ``"fading/"``; an f-string that
    *starts* with an interpolation has no literal prefix and returns
    the empty string (callers treat that as fully dynamic).
    """
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return None
    first = node.values[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return ""


def walk_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, str]]:
    """Every (async) function definition with its qualified-ish name."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{prefix}{child.name}"
                yield child, qualified
                yield from visit(child, f"{qualified}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")
