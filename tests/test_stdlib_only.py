"""The package runs on the standard library alone, and its imports are layered:
every import sits at module level, and spectral imports nothing from the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wangtiles"


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in paths]


def _imported(node: ast.AST) -> list[str]:
    """Top-level names an import statement reads; "." for a relative import."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." if node.level else node.module.split(".")[0]]
    return []


def test_package_imports_only_the_standard_library():
    outside = [
        f"{name}:{node.lineno}: {top}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        for top in _imported(node)
        if top not in (".", "wangtiles") and top not in sys.stdlib_module_names
    ]
    assert outside == []


def test_spectral_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    inside = [
        node.lineno for node in ast.walk(tree) if set(_imported(node)) & {".", "wangtiles"}
    ]
    assert inside == []


def test_no_import_inside_a_function():
    nested = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
