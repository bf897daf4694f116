"""The package runs on the standard library alone, and its imports are layered:
every import sits at module level, spectral imports nothing from the package,
and no module reads another module's private names."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _root(node: ast.AST) -> str:
    """The leftmost name of a dotted expression such as a.b.c; "" for any other."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reached = []
    for name, tree in _modules():
        # Names this module binds to package modules: "from . import solver"
        # binds solver, "import wangtiles.solver" binds wangtiles.
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "wangtiles"):
                for alias in node.names:
                    if node.module in (None, "wangtiles") and alias.name in modules:
                        bound.add(alias.asname or alias.name)
                    if _private(alias.name):
                        reached.append(f"{name}:{node.lineno}: imports {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wangtiles":
                        bound.add(alias.asname or "wangtiles")
        reached += [
            f"{name}:{node.lineno}: reads .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr) and _root(node.value) in bound
        ]
    assert reached == []
