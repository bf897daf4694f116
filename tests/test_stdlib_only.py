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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _private(name: str) -> bool:
    return name.startswith("_") and not _dunder(name)


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


def _definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Every function, class and method the module defines, and its module
    constants, as (line, name); dunder names are exempt."""
    found = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found if not _dunder(name)]


def test_every_definition_is_referenced():
    """Code nothing in the package reads is dead: a name counts as read where it
    is loaded, as a name or an attribute, or imported into __init__."""
    read = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif name == "__init__.py" and isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [
        f"{name}:{line}: {defined}"
        for name, tree in _modules()
        for line, defined in _definitions(tree)
        if defined not in read
    ]
    assert unread == []
