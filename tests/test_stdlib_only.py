"""The package runs on the standard library alone, and its imports are layered:
every import sits at module level, each module imports only modules of lower
layers (core at the bottom, spectral next, importing only core), no module
reads another module's private names, every name a module imports is read
there, and importing the package stays light.  Value semantics are written
in one place, core.Value, which also builds the records' constructor, and
immutability in core.Frozen."""

from __future__ import annotations

import ast
import subprocess
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


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter imports the package and builds every built-in
    without dataclasses or inspect, which together cost more than the rest.
    -S keeps site-packages start-up hooks out of the count."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wangtiles;"
        "from wangtiles.corpus import BUILTIN_NAMES, builtin;"
        "[builtin(name) for name in BUILTIN_NAMES];"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_datetime():
    """Certificates take their UTC timestamps from time, which every
    interpreter has loaded, so importing the package and certifying a set
    leave datetime unloaded."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wangtiles;"
        "from wangtiles.certify import certify; from wangtiles.corpus import builtin;"
        "certify(builtin('U').payload, 'U', 'auto').to_json();"
        "print('datetime' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# Each module imports only modules of lower layers.  From the package itself
# a module may read only __version__, which __init__ binds before it imports
# any module.
LAYERS = (
    ("core",),
    ("spectral",),
    ("morphism",),
    ("solver", "corpus"),
    ("derivation", "render"),
    ("certify",),
    ("suite",),
    ("cli",),
)
LAYER = {module: i for i, layer in enumerate(LAYERS) for module in layer}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, target) for each package module an import statement reads; a
    name read from the package itself, such as __version__, is its own target."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "wangtiles":
                    continue
                path = path[1:]
            if path and path[0]:
                found.append((node.lineno, path[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "wangtiles":
                    found.append((node.lineno, path[1] if len(path) > 1 else "wangtiles"))
    return found


def _upward_imports(name: str, tree: ast.Module) -> list[str]:
    """The imports of module ``name`` that read a module of its own layer or
    a higher one, or a name of the package other than __version__."""
    layer = LAYER[name.removesuffix(".py")]
    return [
        f"{name}:{line}: {target}"
        for line, target in _package_imports(tree)
        if target != "__version__" and LAYER.get(target, len(LAYERS)) >= layer
    ]


def test_each_module_imports_only_lower_layers():
    assert set(LAYER) == MODULES - {"__init__"}
    upward = [
        line for name, tree in _modules() if name != "__init__.py"
        for line in _upward_imports(name, tree)
    ]
    assert upward == []


def test_layer_guard_catches_an_upward_import():
    for source in (
        "from .morphism import Word2d",
        "from . import solver",
        "from . import WangTile",
        "import wangtiles.cli",
        "from wangtiles.spectral import IntMatrix",
    ):
        assert len(_upward_imports("spectral.py", ast.parse(source))) == 1, source
    assert _upward_imports("spectral.py", ast.parse("from .core import Frozen")) == []


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


# The classes that may write each value method themselves: the shared base
# writes equality, hashing and pickling, the tile set only its cached hash;
# Frozen alone refuses assignment and deletion.
_BASE = {("core.py", "Value")}
VALUE_METHOD_OWNERS = {
    "__eq__": _BASE,
    "__hash__": _BASE | {("core.py", "WangTileSet")},
    "__reduce__": _BASE,
    "__setattr__": {("core.py", "Frozen")},
    "__delattr__": {("core.py", "Frozen")},
}


def _written_value_methods(name: str, tree: ast.Module) -> list[str]:
    """Every class of the module that defines or assigns a method of
    VALUE_METHOD_OWNERS without being one of its owners; ``__hash__ = None``,
    which makes a class unhashable, is allowed anywhere."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign) and not (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{name}:{node.lineno}: {cls.name}.{t}"
                for t in targets
                if t in VALUE_METHOD_OWNERS and (name, cls.name) not in VALUE_METHOD_OWNERS[t]
            ]
    return found


def test_value_semantics_are_written_only_in_core_value():
    assert [line for name, tree in _modules() for line in _written_value_methods(name, tree)] == []


def test_value_method_guard_catches_a_written_out_eq():
    source = (PACKAGE / "core.py").read_text()
    anchor = "    def as_tuple(self)"
    patched = source.replace(
        anchor,
        "    def __eq__(self, other):\n        return self.as_tuple() == other.as_tuple()\n\n"
        + anchor,
        1,
    )
    assert patched != source
    found = _written_value_methods("core.py", ast.parse(patched))
    assert len(found) == 1 and found[0].endswith(": WangTile.__eq__")


# The records: value classes whose constructor would only store their
# fields, so they take core.Value's.
RECORDS = {
    ("core.py", "Equivalence"),
    ("derivation.py", "MarkerReport"),
    ("derivation.py", "Derivation"),
    ("corpus.py", "NamedArtifact"),
    ("render.py", "StoneGeometry"),
    ("certify.py", "Step"),
}


def test_records_take_their_constructor_from_core_value():
    classes = {
        (name, cls.name): cls
        for name, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }
    assert RECORDS <= set(classes)
    written = [
        f"{name}:{node.lineno}: {cls}.__init__"
        for name, cls in sorted(RECORDS)
        for node in classes[name, cls].body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert written == []


def _unread_imports(name: str, tree: ast.Module) -> list[str]:
    """Every name an import statement of the module binds that the module
    never reads; __future__ imports bind nothing."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        f"{name}:{node.lineno}: {bound}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for bound in [alias.asname or alias.name.split(".")[0]]
        if bound not in read
    ]


def test_every_import_is_read():
    """__init__ imports to re-export, so it is exempt."""
    unread = [
        line for name, tree in _modules() if name != "__init__.py"
        for line in _unread_imports(name, tree)
    ]
    assert unread == []


def test_import_guard_catches_an_unread_import():
    source = "from typing import Optional, Union\nimport os.path\nx: Optional[int] = os.sep\n"
    assert _unread_imports("m.py", ast.parse(source)) == ["m.py:1: Union"]
    assert _unread_imports("m.py", ast.parse("import os.path as p\n")) == ["m.py:1: p"]
