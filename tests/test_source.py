"""Source checks that no installed linter makes: every name a module of
``src/wordrep`` imports is used in it (``__init__.py`` re-exports its
imports, so it is left out), every top-level ``_private`` name that a
module defines is read somewhere in the package outside its own
definition, and no two modules define the same one."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "wordrep"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport re\nfrom a import b, c as d\nfrom e import f\nre.compile(d)\n"
    assert _unused_imports(source) == ["b", "f", "os"]
    assert _unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize(
    "path", sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []



def _defined_names(stmt: ast.stmt) -> set[str]:
    """The names that a top-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level ``_private`` (not dunder) name that
    a function, class or assignment of the modules ``sources`` ({module name:
    source}) defines, and that no ``Name``, attribute or import of any of them
    reads outside the statement that defines it.  Names are matched without
    their module."""
    defined = []
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined_names(stmt)
            defined += [(module, name) for name in own if _is_private(name)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_orphaned_private_names_are_found():
    sources = {
        "a": "def _rec(k):\n    return _rec(k - 1)\n_X, _Y = 1, 2\n_Z: int = _Y\n__all__ = []\n",
        "b": "from .a import _Z\nclass _C:\n    pass\ndef f():\n    return a._helper\n_helper = _C\n",
    }
    assert _orphaned_private_names(sources) == ["a._X", "a._rec"]


def test_no_orphaned_private_names():
    assert _orphaned_private_names({p.stem: p.read_text() for p in sorted(_SRC.glob("*.py"))}) == []


def _private_names_defined_twice(sources: dict[str, str]) -> list[str]:
    """Each top-level ``_private`` (not dunder) function, class or assigned
    name that more than one of the modules ``sources`` ({module name:
    source}) defines, as ``name: module, module, ...``."""
    owners: dict[str, list[str]] = {}
    for module, source in sources.items():
        names = set().union(*map(_defined_names, ast.parse(source).body))
        for name in filter(_is_private, names):
            owners.setdefault(name, []).append(module)
    return sorted(f"{name}: {', '.join(mods)}" for name, mods in owners.items() if len(mods) > 1)


def test_private_names_defined_twice_are_found():
    sources = {
        "a": "def _f():\n    pass\n_X = 1\n__all__ = []\n",
        "b": "class _f:\n    pass\n_Y: int = 2\n__all__ = []\n",
        "c": "from .a import _X\n_Y, _Z = 3, 4\n",
    }
    assert _private_names_defined_twice(sources) == ["_Y: b, c", "_f: a, b"]


def test_no_private_name_defined_twice():
    assert _private_names_defined_twice({p.stem: p.read_text() for p in sorted(_SRC.glob("*.py"))}) == []
