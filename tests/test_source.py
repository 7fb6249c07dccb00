"""Source checks that no installed linter makes: every name a module of
``src/wordrep`` imports is used in it (``__init__.py`` re-exports its
imports, so it is left out)."""

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
