"""Every name a module imports is used in that module.

No linter runs on this code, so this parses each module of the package
(except ``__init__``, which imports to re-export) and lists the imported
names that the module never reads.  A name counts as read when it appears
as an expression, inside a string annotation, or in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pdblearn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each import statement outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _read(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Callable, Mapping\n"
        "def f(m: Mapping) -> 'int':\n"
        "    return m\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Callable")]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} imports names it never uses: {found}"
