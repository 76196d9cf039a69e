"""Every name a module imports or defines is used.

No linter runs on this code, so this parses each module of the package
(except ``__init__``, which imports to re-export) and each script under
``tools`` and ``demos``, and lists the imported names that it never reads.
For the package modules it also lists the names they define at module level
that it never reads, does not export in ``__all__``, and that no other module
of the package imports.  A name counts as read when it appears as an
expression, inside a string annotation, or in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdblearn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tools/*.py"), *ROOT.glob("demos/*.py")])


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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} imports names it never uses: {found}"


def _defined(tree: ast.Module) -> dict:
    """Name -> line of each def, class and assignment at module level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {n: line for n, line in names.items() if not n.startswith("__")}


def _imported_from_package() -> dict:
    """Module name -> the names other modules of the package import from it."""
    out: dict = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def unread_names(source: str, imported_elsewhere: set) -> list:
    tree = ast.parse(source)
    used = _read(tree) | imported_elsewhere
    return sorted(
        (line, name) for name, line in _defined(tree).items() if name not in used
    )


def test_the_check_finds_an_unread_name():
    source = (
        "__all__ = ['public']\n"
        "A, B = 1, 2\n"
        "C: int = 3\n"
        "def public(x: 'D') -> int:\n"
        "    return A\n"
        "class D:\n"
        "    pass\n"
        "class _Unused:\n"
        "    E = 4\n"
        "def _elsewhere():\n"
        "    pass\n"
    )
    assert unread_names(source, {"_elsewhere"}) == [(2, "B"), (3, "C"), (8, "_Unused")]
    assert unread_names("X = 1\nX = X + 1\n", set()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_defines(path):
    elsewhere = _imported_from_package().get(path.stem, set())
    found = unread_names(path.read_text(encoding="utf-8"), elsewhere)
    assert not found, f"{path.name} defines names nothing reads: {found}"
