"""Source hygiene: every module-level import in the package is used, and
every module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import hfrtrend

PACKAGE = Path(hfrtrend.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's import statements that no Name
    node in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level `_name`s (not dunders) bound in any of the sources
    that no Name load or attribute access in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    bound = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound += [n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [name for name in bound if name.startswith("_")
            and not name.startswith("__") and name not in read]


def test_detects_an_unread_private_name():
    sources = ["_a = 1\n_b, c = 2, 3\ndef _f(): return _a\n", "m._f()\n"]
    assert unread_private_names(sources) == ["_b"]


def test_private_names_are_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
