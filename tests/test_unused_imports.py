"""Every name a package module imports is used in that module, and every
module-level private name (`_name`) a module defines is read in it."""

import ast
from pathlib import Path

import pytest

import mklab

MODULES = sorted(p for p in Path(mklab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_guard_sees_an_unused_name():
    assert _unused_imports("from typing import Optional, Sequence\nx: Optional[int]\n") == [
        "Sequence (line 1)"]


def test_the_guard_sees_an_unread_private_name():
    source = ("_USED = 1\n_DEAD, _ALSO = 2, 3\n_typed: int = 4\n__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "class _Dead:\n    _attribute = 5\n"
              "def public():\n    _local = 6\n    return _helper()\n")
    assert _unread_private_names(source) == [
        "_DEAD (line 2)", "_ALSO (line 2)", "_typed (line 3)", "_Dead (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert _unread_private_names(path.read_text(encoding="utf-8")) == []
