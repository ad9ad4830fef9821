"""Every name a package module, script or test file imports is used in that file,
every module-level private name (`_name`) it defines is read in it, and
every parameter of a function is read in its body."""

import ast
from pathlib import Path

import pytest

import mklab

SOURCES = sorted(p for p in Path(mklab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
SOURCES += sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
SOURCES += sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def _unread_parameters(source: str) -> list[str]:
    """Parameters that their function's body never loads; `self`, `cls` and
    `_`-prefixed names are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + [args.vararg]
                  + args.kwonlyargs + [args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({param}) (line {node.lineno})" for param in params
                   if param not in read and param not in ("self", "cls")
                   and not param.startswith("_")]
    return unread


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


def test_the_guard_sees_an_unread_parameter():
    source = ("def f(a, b, *args, c, _d, **kwargs):\n    return a + len(kwargs)\n"
              "class K:\n    def m(self, x, y=0):\n        def inner():\n"
              "            return x\n        return inner\n"
              "    @classmethod\n    def k(cls, z=None):\n        return z\n"
              "g = lambda u, w: u\n")
    assert _unread_parameters(source) == [
        "f(b) (line 1)", "f(args) (line 1)", "f(c) (line 1)",
        "m(y) (line 4)", "<lambda>(w) (line 11)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert _unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []
