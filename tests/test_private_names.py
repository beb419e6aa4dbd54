"""No module reads a private name of code it does not define: a library's
single-underscore names can change in any release without notice."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "cycone").glob("*.py"))

# the documented API of collections.namedtuple, which the records are
NAMEDTUPLE_API = {"_fields", "_replace", "_make", "_asdict"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """Every name the module binds: defs, classes, arguments, assigned names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_private_name_it_does_not_define(path):
    tree = ast.parse(path.read_text())
    allowed = _defined(tree) | NAMEDTUPLE_API
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr"):
            read.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] != "cycone":
            read.update(alias.name for alias in node.names)
    assert {name for name in read if isinstance(name, str) and _private(name)} - allowed == set()
