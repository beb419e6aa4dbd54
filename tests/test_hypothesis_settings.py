"""Property tests run without Hypothesis's per-example deadline, so a slow
host fails none of them; only a wrong value does."""

import ast
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_property_test_sets_no_deadline(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "settings":
            deadlines = [ast.literal_eval(k.value) for k in node.keywords if k.arg == "deadline"]
            assert deadlines == [None], node.lineno
        elif isinstance(node, ast.FunctionDef):
            decorators = {d.func.id for d in node.decorator_list
                          if isinstance(d, ast.Call) and isinstance(d.func, ast.Name)}
            assert "settings" in decorators or "given" not in decorators, node.name
