"""Keep the usage examples in docstrings honest."""

import doctest
import importlib
import pkgutil

import pytest

import cycone

MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(cycone.__path__, "cycone.")
    if info.name != "cycone.__main__"  # runs the CLI when imported
]


@pytest.mark.parametrize("module", MODULES)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
