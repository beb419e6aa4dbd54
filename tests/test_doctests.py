"""Keep the usage examples in docstrings honest."""

import doctest

import pytest

from cycone import cohom, cone, errors, exactnum


@pytest.mark.parametrize("module", [exactnum, cohom, cone, errors])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
