"""Execute the runnable examples embedded in docstrings.

Docstring examples are part of the public documentation; this runner
keeps them honest.
"""

import doctest

import pytest

import repro.bench.charts
import repro.bench.harness
import repro.core.classifier
import repro.core.incremental
import repro.io.datasets

MODULES = [
    repro.core.classifier,
    repro.core.incremental,
    repro.io.datasets,
    repro.bench.charts,
    repro.bench.harness,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0  # the module is expected to carry examples
