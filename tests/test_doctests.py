"""Keep the usage examples embedded in docstrings runnable."""

import doctest

import pytest

import gramsem.corpus
import gramsem.counting
import gramsem.linalg
import gramsem.monotone
import gramsem.pregroup

MODULES = [gramsem.pregroup, gramsem.monotone, gramsem.linalg, gramsem.counting,
           gramsem.corpus]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
