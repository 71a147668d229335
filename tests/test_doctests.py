"""The docstring examples of every qpcox module run as tests."""

import doctest
import importlib
import pkgutil

import qpcox


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(qpcox.__path__):
        module = importlib.import_module(f"qpcox.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 1
