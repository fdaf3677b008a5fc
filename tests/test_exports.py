"""Every name a weylab module exports in __all__ exists."""

import importlib

import pytest

MODULES = [
    "weylab",
    "weylab.grid",
    "weylab.calculus",
    "weylab.weights",
    "weylab.hamilton",
    "weylab.evolve",
    "weylab.export",
    "weylab.nonlinear",
    "weylab.appendix_checks",
    "weylab.cli",
    "weylab.symbol",
    "weylab.symbol.core",
    "weylab.symbol.catalog",
    "weylab.symbol.checks",
    "weylab.symbol.kdv",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
