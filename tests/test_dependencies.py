"""The dependency floors declared in pyproject.toml cover the APIs the package calls."""

import inspect
import re
from pathlib import Path

import sympy as sp

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_floor(name: str) -> tuple[int, ...]:
    """The `name>=X.Y` floor of pyproject.toml as a version tuple."""
    match = re.search(rf'"{re.escape(name)}>=([0-9.]+)"', PYPROJECT.read_text())
    assert match, f"no floor declared for {name}"
    return tuple(int(part) for part in match.group(1).split("."))


def test_sympy_floor_has_lambdify_docstring_limit():
    # symbol.core lambdifies with docstring_limit, which SymPy 1.13 introduced
    assert declared_floor("sympy") >= (1, 13)
    assert "docstring_limit" in inspect.signature(sp.lambdify).parameters
