"""The dependency floors declared in pyproject.toml cover the APIs the package calls."""

import inspect
import re
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.linalg
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


def test_numpy_floor_has_trapezoid():
    # the time integrals use np.trapezoid, which NumPy 2.0 introduced
    assert declared_floor("numpy") >= (2, 0)
    assert callable(np.trapezoid)


def test_scipy_floor_has_fft_overwrite_and_eigh_subset():
    # the FFT seam transforms in place through scipy.fft's overwrite_x (the
    # scipy.fft module arrived in SciPy 1.4), and positivity takes one
    # generalized eigenvalue with eigh(subset_by_index=...) (SciPy 1.5)
    assert declared_floor("scipy") >= (1, 5)
    for transform in (scipy.fft.fft, scipy.fft.fft2, scipy.fft.ifft, scipy.fft.ifft2):
        assert "overwrite_x" in inspect.signature(transform).parameters
    assert "subset_by_index" in inspect.signature(scipy.linalg.eigh).parameters
