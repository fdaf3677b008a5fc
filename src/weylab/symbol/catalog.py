"""Catalog of ready-made dispersive symbols.

Every entry states only its sympy expression, order and label, and returns a
SympySymbol with exact derivative closures; no entry states a principal part.
Everything else is derived: the flags real_valued and x_independent from the
expression, zero_nyquist from the order, and the multiplier/pair split
`SympySymbol.split` that the evolution and fast-application paths read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sp

from .core import SympySymbol, phase_symbols

__all__ = ["catalog", "catalog_names", "CatalogEntry", "CATALOG"]


def _airy() -> SympySymbol:
    _, xis = phase_symbols(1)
    return SympySymbol(xis[0] ** 3, 1, 3.0, label="airy")


def _zk() -> SympySymbol:
    _, xis = phase_symbols(2)
    return SympySymbol(xis[0] * (xis[0] ** 2 + xis[1] ** 2), 2, 3.0, label="zk")


def _kdv_sum(n: int = 2) -> SympySymbol:
    n = int(n)
    if n < 1:
        raise ValueError("kdv_sum requires n >= 1")
    _, xis = phase_symbols(n)
    expr = sum(xis) * sum(v**2 for v in xis)
    return SympySymbol(expr, n, 3.0, label=f"kdv_sum(n={n})")


def _gaussian_kdv(eps: float = 0.05) -> SympySymbol:
    eps = float(eps)
    if eps < 0:
        raise ValueError("gaussian_kdv amplitude eps must be nonnegative")
    xs, xis = phase_symbols(1)
    expr = (1 + eps * sp.exp(-xs[0] ** 2)) * xis[0] ** 3
    return SympySymbol(expr, 1, 3.0, label=f"gaussian_kdv(eps={eps})")


def _ultrahyperbolic(matrix=None, eps: float = 0.0) -> SympySymbol:
    if matrix is None:
        matrix = [[1.0, 0.0], [0.0, -1.0]]
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("ultrahyperbolic coefficient matrix must be square")
    if not np.allclose(M, M.T, atol=1e-12):
        raise ValueError("ultrahyperbolic coefficient matrix must be symmetric")
    eigs = np.linalg.eigvalsh(M)
    if np.min(np.abs(eigs)) < 1e-12:
        raise ValueError("ultrahyperbolic coefficient matrix must be non-degenerate")
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n = M.shape[0]
    xs, xis = phase_symbols(n)
    quad = sum(sp.nsimplify(M[i, j]) * xis[i] * xis[j] for i in range(n) for j in range(n))
    expr = (1 + eps * sp.exp(-sum(v**2 for v in xs))) * quad
    return SympySymbol(expr, n, 2.0, label=f"ultrahyperbolic(eps={eps})")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[..., SympySymbol]
    summary: str
    params: dict


CATALOG: dict[str, CatalogEntry] = {
    "airy": CatalogEntry(
        "airy",
        _airy,
        "xi^3 on R; constant-coefficient linear KdV generator (n=1, order 3)",
        {},
    ),
    "zk": CatalogEntry(
        "zk",
        _zk,
        "xi1 (xi1^2 + xi2^2); Zakharov-Kuznetsov generator (n=2, order 3)",
        {},
    ),
    "kdv_sum": CatalogEntry(
        "kdv_sum",
        _kdv_sum,
        "(sum_j xi_j) |xi|^2; dimension-robust KdV-type generator (order 3)",
        {"n": "ambient dimension (default 2)"},
    ),
    "gaussian_kdv": CatalogEntry(
        "gaussian_kdv",
        _gaussian_kdv,
        "(1 + eps exp(-x^2)) xi^3; variable-coefficient KdV generator (n=1, order 3)",
        {"eps": "bump amplitude (default 0.05)"},
    ),
    "ultrahyperbolic": CatalogEntry(
        "ultrahyperbolic",
        _ultrahyperbolic,
        "(1 + eps exp(-|x|^2)) xi.M xi with symmetric non-degenerate M (order 2)",
        {
            "matrix": "symmetric non-degenerate coefficient matrix (default diag(1,-1))",
            "eps": "bump amplitude (default 0)",
        },
    ),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def catalog(name: str, **params) -> SympySymbol:
    """Build a catalog symbol by name; raises KeyError on unknown names and
    ValueError on a param that the entry does not list."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog symbol {name!r}; known: {catalog_names()}")
    entry = CATALOG[name]
    for param in params:
        if param not in entry.params:
            raise ValueError(f"{name} has no param {param!r}; params: {sorted(entry.params)}")
    return entry.build(**params)
