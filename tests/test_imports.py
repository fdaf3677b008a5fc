"""Static checks of the package sources: every imported name is used, and
sympy's calculus runs only where the package keeps it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylab"
MODULES = sorted(SRC.rglob("*.py"))

# sp.diff, sp.lambdify and sp.Poly are called only in symbol/core.py (the
# phase-space derivative tree and its closures) and in the two functions of
# weights.py that work in the radial variable r
SYMPY_CALLS = ("diff", "lambdify", "Poly")
SYMPY_HOMES = {"weights.py": {"_lam_deriv_fn", "_lam_primitive_fn"}}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n__all__ = ['dataclass']\nnp.pi\n"
    assert unused_imports(source) == ["field (line 1)"]


def stray_sympy_calls(source: str, homes: set) -> list[str]:
    """sp.diff / sp.lambdify / sp.Poly calls outside the top-level functions in homes."""
    stray = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in homes:
            continue
        for node in ast.walk(top):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("sp", "sympy")
                and func.attr in SYMPY_CALLS
            ):
                where = getattr(top, "name", "module level")
                stray.append(f"{func.value.id}.{func.attr} in {where} (line {node.lineno})")
    return stray


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p != SRC / "symbol" / "core.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_sympy_calculus_stays_in_symbol_core(path):
    homes = SYMPY_HOMES.get(path.relative_to(SRC).as_posix(), set())
    assert stray_sympy_calls(path.read_text(), homes) == []


def test_stray_sympy_call_is_found():
    source = (
        "import sympy as sp\n"
        "def keep(e):\n    return sp.diff(e)\n"
        "def stray(e):\n    return sp.Poly(e).total_degree()\n"
        "R = sp.lambdify([], 1)\n"
    )
    assert stray_sympy_calls(source, {"keep"}) == [
        "sp.Poly in stray (line 5)",
        "sp.lambdify in module level (line 6)",
    ]
