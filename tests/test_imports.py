"""Static checks of the package sources: every imported name is used, every
private definition is referenced, every dataclass field is read, sympy's
calculus runs only where the package keeps it, no function takes the spatial
weight as an argument, and every run key is set by a test or benchmark
config."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylab"
MODULES = sorted(SRC.rglob("*.py"))
# the sources whose attribute reads count for the dataclass-field check
READERS = MODULES + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# sp.diff, sp.integrate, sp.lambdify and sp.Poly are called only in
# symbol/core.py (the phase-space derivative tree and its closures)
SYMPY_CALLS = ("diff", "integrate", "lambdify", "Poly")


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


def unreferenced_private_defs(sources: dict) -> list[str]:
    """Private module-level functions and classes, and private methods, whose
    name no module of `sources` (file name -> source) reads.  A definition
    decorated by a decorator that its own module defines counts as read: the
    decorator registers it, as `cli._experiment` registers the runners."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        local = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
        for top in tree.body:
            defs = [(top, top.name)] if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(top, ast.ClassDef):
                defs += [(d, f"{top.name}.{d.name}") for d in top.body if isinstance(d, ast.FunctionDef)]
            for node, label in defs:
                private = node.name.startswith("_") and not node.name.startswith("__")
                registered = any(
                    getattr(getattr(dec, "func", dec), "id", None) in local for dec in node.decorator_list
                )
                if private and not registered and node.name not in read:
                    found.append(f"{name}: {label} (line {node.lineno})")
    return found


def test_every_private_definition_is_referenced():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced_private_defs(sources) == []


def test_unreferenced_private_definition_is_found():
    source = (
        "def _register(f):\n    return f\n"
        "@_register\ndef _runner():\n    pass\n"
        "def _dead():\n    pass\n"
        "class _Box:\n    def __init__(self):\n        self._kept()\n"
        "    def _kept(self):\n        pass\n"
        "    def _stale(self):\n        pass\n"
        "_Box()\n"
    )
    assert unreferenced_private_defs({"m.py": source}) == ["m.py: _dead (line 6)", "m.py: _Box._stale (line 13)"]


def unread_dataclass_fields(defining: dict, readers: list[str]) -> list[str]:
    """Fields of the @dataclass classes in `defining` (file name -> source)
    that no source in `readers` reads as an attribute, `.name`."""
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for name, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or not any(
                getattr(getattr(dec, "func", dec), "id", None) == "dataclass" for dec in cls.decorator_list
            ):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read:
                    found.append(f"{name}: {cls.name}.{stmt.target.id} (line {stmt.lineno})")
    return found


def test_every_dataclass_field_is_read():
    defining = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unread_dataclass_fields(defining, [p.read_text() for p in READERS]) == []


def test_unread_dataclass_field_is_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Pair:\n    kept: int\n    echo: int\n"
        "@dataclass\nclass Box:\n    size: float\n"
        "class Plain:\n    loose: int\n"
        "Box(size=Pair(1, 2).kept).size\n"
    )
    assert unread_dataclass_fields({"m.py": source}, [source, "p = Pair(kept=0, echo=1)\np.echo = 2\n"]) == [
        "m.py: Pair.echo (line 5)"
    ]


def stray_sympy_calls(source: str) -> list[str]:
    """The sp.diff / sp.integrate / sp.lambdify / sp.Poly calls of a source."""
    stray = []
    for top in ast.parse(source).body:
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
    assert stray_sympy_calls(path.read_text()) == []


def test_stray_sympy_call_is_found():
    source = (
        "import sympy as sp\n"
        "def prim(e, r):\n    return sp.integrate(e, r)\n"
        "def stray(e):\n    return sp.Poly(e).total_degree()\n"
        "R = sp.lambdify([], 1)\n"
        "S = sp.sqrt(2)\n"
    )
    assert stray_sympy_calls(source) == [
        "sp.integrate in prim (line 3)",
        "sp.Poly in stray (line 5)",
        "sp.lambdify in module level (line 6)",
    ]


# the deleted weight class, spelled in two parts so that a text search of
# src and tests for its name finds no use
WEIGHT_CLASS = "Weight" + "Fn"


def weight_arguments(source: str) -> list[str]:
    """The parameters named `lam` of a source's functions and lambdas, and
    every use of the name WEIGHT_CLASS.  lam(r) = <r>^{-2} is the module
    function `grid.lam`, read where it is needed: no function takes it as an
    argument (`grid.weighted_pairing` and `grid._positive_weight` take any
    weight, as `weight`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.arg == "lam":
                    found.append((node.lineno, f"lam parameter of {getattr(node, 'name', 'lambda')}"))
        # a name read, an attribute, a definition, an import or a string
        if WEIGHT_CLASS in {getattr(node, f, None) for f in ("id", "attr", "name", "asname", "value")}:
            found.append((node.lineno, WEIGHT_CLASS))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_function_takes_the_spatial_weight(path):
    assert weight_arguments(path.read_text()) == []


def test_spatial_weight_argument_is_found():
    source = (
        f"from .weights import {WEIGHT_CLASS}\n"
        "def lam(r):\n    return r\n"
        "def fit(a, lam, S):\n    return lam(S)\n"
        "def solve(a, *, lam=None):\n    return a\n"
        "w = lambda lam: lam(0.0)\n"
        f"class {WEIGHT_CLASS}:\n    pass\n"
        f"__all__ = ['{WEIGHT_CLASS}', 'lam']\n"
        "weighted = fit(1, lam, 2)\n"
    )
    assert weight_arguments(source) == [
        f"{WEIGHT_CLASS} (line 1)",
        "lam parameter of fit (line 4)",
        "lam parameter of solve (line 6)",
        "lam parameter of lambda (line 8)",
        f"{WEIGHT_CLASS} (line 9)",
        f"{WEIGHT_CLASS} (line 11)",
    ]


def run_key_leaves(schema: dict, prefix: str = "") -> list[str]:
    """The dotted paths of a run schema's leaves; a nested schema is a dict."""
    leaves = []
    for key, (typ, _) in schema.items():
        if isinstance(typ, dict):
            leaves += run_key_leaves(typ, f"{prefix}{key}.")
        else:
            leaves.append(prefix + key)
    return leaves


def _literal_key_paths(node: ast.Dict, prefix: str = "") -> set:
    paths = set()
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            paths.add(prefix + key.value)
            if isinstance(value, ast.Dict):
                paths |= _literal_key_paths(value, f"{prefix}{key.value}.")
    return paths


def unset_run_keys(schemas: dict, sources: list[str]) -> list[str]:
    """Run-key leaves of `schemas` (kind -> run schema) that no "run" dict
    literal in `sources` sets.  A literal counts for the kind its sibling
    "experiment" literal names, or for every kind when it has none."""
    set_by = {kind: set() for kind in schemas}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Dict):
                continue
            fields = {k.value: v for k, v in zip(node.keys, node.values) if isinstance(k, ast.Constant)}
            if not isinstance(fields.get("run"), ast.Dict):
                continue
            paths = _literal_key_paths(fields["run"])
            kind = fields.get("experiment")
            if isinstance(kind, ast.Constant):
                kinds = [kind.value] if kind.value in schemas else []
            else:  # no literal kind: the literal counts for every kind
                kinds = schemas
            for k in kinds:
                set_by[k] |= paths
    return [
        f"{kind}: run.{leaf}"
        for kind, schema in schemas.items()
        for leaf in run_key_leaves(schema)
        if leaf not in set_by[kind]
    ]


def test_every_run_key_is_set_by_a_config():
    # a run key that no test or benchmark config sets is an option nothing exercises
    from weylab.cli import _EXPERIMENT_TABLE

    schemas = {kind: e.schema["run"][0] for kind, e in _EXPERIMENT_TABLE.items()}
    configs = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "perfbench" / "workloads.py"]
    assert unset_run_keys(schemas, [p.read_text() for p in configs]) == []


def test_unset_run_key_is_found():
    schemas = {
        "solve": {"T": ("number", 1.0), "datum": ({"kind": ("str", None), "amplitude": ("number", 1.0)}, {})},
        "scan": {"delta": ("number", 0.5), "cap": ("number", 2.0)},
    }
    source = (
        'A = {"experiment": "solve", "run": {"T": 2.0, "datum": {"kind": "wave"}}}\n'
        'B = {"experiment": "scan", "run": {"amplitude": 3.0}}\n'
        'C = {"run": {"delta": 0.1}}\n'
        'D = {"experiment": "scan", "cap": 1.0}\n'
        'E = {"experiment": "other", "run": {"cap": 1.0}}\n'
    )
    assert unset_run_keys(schemas, [source]) == ["solve: run.datum.amplitude", "scan: run.cap"]
