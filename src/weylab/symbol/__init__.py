"""Symbols a(x, xi): representation, catalog, KdV-type builder, condition checks.

Each name is imported from the module that defines it (`from
weylab.symbol.catalog import catalog`); the package binds only its modules.
"""

# the load order (core, catalog, checks, kdv) that the linear-2d peak RSS
# was measured with
from . import catalog, checks, core, kdv

__all__ = ["catalog", "checks", "core", "kdv"]
