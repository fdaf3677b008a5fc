"""Symbols a(x, xi): representation, catalog, KdV-type builder, condition checks."""

from .catalog import CATALOG, CatalogEntry, catalog, catalog_names
from .checks import (
    ConditionReport,
    SampleSet,
    check_grad_ellipticity,
    check_im_smallness,
    check_x_decay,
    seminorm_estimate,
)
from .core import (
    FirstOrderSymbol,
    FuncSymbol,
    SeparableTerm,
    Symbol,
    SympySymbol,
    bessel_symbol,
    kn_to_weyl_expr,
    multi_factorial,
    multi_indices,
    multi_indices_upto,
    phase_symbols,
    scale_symbol,
    weyl_product_expr,
    zero_symbol,
)
from .kdv import KdvTypeBuild, VectorFieldSystem, build_kdv_type

__all__ = [
    "Symbol",
    "SympySymbol",
    "FuncSymbol",
    "FirstOrderSymbol",
    "SeparableTerm",
    "catalog",
    "catalog_names",
    "CATALOG",
    "CatalogEntry",
    "SampleSet",
    "ConditionReport",
    "check_grad_ellipticity",
    "check_x_decay",
    "check_im_smallness",
    "seminorm_estimate",
    "VectorFieldSystem",
    "KdvTypeBuild",
    "build_kdv_type",
    "bessel_symbol",
    "zero_symbol",
    "scale_symbol",
    "weyl_product_expr",
    "kn_to_weyl_expr",
    "phase_symbols",
    "multi_indices",
    "multi_indices_upto",
    "multi_factorial",
]
