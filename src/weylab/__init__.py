"""weylab: desk-scale laboratory for Weyl calculus and dispersive smoothing estimates.

Public names are imported from their modules (`from weylab.evolve import
solve_linear`); the package root binds only the modules and `__version__`.
"""

# The root loads every module, in this order, for two reasons.  The span
# tracer of `perfbench/tracing.py` binds its targets after `import weylab`,
# so every module must be loaded by then.  And a root that loaded nothing cut
# `import weylab.grid` from about 0.5 s to 0.08 s, but raised the linear-2d
# peak RSS from 143.6-143.9 MB to 145.1-145.3 MB (heap layout), past the
# benchmark's 0.1 MB bound.
from . import grid, symbol, calculus, weights, hamilton, evolve, nonlinear, appendix_checks

__version__ = "0.1.0"

__all__ = [
    "grid",
    "symbol",
    "calculus",
    "weights",
    "hamilton",
    "evolve",
    "nonlinear",
    "appendix_checks",
    "__version__",
]
