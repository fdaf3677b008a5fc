"""In-memory span tracer that wraps weylab's layer boundaries from outside.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, parent span, start, end) and, for some layers, a work count
taken from the arguments or the result.  Module-level functions are rebound in
every `weylab` module that binds the same object, so names imported with
`from .grid import sobolev_norm` are traced too; methods are patched on the
class and on every subclass that overrides them.  A target that no longer
exists is skipped and listed in `Tracer.missing`.

`grid.fft_calls` counts `Grid.fftn`/`Grid.ifftn` only: dense assembly in
`calculus.quantize_dense` calls `np.fft` directly and is not counted there.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute names); an attribute "Class.method" is a method
TARGETS = {
    "grid.fft": ("weylab.grid", ("Grid.fftn", "Grid.ifftn")),
    "grid.norm": (
        "weylab.grid",
        ("sobolev_norm", "l2_norm", "weighted_pairing", "inner_product", "tail_mass_fraction"),
    ),
    "symbol.eval": ("weylab.symbol.core", ("Symbol.eval",)),
    "symbol.deriv": ("weylab.symbol.core", ("Symbol.deriv",)),
    "symbol.grad": ("weylab.symbol.core", ("Symbol.grad_x", "Symbol.grad_xi")),
    "symbol.catalog": ("weylab.symbol.catalog", ("catalog",)),
    "symbol.kdv_build": ("weylab.symbol.kdv", ("build_kdv_type",)),
    "symbol.check": (
        "weylab.symbol.checks",
        ("check_grad_ellipticity", "check_x_decay", "check_im_smallness"),
    ),
    "calculus.quantize_dense": ("weylab.calculus", ("quantize_dense",)),
    "calculus.dense_apply": ("weylab.calculus", ("DenseOperator.apply", "DenseOperator.apply_values")),
    "calculus.positivity": ("weylab.calculus", ("positivity_diagnostic",)),
    "weights.admissibility": ("weylab.weights", ("admissibility_report",)),
    "weights.garding": ("weylab.weights", ("garding_weight",)),
    "weights.doi": ("weylab.weights", ("doi_weight",)),
    "weights.slack": ("weylab.weights", ("hamilton_slack", "doi_slack")),
    "hamilton.trace": ("weylab.hamilton", ("integrate_bicharacteristic",)),
    "hamilton.trapping": ("weylab.hamilton", ("trapping_probe",)),
    "hamilton.qdelta": ("weylab.hamilton", ("qdelta_monotonicity", "qdelta_values")),
    "evolve.solve": ("weylab.evolve", ("solve_linear",)),
    "evolve.apply": ("weylab.evolve", ("EvolutionOperator.apply", "EvolutionOperator.apply_remainder")),
    "evolve.operator_build": (
        "weylab.evolve",
        ("build_evolution_operator", "EvolutionOperator.__init__"),
    ),
    "evolve.wrap_guard": ("weylab.evolve", ("wrap_guard",)),
    "evolve.smoothing_report": ("weylab.evolve", ("smoothing_report",)),
    "nonlinear.picard": ("weylab.nonlinear", ("picard_solve",)),
    "nonlinear.nonlinearity": ("weylab.nonlinear", ("nonlinearity_eval",)),
    "appendix.lemmatec1": ("weylab.appendix_checks", ("lemmatec1_residual",)),
    "appendix.lemmatec3": ("weylab.appendix_checks", ("lemmatec3_scan",)),
}

# classes whose construction copies an array, and the attribute holding it
FIELD_CLASSES = (("weylab.grid", "Field", "values"), ("weylab.grid", "SpectralField", "coeffs"))


def _solution_counts(args, sol):
    return {
        "steps": int(round(float(sol.times[-1]) / sol.dt)),
        "frames": len(sol.values),
        "frame_bytes": sum(v.nbytes for v in sol.values),
    }


# span name -> work counts taken from (args, result) when the call returns
MEASURES = {
    "grid.fft": lambda args, out: {"bytes": args[1].nbytes + out.nbytes},
    "symbol.eval": lambda args, out: {"points": out.size},
    "calculus.quantize_dense": lambda args, out: {"entries": out.matrix.size},
    "evolve.solve": _solution_counts,
    "nonlinear.picard": lambda args, run: {"sweeps": run.iterations},
    "hamilton.trace": lambda args, traj: {"rk4_steps": len(traj.t) - 1},
}


def _weylab_modules():
    return [m for k, m in list(sys.modules.items()) if k == "weylab" or k.startswith("weylab.")]


def _subclasses(cls):
    """cls and all its subclasses, each once."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Spans kept in memory as [parent, name, start, end, counts]; index = id."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.field_constructions = 0
        self.field_bytes = 0
        self._stack = [-1]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [stack[-1], name, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, out)
            return out

        return traced

    def _count_fields(self, fn, attr):
        @functools.wraps(fn)
        def counted(obj):
            fn(obj)
            self.field_constructions += 1
            self.field_bytes += getattr(obj, attr).nbytes

        return counted

    def install(self) -> None:
        """Patch every target; import weylab first so all bindings exist."""
        import weylab  # noqa: F401  (binds every module)

        modules = _weylab_modules()
        for name, (modname, attrs) in TARGETS.items():
            mod = sys.modules.get(modname)
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        self.missing.append(f"{modname}.{attr}")
                        continue
                    for sub in _subclasses(cls):
                        if meth in vars(sub):
                            setattr(sub, meth, self._wrap(name, vars(sub)[meth]))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        for modname, cls_name, attr in FIELD_CLASSES:
            cls = getattr(sys.modules.get(modname), cls_name, None)
            if cls is None or "__post_init__" not in vars(cls):
                self.missing.append(f"{modname}.{cls_name}.__post_init__")
                continue
            cls.__post_init__ = self._count_fields(cls.__post_init__, attr)

    def write(self, path) -> None:
        """Spans as tab-separated id, parent, name, start, end, counts."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tcounts\n")
            for i, (parent, name, t0, t1, counts) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{counts or ''}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times (span time minus child spans)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_s = defaultdict(float)
        work = Counter()
        # nearest enclosing solve / Picard span, for per-step and per-sweep ratios
        in_solve = [False] * len(spans)
        in_picard = [False] * len(spans)
        fft_in_solve = fft_in_picard = 0
        norm_in_picard = 0.0
        outer_apply = 0
        for i, (parent, name, t0, t1, counts) in enumerate(spans):
            own = t1 - t0 - child[i]
            calls[name] += 1
            self_s[name] += own
            if counts:
                for k, v in counts.items():
                    work[f"{name}.{k}"] += v
            if parent >= 0:
                pname = spans[parent][1]
                in_solve[i] = in_solve[parent] or pname == "evolve.solve"
                in_picard[i] = in_picard[parent] or pname == "nonlinear.picard"
                if name == "evolve.apply" and pname != "evolve.apply":
                    outer_apply += 1
            elif name == "evolve.apply":
                outer_apply += 1
            if name == "grid.fft":
                fft_in_solve += in_solve[i]
                fft_in_picard += in_picard[i]
            elif name == "grid.norm" and in_picard[i]:
                norm_in_picard += own

        steps = work["evolve.solve.steps"]
        sweeps = work["nonlinear.picard.sweeps"]
        return {
            "grid.fft_calls": calls["grid.fft"],
            "grid.fft_s": self_s["grid.fft"],
            "grid.fft_bytes_computed": work["grid.fft.bytes"],
            "grid.norm_calls": calls["grid.norm"],
            "grid.norm_s": self_s["grid.norm"],
            "grid.field_constructions": self.field_constructions,
            "grid.field_bytes_copied": self.field_bytes,
            "symbol.eval_calls": calls["symbol.eval"],
            "symbol.eval_points": work["symbol.eval.points"],
            "symbol.eval_s": self_s["symbol.eval"],
            "symbol.deriv_calls": calls["symbol.deriv"],
            "symbol.deriv_s": self_s["symbol.deriv"] + self_s["symbol.grad"],
            "symbol.catalog_build_s": self_s["symbol.catalog"] + self_s["symbol.kdv_build"],
            "symbol.check_s": self_s["symbol.check"],
            "calculus.quantize_dense_calls": calls["calculus.quantize_dense"],
            "calculus.dense_entries": work["calculus.quantize_dense.entries"],
            "calculus.quantize_dense_s": self_s["calculus.quantize_dense"],
            "calculus.dense_apply_calls": calls["calculus.dense_apply"],
            "calculus.dense_apply_s": self_s["calculus.dense_apply"],
            "calculus.positivity_s": self_s["calculus.positivity"],
            "weights.admissibility_s": self_s["weights.admissibility"],
            "weights.garding_s": self_s["weights.garding"],
            "weights.doi_s": self_s["weights.doi"],
            "weights.slack_s": self_s["weights.slack"],
            "hamilton.trace_calls": calls["hamilton.trace"],
            "hamilton.rk4_steps": work["hamilton.trace.rk4_steps"],
            "hamilton.trace_s": self_s["hamilton.trace"],
            "hamilton.trapping_s": self_s["hamilton.trapping"],
            "hamilton.qdelta_s": self_s["hamilton.qdelta"],
            "evolve.solve_calls": calls["evolve.solve"],
            "evolve.steps": steps,
            "evolve.solve_s": self_s["evolve.solve"],
            "evolve.fft_per_step": fft_in_solve / steps if steps else 0.0,
            "evolve.apply_calls": outer_apply,
            "evolve.apply_s": self_s["evolve.apply"],
            "evolve.operator_build_s": self_s["evolve.operator_build"],
            "evolve.wrap_guard_s": self_s["evolve.wrap_guard"],
            "evolve.smoothing_report_s": self_s["evolve.smoothing_report"],
            "evolve.frames_stored": work["evolve.solve.frames"],
            "evolve.frame_bytes": work["evolve.solve.frame_bytes"],
            "nonlinear.picard_s": self_s["nonlinear.picard"],
            "nonlinear.sweeps": sweeps,
            "nonlinear.fft_per_sweep": fft_in_picard / sweeps if sweeps else 0.0,
            "nonlinear.nonlinearity_calls": calls["nonlinear.nonlinearity"],
            "nonlinear.nonlinearity_s": self_s["nonlinear.nonlinearity"],
            "nonlinear.norm_s": norm_in_picard,
            "appendix.lemmatec1_s": self_s["appendix.lemmatec1"],
            "appendix.lemmatec3_s": self_s["appendix.lemmatec3"],
        }
