"""KdV-type symbols generated by systems of real vector fields.

Given spatial coefficients a_ij(x), the fields are X_j(x, D) = sum_i a_ij(x) D_i
with Kohn-Nirenberg symbols X_j(x, xi) = sum_i a_ij(x) xi_i.  The third-order
generator is the operator X_1 (sum_j X_j X_j), whose exact Weyl symbol is
assembled here with the terminating symbolic Weyl product; the principal part
is a_3 = X_1 sum_j X_j^2 and everything below it is returned split into real
and imaginary components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .core import SympySymbol, _lambdified, kn_to_weyl_expr, phase_symbols, weyl_product_expr

__all__ = ["VectorFieldSystem", "KdvTypeBuild", "build_kdv_type"]

QUALIFY_X_RADIUS = 10.0  # qualifying_directions scans [-QUALIFY_X_RADIUS, QUALIFY_X_RADIUS]^n
QUALIFY_POINTS = 201  # nodes per axis of that scan


@dataclass
class VectorFieldSystem:
    """Real smooth coefficients a_ij(x), i, j = 1..n (sympy expressions in x1..xn,
    or strings that sympify to them).

    coefficients[i][j] is a_ij; column j defines the field X_j.
    """

    n: int
    coefficients: list  # n x n nested list of sympy expressions
    _xis: list = field(init=False, repr=False)
    _weyl: list = field(init=False, repr=False)  # the Weyl symbols X_j + d_{X_j}

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 1:
            raise ValueError(f"a system needs n >= 1 fields, got n={self.n}")
        xs, self._xis = phase_symbols(self.n)
        if len(self.coefficients) != self.n or any(len(row) != self.n for row in self.coefficients):
            raise ValueError(f"coefficients must be an {self.n}x{self.n} matrix")
        names = {str(x): x for x in xs}
        coeffs = [[sp.sympify(c, locals=names) for c in row] for row in self.coefficients]
        allowed = set(xs)
        for row in coeffs:
            for c in row:
                if c.free_symbols - allowed:
                    raise ValueError(f"coefficient {c} uses symbols outside x1..x{self.n}")
        self.coefficients = coeffs
        self._weyl = [kn_to_weyl_expr(self.kn_symbol(j), self.n) for j in range(self.n)]
        # Weyl corrections d_{X_j}; must be purely imaginary (or zero)
        for j in range(self.n):
            d = self.weyl_correction(j)
            re_d = sp.simplify(sp.re(d))
            if re_d != 0:
                raise ValueError(
                    f"Weyl correction d_X{j + 1} = {d} has a real part; "
                    "the coefficient matrix must be real"
                )

    def kn_symbol(self, j: int):
        """Kohn-Nirenberg symbol X_j(x, xi) = sum_i a_ij(x) xi_i."""
        return sp.expand(sum(self.coefficients[i][j] * self._xis[i] for i in range(self.n)))

    def weyl_correction(self, j: int):
        """d_{X_j} with Op_KN(X_j) = Op_w(X_j + d_{X_j}); equals (i/2) sum_i d_i a_ij."""
        return sp.expand(self._weyl[j] - self.kn_symbol(j))

    def weyl_symbol(self, j: int):
        return self._weyl[j]

    def qualifying_directions(self) -> list[dict]:
        """All k with inf_x |d_{xi_k} X_1| = inf_x |a_k1| > 0, with the paired
        smallness bound sup_x |a_kj|^2 < 3 C_k/(n-1) for j >= 2, over the
        QUALIFY_POINTS^n x mesh.

        When several k qualify, all are reported rather than one being chosen.
        """
        axes = [np.linspace(-QUALIFY_X_RADIUS, QUALIFY_X_RADIUS, QUALIFY_POINTS)] * self.n
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.n)

        def abs_on_mesh(coefficient):
            return np.abs(_lambdified(coefficient, self.n)(mesh, mesh))

        out = []
        for k in range(self.n):
            c_k = float(np.min(abs_on_mesh(self.coefficients[k][0])))
            if c_k <= 0:
                continue
            entry = {"k": k + 1, "C": c_k, "smallness_ok": True, "sup_akj_sq": {}}
            if self.n > 1:
                bound = 3.0 * c_k / (self.n - 1)
                for j in range(1, self.n):
                    sup_sq = float(np.max(abs_on_mesh(self.coefficients[k][j]) ** 2))
                    entry["sup_akj_sq"][f"j={j + 1}"] = sup_sq
                    if not sup_sq < bound:
                        entry["smallness_ok"] = False
            out.append(entry)
        return out


@dataclass
class KdvTypeBuild:
    """Exact symbol split for the KdV-type generator X_1 sum_j X_j^2."""

    a3: SympySymbol
    re_a2: SympySymbol
    im_a2: SympySymbol
    full: SympySymbol
    corrections: list


def build_kdv_type(system: VectorFieldSystem) -> KdvTypeBuild:
    """Assemble the exact Weyl symbol of X_1 (sum_j X_j X_j) and split it.

    The composition is evaluated with the terminating Weyl product of the
    (polynomial in xi) Weyl symbols X_j + d_{X_j}; no asymptotic truncation
    error is incurred.  a_3 = X_1 sum_j X_j^2; the remainder (order <= 2) is
    split into real and imaginary parts.
    """
    n = system.n
    x1w = system.weyl_symbol(0)
    s2 = sp.Integer(0)
    for j in range(n):
        xw = system.weyl_symbol(j)
        s2 += weyl_product_expr(xw, xw, n)
    full_expr = sp.expand(weyl_product_expr(x1w, sp.expand(s2), n))

    a3_expr = sp.expand(system.kn_symbol(0) * sum(system.kn_symbol(j) ** 2 for j in range(n)))
    a2_expr = sp.expand(full_expr - a3_expr)
    re2, im2 = (sp.expand(part) for part in a2_expr.as_real_imag())

    a3 = SympySymbol(a3_expr, n, 3.0, label="kdv_type.a3")
    re_a2 = SympySymbol(re2, n, 2.0, zero_nyquist=False, label="kdv_type.re_a2")
    im_a2 = SympySymbol(im2, n, 2.0, zero_nyquist=False, label="kdv_type.im_a2")
    full = SympySymbol(full_expr, n, 3.0, label="kdv_type.full")
    corrections = [system.weyl_correction(j) for j in range(n)]
    return KdvTypeBuild(a3=a3, re_a2=re_a2, im_a2=im_a2, full=full, corrections=corrections)
