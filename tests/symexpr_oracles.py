"""Numeric and structural oracles for the symbolic algebra, used only by tests.

They check `kdvmkdv.symexpr` from outside: evaluating a polynomial under a
numeric binding and through the Jacobi functions, canonicalizing a raw sum of
sn/cn/dn terms, the conditioning of a basis, and the symbols of a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from kdvmkdv import elliptic
from kdvmkdv.symexpr import EllipticMonomial, ParamPoly, UnboundSymbolError, canonical


def eval_poly(poly: ParamPoly, bindings: dict[str, float]) -> float:
    """Numeric value of poly under a full symbol binding, term by term."""
    total = 0.0
    for mono, coef in poly.terms.items():
        val = float(coef)
        for s, e in mono:
            if s not in bindings:
                raise UnboundSymbolError("symbol %r is unbound" % (s,))
            val *= bindings[s] ** e
        total += val
    return total


def eval_numeric(expr: ParamPoly, bindings: dict[str, float], xi, m: float):
    """Evaluate expr at argument xi and elliptic parameter m under the bindings,
    with sn, cn and dn bound to the Jacobi functions there.

    The 'm' binding, when present, must equal the evaluation parameter.
    """
    bound = dict(bindings)
    if "m" in bound:
        if abs(bound["m"] - m) > 1e-15:
            raise ValueError("binding m=%r disagrees with evaluation parameter m=%r" % (bound["m"], m))
    else:
        bound["m"] = m
    bound["sn"], bound["cn"], bound["dn"] = elliptic.jacobi(xi, m)
    return eval_poly(expr, bound)


def reduce(raw_terms: Iterable[tuple[int, int, int, ParamPoly | Fraction | int]]) -> ParamPoly:
    """Canonicalize a raw sum of (sn_pow, cn_pow, dn_pow, coefficient) terms
    with arbitrary cn/dn powers."""
    raw = ParamPoly.zero()
    for sn_pow, cn_pow, dn_pow, coef in raw_terms:
        raw = raw + ParamPoly.monomial(1, sn=sn_pow, cn=cn_pow, dn=dn_pow) * coef
    return canonical(raw)


def basis_condition_number(monomials: Iterable[EllipticMonomial], m: float, n_points: int = 256) -> float:
    """Condition number of the Gram matrix of the basis monomials sampled over
    one period; a moderate value certifies the linear independence that the
    coefficient-matching step relies on."""
    monos = list(monomials)
    L = 4.0 * elliptic.complete_K(m) if m < 1.0 else 40.0
    xs = np.linspace(0.0, L, n_points, endpoint=False)
    sn, cn, dn = elliptic.jacobi(xs, m)
    M = np.column_stack([sn**mo.sn_pow * cn**mo.cn_pow * dn**mo.dn_pow for mo in monos])
    gram = M.T @ M / n_points
    return float(np.linalg.cond(gram))


def symbols(poly: ParamPoly) -> set[str]:
    """The symbols that occur in poly."""
    return {s for mono in poly.terms for s, _ in mono}
