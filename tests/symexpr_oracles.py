"""Numeric and structural oracles for the symbolic algebra, used only by tests.

They check `kdvmkdv.symexpr` from outside: evaluating an expression through
the Jacobi functions, canonicalizing a raw sum of sn/cn/dn terms, the
conditioning of a basis, and the partial derivatives and symbols of a
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from kdvmkdv import elliptic
from kdvmkdv.symexpr import (
    EllipticExpr,
    EllipticMonomial,
    Mono,
    ParamPoly,
    _reduce_raw,
)


def eval_numeric(expr: EllipticExpr, bindings: dict[str, float], xi, m: float):
    """Evaluate expr at argument xi and elliptic parameter m under the bindings.

    The 'm' binding, when present, must equal the evaluation parameter.
    """
    bound = dict(bindings)
    if "m" in bound:
        if abs(bound["m"] - m) > 1e-15:
            raise ValueError("binding m=%r disagrees with evaluation parameter m=%r" % (bound["m"], m))
    else:
        bound["m"] = m
    sn, cn, dn = elliptic.jacobi(xi, m)
    total = 0.0 * sn
    for mono, poly in expr.terms.items():
        total = total + poly.eval(bound) * sn**mono.sn_pow * cn**mono.cn_pow * dn**mono.dn_pow
    return total


def reduce(raw_terms: Iterable[tuple[int, int, int, ParamPoly | Fraction | int]]) -> EllipticExpr:
    """Canonicalize a raw sum of (sn_pow, cn_pow, dn_pow, coefficient) terms
    with arbitrary cn/dn powers."""
    out = EllipticExpr.zero()
    for sn_pow, cn_pow, dn_pow, coef in raw_terms:
        poly = coef if isinstance(coef, ParamPoly) else ParamPoly.const(coef)
        out = out + EllipticExpr(_reduce_raw(sn_pow, cn_pow, dn_pow, poly))
    return out


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


def derivative(poly: ParamPoly, name: str) -> ParamPoly:
    """Formal partial derivative of poly with respect to one symbol."""
    res: dict[Mono, int | Fraction] = {}
    for mono, coef in poly.terms.items():
        for i, (s, e) in enumerate(mono):
            if s == name:
                rest = mono[:i] + ((s, e - 1),) + mono[i + 1 :] if e > 1 else mono[:i] + mono[i + 1 :]
                res[rest] = res.get(rest, 0) + coef * e
                break
    return ParamPoly(res)


def symbols(poly: ParamPoly) -> set[str]:
    """The symbols that occur in poly."""
    return {s for mono in poly.terms for s, _ in mono}
