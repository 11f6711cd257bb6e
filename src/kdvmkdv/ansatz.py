"""Traveling-wave ansatz compilation and algebraic-system extraction.

Substituting u = sum_i sn^(i-1)*(A_i*cn + B_i*dn) + A_0 into the reduced ODE

    -v*u' + a*u*u' + b*u^2*u' + d*u''' = 0

produces a canonical expression whose basis coefficients must each vanish;
collecting them gives the overdetermined polynomial system that the closed
forms solve.  The time-dependent variant replaces v by the grouped symbol
w = v + t*dv/dt and multiplies the spatial part by h = 1/f(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from .symexpr import EllipticExpr, EllipticMonomial, ParamPoly

# Symbols treated as nonzero when an extracted equation is normalized: the
# ansatz amplitudes (a trivial A=B=0 wave carries no constraint) and the
# elliptic parameter, which must be positive for a genuine elliptic wave.
DEFAULT_NONZERO = ("A", "B", "m")


@dataclass(frozen=True)
class PdeParams:
    """Coefficients of u_t + a*u*u_x + b*u^2*u_x + d*u_xxx = 0 plus the
    elliptic parameter m of the wave family."""

    a: Real
    b: Real
    d: Real
    m: Real

    def __post_init__(self):
        for name in ("a", "b", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("coefficient %s=%r is not finite" % (name, getattr(self, name)))
        if not 0.0 <= float(self.m) <= 1.0:  # also refuses a non-finite m
            raise ValueError("elliptic parameter m=%r outside [0, 1]" % (self.m,))

    def as_floats(self) -> tuple[float, float, float, float]:
        return float(self.a), float(self.b), float(self.d), float(self.m)


@dataclass(frozen=True)
class AnsatzSpec:
    """Expansion order and the coefficient symbols it introduces.

    Order 1 uses the canonical names A, B and D (the constant term); higher
    orders use A1..An, B1..Bn and A0.
    """

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("ansatz order must be >= 1, got %r" % (self.order,))

    @property
    def amplitude_symbols(self) -> tuple[str, ...]:
        if self.order == 1:
            return ("A", "B")
        names = []
        for i in range(1, self.order + 1):
            names.append("A%d" % i)
            names.append("B%d" % i)
        return tuple(names)

    @property
    def offset_symbol(self) -> str:
        return "D" if self.order == 1 else "A0"

    @property
    def coefficient_symbols(self) -> tuple[str, ...]:
        return self.amplitude_symbols + (self.offset_symbol,)


@dataclass(frozen=True)
class AlgebraicSystem:
    """Ordered polynomial constraints extracted from a residual expression."""

    equations: tuple[ParamPoly, ...]
    monomials: tuple[EllipticMonomial, ...]
    unknowns: tuple[str, ...]
    # coefficients proven time-independent in the variable-coefficient case;
    # recorded as fact rather than as ring elements
    time_constant: tuple[str, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.equations)

    def text(self) -> str:
        lines = []
        for mono, eq in zip(self.monomials, self.equations):
            lines.append("%s: %s = 0" % (mono.text(), eq.text()))
        return "\n".join(lines)


def build_ansatz(spec: AnsatzSpec) -> EllipticExpr:
    """Canonical expansion sum_i sn^(i-1)*(A_i*cn + B_i*dn) + A_0."""
    amps = spec.amplitude_symbols
    expr = EllipticExpr.scalar(ParamPoly.symbol(spec.offset_symbol))
    for i in range(1, spec.order + 1):
        a_sym, b_sym = amps[2 * (i - 1)], amps[2 * (i - 1) + 1]
        expr = expr + EllipticExpr(
            {
                EllipticMonomial(i - 1, 1, 0): ParamPoly.symbol(a_sym),
                EllipticMonomial(i - 1, 0, 1): ParamPoly.symbol(b_sym),
            }
        )
    return expr


def _spatial_parts(u: EllipticExpr) -> tuple[EllipticExpr, EllipticExpr]:
    """(u', a*u*u' + b*u^2*u' + d*u''') shared by both residual forms."""
    du = u.differentiate()
    d3u = du.differentiate().differentiate()
    a, b, d = (ParamPoly.symbol(s) for s in ("a", "b", "d"))
    spatial = (u * du).scale(a) + (u * u * du).scale(b) + d3u.scale(d)
    return du, spatial


def residual_constant(u: EllipticExpr) -> EllipticExpr:
    """-v*u' + a*u*u' + b*u^2*u' + d*u''' in canonical form."""
    du, spatial = _spatial_parts(u)
    return du.scale(-ParamPoly.symbol("v")) + spatial


def residual_timedep(u: EllipticExpr) -> EllipticExpr:
    """-w*u' + h*(a*u*u' + b*u^2*u' + d*u''') with w = v + t*dv/dt, h = 1/f(t)."""
    du, spatial = _spatial_parts(u)
    return du.scale(-ParamPoly.symbol("w")) + spatial.scale(ParamPoly.symbol("h"))


def extract_system(
    residual: EllipticExpr,
    unknowns: tuple[str, ...],
    assume_nonzero: tuple[str, ...] = DEFAULT_NONZERO,
    time_constant: tuple[str, ...] = (),
) -> AlgebraicSystem:
    """One equation per nonzero basis coefficient, in the deterministic basis
    order, each normalized by rational content, by monomial content over the
    assume_nonzero symbols, and to a positive leading coefficient."""
    monos = []
    eqs = []
    for mono, poly in residual.coefficients():
        norm = poly.normalized(assume_nonzero)
        if norm:
            monos.append(mono)
            eqs.append(norm)
    return AlgebraicSystem(
        equations=tuple(eqs),
        monomials=tuple(monos),
        unknowns=tuple(unknowns),
        time_constant=tuple(time_constant),
    )


def derive_system(order: int, timedep: bool = False) -> AlgebraicSystem:
    """Full derivation pipeline: ansatz -> residual -> extracted system."""
    spec = AnsatzSpec(order)
    u = build_ansatz(spec)
    nonzero = spec.amplitude_symbols + ("m",)
    if timedep:
        res = residual_timedep(u)
        unknowns = spec.coefficient_symbols + ("w", "h")
        constant = spec.coefficient_symbols
        # h = 1/f never vanishes (f is required nonvanishing), so it is
        # divided out of equations where it is an overall factor
        nonzero = nonzero + ("h",)
    else:
        res = residual_constant(u)
        unknowns = spec.coefficient_symbols + ("v",)
        constant = ()
    return extract_system(res, unknowns, assume_nonzero=nonzero, time_constant=constant)
