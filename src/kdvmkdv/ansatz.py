"""Traveling-wave ansatz compilation and algebraic-system extraction.

Substituting u = sum_i sn^(i-1)*(A_i*cn + B_i*dn) + A_0 into the reduced ODE

    -v*u' + a*u*u' + b*u^2*u' + d*u''' = 0

produces a polynomial in sn, cn, dn and the scalar symbols.  Everything is a
symexpr.ParamPoly: derivatives come from symexpr.differentiate, each product
is put in canonical form (cn and dn exponents 0 or 1) as it is formed, and
the coefficient of each basis monomial (symexpr.basis_coefficients) must
vanish; collecting them gives the overdetermined polynomial system that the
closed forms solve.  The time-dependent variant replaces v by the grouped
symbol w = v + t*dv/dt and multiplies the spatial part by h = 1/f(t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Real

from .symexpr import BASIS_SYMBOLS, EllipticMonomial, ParamPoly, basis_coefficients, canonical, differentiate

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


# derive_system hands out one system per (order, timedep) and process, so a
# system compares and hashes by identity: a memo keyed on it does not rehash
# every equation on each lookup
@dataclass(frozen=True, eq=False)
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
        return self._text

    # a system is frozen, and derive_system hands out one per process, so it
    # is rendered once
    @functools.cached_property
    def _text(self) -> str:
        lines = []
        for mono, eq in zip(self.monomials, self.equations):
            lines.append("%s: %s = 0" % (mono.text(), eq.text()))
        return "\n".join(lines)


def build_ansatz(spec: AnsatzSpec) -> ParamPoly:
    """Canonical expansion sum_i sn^(i-1)*(A_i*cn + B_i*dn) + A_0."""
    sn, cn, dn = (ParamPoly.symbol(s) for s in BASIS_SYMBOLS)
    amps = [ParamPoly.symbol(s) for s in spec.amplitude_symbols]
    u = ParamPoly.symbol(spec.offset_symbol)
    for i in range(1, spec.order + 1):
        u = u + sn ** (i - 1) * (amps[2 * i - 2] * cn + amps[2 * i - 1] * dn)
    return u


def _spatial_parts(u: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    """(u', a*u*u' + b*u^2*u' + d*u''') shared by both residual forms."""
    du = differentiate(u)
    d3u = differentiate(differentiate(du))
    a, b, d = (ParamPoly.symbol(s) for s in ("a", "b", "d"))
    # each product is put in canonical form as it is formed, which keeps the
    # next product small
    u_du = canonical(u * du)
    spatial = u_du * a + canonical(u * u_du) * b + d3u * d
    return du, spatial


def residual_constant(u: ParamPoly) -> ParamPoly:
    """-v*u' + a*u*u' + b*u^2*u' + d*u''' in canonical form."""
    du, spatial = _spatial_parts(u)
    return du * -ParamPoly.symbol("v") + spatial


def residual_timedep(u: ParamPoly) -> ParamPoly:
    """-w*u' + h*(a*u*u' + b*u^2*u' + d*u''') with w = v + t*dv/dt, h = 1/f(t)."""
    du, spatial = _spatial_parts(u)
    return du * -ParamPoly.symbol("w") + spatial * ParamPoly.symbol("h")


def extract_system(
    residual: ParamPoly,
    unknowns: tuple[str, ...],
    assume_nonzero: tuple[str, ...],
    time_constant: tuple[str, ...],
) -> AlgebraicSystem:
    """One equation per nonzero basis coefficient, in the deterministic basis
    order, each normalized by rational content, by monomial content over the
    assume_nonzero symbols, and to a positive leading coefficient."""
    monos = []
    eqs = []
    for mono, poly in basis_coefficients(residual):
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
    """Full derivation pipeline: ansatz -> residual -> extracted system.

    Each (order, timedep) is derived once per process, and every later call
    returns that same system; callers must not alter its equations."""
    return _derive(order, bool(timedep))


# a plain derive_system in front of the memo gives derive_system(1) and
# derive_system(1, timedep=False) one entry; typed keeps 1.0 from reusing 1
@functools.lru_cache(maxsize=None, typed=True)
def _derive(order: int, timedep: bool) -> AlgebraicSystem:
    spec = AnsatzSpec(order)
    u = build_ansatz(spec)
    # treated as nonzero when an equation is normalized: the amplitudes (a
    # trivial all-zero wave carries no constraint) and the elliptic parameter,
    # which must be positive for a genuine elliptic wave
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
