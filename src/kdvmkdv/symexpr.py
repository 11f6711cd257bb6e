"""Exact polynomial algebra for the sn/cn/dn derivation.

One type, ParamPoly, holds every polynomial of the derivation: a multivariate
polynomial in the scalar symbols (a, b, d, m, A, B, D, v, h, w, ...) and the
Jacobi functions sn, cn, dn, with coefficients held exactly: a coefficient is
a plain int while the arithmetic stays integral, and a fractions.Fraction once
a non-integer has entered it.
The derivation works modulo cn^2 + sn^2 = 1 and dn^2 + m*sn^2 = 1.  canonical
keeps cn and dn exponents in {0, 1} by rewriting

    cn^2 -> 1 - sn^2        dn^2 -> 1 - m*sn^2

so {sn^i, sn^i*cn, sn^i*dn, sn^i*cn*dn} is the working basis, and
basis_coefficients reads off the coefficient of each basis monomial.  The two
rules have coprime leading terms, so this normal form is unique (Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, ch. 2).  differentiate follows
sn' = cn*dn, cn' = -sn*dn, dn' = -m*sn*cn, the algebra induced by the defining
equation y' = sqrt(1-y^2)*sqrt(1-m*y^2) of sn.

All values are immutable; operations return new objects.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, inf
from typing import Iterable, NamedTuple

# Symbols of the polynomial ring, in canonical order.  h stands for 1/f(t) and
# w for the grouped speed term v + t*dv/dt of the time-dependent equation.
# The order is fixed (a monomial order is a total order on the variables):
# CORE_SYMBOLS, then the solver's formal square roots, inverse and signs, then
# the Jacobi functions sn, cn, dn, then the higher-order ansatz amplitudes A1,
# B1, A2, B2, ..., and the higher-order offset A0 last.
CORE_SYMBOLS = ("a", "b", "d", "m", "A", "B", "D", "v", "h", "w")
FORMAL_SYMBOLS = ("sqrtm", "sqrtq", "binv", "sgnA", "sgnB")
BASIS_SYMBOLS = ("sn", "cn", "dn")
_FIXED_SYMBOLS = CORE_SYMBOLS + FORMAL_SYMBOLS + BASIS_SYMBOLS

_AMPLITUDE = re.compile(r"([AB])([1-9][0-9]*)")


class UnboundSymbolError(KeyError):
    """Numeric evaluation hit a symbol with no binding."""


class _Ranks(dict):
    """Position of each symbol in the fixed order, filled in as names are
    first looked up; an unknown name raises KeyError."""

    def __missing__(self, name: str) -> float:
        if name == "A0":
            rank = inf
        else:
            match = _AMPLITUDE.fullmatch(name)
            if match is None:
                raise KeyError("unknown symbol %r" % (name,))
            rank = len(_FIXED_SYMBOLS) + 2 * (int(match[2]) - 1) + (match[1] == "B")
        self[name] = rank
        return rank


_RANK = _Ranks((s, i) for i, s in enumerate(_FIXED_SYMBOLS))


# A monomial in the scalar symbols: tuple of (name, exponent>0) pairs sorted
# by rank.  The empty tuple is the constant monomial.
Mono = tuple[tuple[str, int], ...]


def _mono(*pairs: tuple[str, int]) -> Mono:
    items = [(s, e) for s, e in pairs if e]
    items.sort(key=lambda p: _RANK[p[0]])
    return tuple(items)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc: dict[str, int] = {}
    for s, e in m1:
        acc[s] = acc.get(s, 0) + e
    for s, e in m2:
        acc[s] = acc.get(s, 0) + e
    return _mono(*acc.items())


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Mono) -> tuple:
    """Graded-lexicographic sort key: by degree, then at the first symbol in
    which two monomials differ, the one holding it, or its higher power, is
    the greater."""
    return (_mono_degree(m), tuple([(-_RANK[s], e) for s, e in m]))


def _mono_text(m: Mono) -> str:
    return "*".join(s if e == 1 else "%s**%d" % (s, e) for s, e in m)


def _exact(x) -> int | Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return int(x)
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % (x,))


class ParamPoly:
    """Multivariate polynomial over the scalar symbols with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int | Fraction] | None = None):
        self.terms: dict[Mono, int | Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    self.terms[mono] = coef

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def const(cls, value) -> "ParamPoly":
        c = _exact(value)
        return cls({(): c}) if c else cls()

    @classmethod
    def symbol(cls, name: str) -> "ParamPoly":
        _RANK[name]  # KeyError for an unknown name
        return cls({_mono((name, 1)): 1})

    @classmethod
    def monomial(cls, coef, **powers: int) -> "ParamPoly":
        return cls({_mono(*powers.items()): _exact(coef)})

    # -- ring operations ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        res = dict(self.terms)
        for mono, coef in other.terms.items():
            s = res.get(mono, 0) + coef
            if s:
                res[mono] = s
            else:
                res.pop(mono, None)
        return ParamPoly(res)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        res: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = res.get(mono, 0) + c1 * c2
                if s:
                    res[mono] = s
                else:
                    res.pop(mono, None)
        return ParamPoly(res)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power")
        out = ParamPoly.const(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def _coerce(x) -> "ParamPoly":
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- calculus and substitution ------------------------------------------

    def substitute(self, mapping: dict[str, "ParamPoly | Fraction | int"]) -> "ParamPoly":
        """Exact substitution of symbols by polynomials (or constants)."""
        if not self.terms:
            return self
        polys = {s: v for s, v in mapping.items() if isinstance(v, ParamPoly)}
        numbers = {s: _exact(v) for s, v in mapping.items() if s not in polys}
        res: dict[Mono, int | Fraction] = {}
        for mono, coef in self.terms.items():
            factor = None
            kept: list[tuple[str, int]] = []
            for s, e in mono:
                if s in numbers:
                    coef = coef * numbers[s] ** e
                elif s in polys:
                    factor = polys[s] ** e if factor is None else factor * polys[s] ** e
                else:
                    kept.append((s, e))
            if not coef:  # a zero number, as the zero polynomial would, leaves no term
                continue
            rest = tuple(kept)
            if factor is None:  # only numbers went in: the rest of the monomial stays
                res[rest] = res.get(rest, 0) + coef
                continue
            for m2, c2 in factor.terms.items():
                mono2 = _mono_mul(m2, rest)
                res[mono2] = res.get(mono2, 0) + coef * c2
        return ParamPoly(res)

    # -- canonical normalization --------------------------------------------

    def leading(self) -> tuple[Mono, int | Fraction]:
        mono = max(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    def normalized(self, assume_nonzero: Iterable[str] = ()) -> "ParamPoly":
        """Divide out rational content and monomial content over assume_nonzero
        symbols; flip the sign so the leading coefficient is positive."""
        if not self.terms:
            return self
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        strip = set(assume_nonzero)
        shared: dict[str, int] | None = None
        for mono in self.terms:
            powers = {s: e for s, e in mono if s in strip}
            if shared is not None:
                powers = {s: min(e, powers[s]) for s, e in shared.items() if s in powers}
            shared = powers
        res: dict[Mono, int | Fraction] = {}
        for mono, coef in self.terms.items():
            kept = tuple((s, e - shared.get(s, 0)) for s, e in mono if e - shared.get(s, 0) > 0)
            # coef / (num/den) is an integer: num divides the numerator, the denominator divides den
            res[kept] = coef.numerator * (den // coef.denominator) // num
        p = ParamPoly(res)
        if p.leading()[1] < 0:
            p = -p
        return p

    # -- formatting ----------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            coef = self.terms[mono]
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _mono_text(mono)
            else:
                body = "%s*%s" % (mag, _mono_text(mono))
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    __str__ = text

    def __repr__(self):
        return "ParamPoly(%s)" % self.text()


class EllipticMonomial(NamedTuple):
    """Canonical basis monomial sn^sn_pow * cn^cn_pow * dn^dn_pow."""

    sn_pow: int
    cn_pow: int
    dn_pow: int

    def text(self) -> str:
        return _mono_text(_mono(*zip(BASIS_SYMBOLS, self))) or "1"


_SN, _CN, _DN, _M = (ParamPoly.symbol(s) for s in BASIS_SYMBOLS + ("m",))
# cn^2 and dn^2 in canonical form, and the derivative of each basis symbol
_CN2 = ParamPoly.const(1) - _SN * _SN
_DN2 = ParamPoly.const(1) - _M * _SN * _SN
_DERIVATIVES = {"sn": _CN * _DN, "cn": -_SN * _DN, "dn": -_M * _SN * _CN}


@functools.cache
def _squares(q1: int, q2: int) -> ParamPoly:
    """(cn^2)^q1 * (dn^2)^q2 in canonical form."""
    return _CN2**q1 * _DN2**q2


def canonical(p: ParamPoly) -> ParamPoly:
    """Rewrite cn^2 -> 1 - sn^2 and dn^2 -> 1 - m*sn^2 until every cn and dn
    exponent is 0 or 1."""
    res: dict[Mono, int | Fraction] = {}
    for mono, coef in p.terms.items():
        powers = dict(mono)
        q1, powers["cn"] = divmod(powers.get("cn", 0), 2)
        q2, powers["dn"] = divmod(powers.get("dn", 0), 2)
        if q1 or q2:
            rest = _mono(*powers.items())
            for m2, c2 in _squares(q1, q2).terms.items():
                mono2 = _mono_mul(rest, m2)
                res[mono2] = res.get(mono2, 0) + coef * c2
        else:
            res[mono] = res.get(mono, 0) + coef
    return ParamPoly(res)


def _partial(p: ParamPoly, name: str) -> ParamPoly:
    """Formal partial derivative of p with respect to one symbol."""
    res: dict[Mono, int | Fraction] = {}
    for mono, coef in p.terms.items():
        for k, (s, e) in enumerate(mono):
            if s == name:
                res[mono[:k] + ((s, e - 1),) * (e > 1) + mono[k + 1 :]] = coef * e
                break
    return ParamPoly(res)


def differentiate(p: ParamPoly) -> ParamPoly:
    """Derivative with respect to the elliptic argument, by sn' = cn*dn,
    cn' = -sn*dn and dn' = -m*sn*cn, in canonical form."""
    out = ParamPoly.zero()
    for name, rule in _DERIVATIVES.items():
        out = out + _partial(p, name) * rule
    return canonical(out)


def basis_coefficients(p: ParamPoly) -> list[tuple[EllipticMonomial, ParamPoly]]:
    """The terms of a canonical p grouped by their (sn, cn, dn) exponents, as
    (EllipticMonomial, coefficient) pairs sorted by those exponents."""
    groups: dict[EllipticMonomial, dict[Mono, int | Fraction]] = {}
    for mono, coef in p.terms.items():
        powers = dict(mono)
        basis = EllipticMonomial(*(powers.get(s, 0) for s in BASIS_SYMBOLS))
        rest = tuple(pair for pair in mono if pair[0] not in BASIS_SYMBOLS)
        groups.setdefault(basis, {})[rest] = coef
    return [(basis, ParamPoly(groups[basis])) for basis in sorted(groups)]
