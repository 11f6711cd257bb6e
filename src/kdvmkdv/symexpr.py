"""Exact symbolic algebra over the sn/cn/dn function algebra.

An expression is a finite sum  sum_k  P_k(a,b,d,m,A,B,D,v,h,w) * sn^i * cn^e1 * dn^e2
with multivariate rational coefficients P_k held exactly: a coefficient is a
plain int while the arithmetic stays integral, and a fractions.Fraction once a
non-integer has entered it.
Canonical form keeps cn and dn exponents in {0, 1} by rewriting

    cn^2 -> 1 - sn^2        dn^2 -> 1 - m*sn^2

so {sn^i, sn^i*cn, sn^i*dn, sn^i*cn*dn} is the working basis.  Differentiation
follows sn' = cn*dn, cn' = -sn*dn, dn' = -m*sn*cn, the algebra induced by the
defining equation y' = sqrt(1-y^2)*sqrt(1-m*y^2) of sn.

All values are immutable; operations return new objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf
from typing import Iterable, NamedTuple

# Scalar symbols of the coefficient ring, in canonical order.  h stands for
# 1/f(t) and w for the grouped speed term v + t*dv/dt of the time-dependent
# equation.  The order is fixed (a monomial order is a total order on the
# variables): CORE_SYMBOLS, then the solver's formal square roots, inverse and
# signs, then the higher-order ansatz amplitudes A1, B1, A2, B2, ..., and the
# higher-order offset A0 last.
CORE_SYMBOLS = ("a", "b", "d", "m", "A", "B", "D", "v", "h", "w")
FORMAL_SYMBOLS = ("sqrtm", "sqrtq", "binv", "sgnA", "sgnB")

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
            rank = len(CORE_SYMBOLS + FORMAL_SYMBOLS) + 2 * (int(match[2]) - 1) + (match[1] == "B")
        self[name] = rank
        return rank


_RANK = _Ranks((s, i) for i, s in enumerate(CORE_SYMBOLS + FORMAL_SYMBOLS))


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
    if not m:
        return "1"
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

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) + (-self)

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
        polys = {s: v for s, v in mapping.items() if isinstance(v, ParamPoly)}
        numbers = {s: _exact(v) for s, v in mapping.items() if s not in polys}
        res: dict[Mono, int | Fraction] = {}
        for mono, coef in self.terms.items():
            factor = ParamPoly.const(1)
            kept: list[tuple[str, int]] = []
            for s, e in mono:
                if s in numbers:
                    coef = coef * numbers[s] ** e
                elif s in polys:
                    factor = factor * polys[s] ** e
                else:
                    kept.append((s, e))
            rest = tuple(kept)
            for m2, c2 in factor.terms.items():
                mono2 = _mono_mul(m2, rest)
                res[mono2] = res.get(mono2, 0) + coef * c2
        return ParamPoly(res)

    def eval(self, bindings: dict[str, float]) -> float:
        """Numeric value of the polynomial under a full symbol binding."""
        total = 0.0
        for mono, coef in self.terms.items():
            val = float(coef)
            for s, e in mono:
                if s not in bindings:
                    raise UnboundSymbolError("symbol %r is unbound" % (s,))
                val *= bindings[s] ** e
            total += val
        return total

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
        if self == (0, 0, 0):
            return "1"
        parts = []
        for name, e in (("sn", self.sn_pow), ("cn", self.cn_pow), ("dn", self.dn_pow)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s**%d" % (name, e))
        return "*".join(parts)


ONE_MONOMIAL = EllipticMonomial(0, 0, 0)


def _reduce_raw(sn_pow: int, cn_pow: int, dn_pow: int, coef: ParamPoly) -> dict[EllipticMonomial, ParamPoly]:
    """Rewrite cn^2 -> 1 - sn^2 and dn^2 -> 1 - m*sn^2 until canonical."""
    # expand (1-sn^2)^q1 * (1-m*sn^2)^q2 as a polynomial in sn^2
    q1, r1 = divmod(cn_pow, 2)
    q2, r2 = divmod(dn_pow, 2)
    m_sym = ParamPoly.symbol("m")
    poly: dict[int, ParamPoly] = {0: coef}
    for _ in range(q1):
        nxt: dict[int, ParamPoly] = {}
        for j, c in poly.items():
            nxt[j] = nxt.get(j, ParamPoly.zero()) + c
            nxt[j + 1] = nxt.get(j + 1, ParamPoly.zero()) - c
        poly = nxt
    for _ in range(q2):
        nxt = {}
        for j, c in poly.items():
            nxt[j] = nxt.get(j, ParamPoly.zero()) + c
            nxt[j + 1] = nxt.get(j + 1, ParamPoly.zero()) - c * m_sym
        poly = nxt
    out: dict[EllipticMonomial, ParamPoly] = {}
    for j, c in poly.items():
        if c:
            out[EllipticMonomial(sn_pow + 2 * j, r1, r2)] = c
    return out


class EllipticExpr:
    """Canonical expression in the sn/cn/dn algebra with ParamPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[EllipticMonomial, ParamPoly] | None = None):
        self.terms: dict[EllipticMonomial, ParamPoly] = {}
        if terms:
            for mono, poly in terms.items():
                if poly:
                    self.terms[mono] = poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "EllipticExpr":
        return cls()

    @classmethod
    def scalar(cls, value) -> "EllipticExpr":
        poly = value if isinstance(value, ParamPoly) else ParamPoly.const(value)
        return cls({ONE_MONOMIAL: poly})

    @classmethod
    def sn(cls, power: int = 1) -> "EllipticExpr":
        return cls({EllipticMonomial(power, 0, 0): ParamPoly.const(1)})

    # -- algebra -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EllipticExpr):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "EllipticExpr") -> "EllipticExpr":
        res = dict(self.terms)
        for mono, poly in other.terms.items():
            s = res.get(mono, ParamPoly.zero()) + poly
            if s:
                res[mono] = s
            else:
                res.pop(mono, None)
        return EllipticExpr(res)

    def __neg__(self) -> "EllipticExpr":
        return EllipticExpr({m: -p for m, p in self.terms.items()})

    def __sub__(self, other: "EllipticExpr") -> "EllipticExpr":
        return self + (-other)

    def scale(self, factor) -> "EllipticExpr":
        """Multiply by a scalar ParamPoly (or exact constant)."""
        f = factor if isinstance(factor, ParamPoly) else ParamPoly.const(factor)
        return EllipticExpr({m: p * f for m, p in self.terms.items()})

    def __mul__(self, other: "EllipticExpr") -> "EllipticExpr":
        raw: dict[tuple[int, int, int], ParamPoly] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                key = (m1.sn_pow + m2.sn_pow, m1.cn_pow + m2.cn_pow, m1.dn_pow + m2.dn_pow)
                raw[key] = raw[key] + p1 * p2 if key in raw else p1 * p2
        res: dict[EllipticMonomial, ParamPoly] = {}
        for key, coef in raw.items():
            for mono, poly in _reduce_raw(*key, coef).items():
                res[mono] = res[mono] + poly if mono in res else poly
        return EllipticExpr(res)

    # -- spec operations -----------------------------------------------------

    def differentiate(self) -> "EllipticExpr":
        """Derivative with respect to the elliptic argument, in canonical form."""
        m_sym = ParamPoly.symbol("m")
        res = EllipticExpr.zero()
        for mono, poly in self.terms.items():
            i, e1, e2 = mono
            pieces: dict[EllipticMonomial, ParamPoly] = {}
            if i:
                for mm, pp in _reduce_raw(i - 1, e1 + 1, e2 + 1, poly * i).items():
                    pieces[mm] = pieces.get(mm, ParamPoly.zero()) + pp
            if e1:
                for mm, pp in _reduce_raw(i + 1, e1 - 1, e2 + 1, -poly * e1).items():
                    pieces[mm] = pieces.get(mm, ParamPoly.zero()) + pp
            if e2:
                for mm, pp in _reduce_raw(i + 1, e1 + 1, e2 - 1, -(poly * e2) * m_sym).items():
                    pieces[mm] = pieces.get(mm, ParamPoly.zero()) + pp
            res = res + EllipticExpr(pieces)
        return res

    def coefficients(self) -> list[tuple[EllipticMonomial, ParamPoly]]:
        """All (monomial, coefficient) pairs, graded by (sn, cn, dn) exponents."""
        return [(m, self.terms[m]) for m in sorted(self.terms)]

    def substitute(self, mapping: dict[str, "ParamPoly | Fraction | int"]) -> "EllipticExpr":
        """Exact substitution applied to every coefficient polynomial."""
        return EllipticExpr({m: p.substitute(mapping) for m, p in self.terms.items()})

    def text(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for mono, poly in self.coefficients():
            lines.append("(%s)*%s" % (poly.text(), mono.text()))
        return " + ".join(lines)

    __str__ = text

    def __repr__(self):
        return "EllipticExpr(%s)" % self.text()
