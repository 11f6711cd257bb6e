"""Tests for the exact polynomial algebra of the sn/cn/dn derivation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdvmkdv import elliptic
from kdvmkdv.symexpr import (
    BASIS_SYMBOLS,
    CORE_SYMBOLS,
    FORMAL_SYMBOLS,
    EllipticMonomial,
    ParamPoly,
    UnboundSymbolError,
    _mono,
    _mono_key,
    _RANK,
    _partial,
    basis_coefficients,
    canonical,
    differentiate,
)

from symexpr_oracles import basis_condition_number, eval_numeric, reduce

P = ParamPoly


def sym(name: str) -> ParamPoly:
    return P.symbol(name)


def basis(sn_pow: int, cn_pow: int, dn_pow: int) -> ParamPoly:
    return P.monomial(1, sn=sn_pow, cn=cn_pow, dn=dn_pow)


SN, CN, DN = (sym(s) for s in BASIS_SYMBOLS)


# -- strategies ---------------------------------------------------------------

_small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def param_polys(draw):
    poly = P.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coef = draw(_small_fraction)
        term = P.const(coef)
        for name in draw(st.lists(st.sampled_from(["a", "b", "m", "A", "v"]), max_size=2)):
            term = term * sym(name) ** draw(st.integers(min_value=1, max_value=2))
        poly = poly + term
    return poly


@st.composite
def int_polys(draw):
    """Polynomials built directly from int coefficients, not by ring operations."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        names = draw(st.lists(st.sampled_from(["a", "b", "m", "A", "v"]), max_size=3, unique=True))
        mono = _mono(*((s, draw(st.integers(min_value=1, max_value=3))) for s in names))
        terms[mono] = draw(st.integers(min_value=-12, max_value=12))
    return P(terms)


def as_fractions(p: ParamPoly) -> ParamPoly:
    return P({mono: Fraction(c) for mono, c in p.terms.items()})


@st.composite
def elliptic_exprs(draw):
    """Canonical polynomials: cn and dn exponents 0 or 1."""
    expr = P.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mono = basis(
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=1)),
        )
        expr = expr + mono * draw(param_polys())
    return expr


# -- canonical form ------------------------------------------------------------


class TestReduce:
    def test_cn_squared(self):
        assert reduce([(0, 2, 0, 1)]) == reduce([(0, 0, 0, 1), (2, 0, 0, -1)])

    def test_dn_squared(self):
        assert reduce([(0, 0, 2, 1)]) == P.const(1) - sym("m") * SN**2

    def test_cn2_dn2_product(self):
        # 1 - (1+m)*sn^2 + m*sn^4, cross-checked numerically at random points
        got = reduce([(0, 2, 2, 1)])
        assert got == P.const(1) - (P.const(1) + sym("m")) * SN**2 + sym("m") * SN**4
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi, m = rng.uniform(-5, 5), rng.uniform(0, 0.95)
            _, cn, dn = elliptic.jacobi(xi, m)
            assert eval_numeric(got, {}, xi, m) == pytest.approx(cn**2 * dn**2, abs=1e-12)

    def test_canonical_terms_are_kept(self):
        p = sym("A") * SN**3 * CN * DN + sym("v") * DN
        assert canonical(p) == p

    def test_symbols_outside_the_basis_ride_along(self):
        assert canonical(sym("A") * CN**3) == sym("A") * CN - sym("A") * SN**2 * CN

    def test_raw_vs_reduced_numeric_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            raw = [
                (int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                 Fraction(int(rng.integers(-5, 6))))
                for _ in range(3)
            ]
            xi, m = rng.uniform(-5, 5), rng.uniform(0, 0.95)
            sn, cn, dn = elliptic.jacobi(xi, m)
            direct = sum(float(c) * sn**i * cn**e1 * dn**e2 for i, e1, e2, c in raw)
            assert eval_numeric(reduce(raw), {}, xi, m) == pytest.approx(direct, abs=1e-10)


# -- differentiate ---------------------------------------------------------------


class TestDifferentiate:
    def test_sn_prime_is_cn_dn(self):
        assert differentiate(SN) == CN * DN

    def test_cn_and_dn_primes(self):
        assert differentiate(CN) == -SN * DN
        assert differentiate(DN) == -sym("m") * SN * CN

    def test_constant_coefficient_derivative_vanishes(self):
        assert differentiate(sym("D")).is_zero

    def test_sn_squared_chain_rule(self):
        got = differentiate(SN * SN)
        assert got == 2 * SN * CN * DN
        # finite-difference cross-check through the elliptic module
        h = 1e-5
        for xi, m in ((0.8, 0.4), (-2.2, 0.9)):
            fd = (elliptic.jacobi(xi + h, m).sn ** 2 - elliptic.jacobi(xi - h, m).sn ** 2) / (2 * h)
            assert eval_numeric(got, {}, xi, m) == pytest.approx(fd, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(x=elliptic_exprs(), y=elliptic_exprs())
    def test_product_rule_structural(self, x, y):
        assert differentiate(canonical(x * y)) == canonical(differentiate(x) * y + x * differentiate(y))

    @settings(max_examples=40, deadline=None)
    @given(e=elliptic_exprs())
    def test_matches_central_differences(self, e):
        h = 1e-5
        xi, m = 0.9, 0.6
        bindings = {"a": 1.1, "b": -0.7, "m": m, "A": 0.4, "v": 2.0}
        fd = (eval_numeric(e, bindings, xi + h, m) - eval_numeric(e, bindings, xi - h, m)) / (2 * h)
        assert eval_numeric(differentiate(e), bindings, xi, m) == pytest.approx(fd, abs=1e-7)


# -- coefficients -----------------------------------------------------------------


class TestCoefficients:
    def test_zero_expression(self):
        assert basis_coefficients(P.zero()) == []

    def test_first_order_ansatz(self):
        got = basis_coefficients(sym("D") + sym("A") * CN + sym("B") * DN)
        assert [(m.text(), p.text()) for m, p in got] == [
            ("1", "D"),
            ("dn", "B"),
            ("cn", "A"),
        ]

    @settings(max_examples=50, deadline=None)
    @given(e=elliptic_exprs())
    def test_bijection(self, e):
        rebuilt = P.zero()
        for mono, coef in basis_coefficients(e):
            rebuilt = rebuilt + basis(*mono) * coef
        assert rebuilt == e

    def test_deterministic_graded_order(self):
        expr = P.zero()
        for t in [(3, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1)]:
            expr = expr + basis(*t)
        order = [m for m, _ in basis_coefficients(expr)]
        assert order == sorted(order)
        assert all(type(m) is EllipticMonomial for m in order)


# -- eval ----------------------------------------------------------------------


class TestEvalNumeric:
    def test_sn_at_origin(self):
        assert eval_numeric(SN, {}, 0.0, 0.5) == 0.0

    def test_identity_sum(self):
        e = reduce([(0, 2, 0, 1), (2, 0, 0, 1)])  # cn^2 + sn^2
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert eval_numeric(e, {"a": 2.0}, rng.uniform(-8, 8), rng.uniform(0, 0.99)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unbound_symbol_is_named(self):
        e = sym("v") * sym("b")
        with pytest.raises(UnboundSymbolError, match="'v'|'b'"):
            eval_numeric(e, {"v": 1.0}, 0.3, 0.5)

    def test_m_binding_must_match(self):
        e = sym("m")
        with pytest.raises(ValueError, match="disagrees"):
            eval_numeric(e, {"m": 0.25}, 0.3, 0.5)


# -- ring axioms -----------------------------------------------------------------


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(x=elliptic_exprs(), y=elliptic_exprs(), z=elliptic_exprs())
    def test_structural_axioms(self, x, y, z):
        assert canonical(canonical(x * y) * z) == canonical(x * canonical(y * z))
        assert canonical(x * (y + z)) == canonical(x * y) + canonical(x * z)
        assert canonical(x * y) == canonical(y * x)
        assert x + y == y + x

    @settings(max_examples=40, deadline=None)
    @given(p=param_polys(), q=param_polys())
    def test_param_poly_ring(self, p, q):
        assert p * q == q * p
        assert p + q == q + p
        assert (p - q) + q == p


# -- normalization and printing ---------------------------------------------------


class TestNormalization:
    def test_content_and_sign(self):
        p = P.const(-2) * sym("A") * sym("B") * (sym("a") + 2 * sym("b") * sym("D"))
        norm = p.normalized(("A", "B", "m"))
        assert norm == sym("a") + 2 * sym("b") * sym("D")

    def test_symbols_outside_the_set_are_kept(self):
        p = P.const(4) * sym("b") * sym("D") * sym("A") * sym("m")
        assert p.normalized(("A", "B", "m")) == sym("b") * sym("D")

    def test_zero_passthrough(self):
        assert P.zero().normalized(("A",)).is_zero

    def test_printer_deterministic(self):
        p = sym("a") + 2 * sym("b") * sym("D") + sym("a") * sym("m") + 2 * sym("b") * sym("D") * sym("m")
        assert p.text() == "a + 2*b*D + a*m + 2*b*m*D"
        assert (-p).text() == "-a - 2*b*D - a*m - 2*b*m*D"
        assert P.zero().text() == "0"
        assert P.const(Fraction(3, 2)).text() == "3/2"

    def test_substitute_exact(self):
        p = sym("a") ** 2 + sym("b") * sym("v")
        q = p.substitute({"a": Fraction(2), "v": sym("a") + 1})
        assert q == P.const(4) + sym("b") * sym("a") + sym("b")

    @given(p=param_polys(), by_a=param_polys(), m_value=_small_fraction, v_value=_small_fraction)
    def test_substitute_matches_ring_operations(self, p, by_a, m_value, v_value):
        """Reference: each term rebuilt as coefficient times the product of
        the substituted powers, summed by ring addition."""
        mapping = {"a": by_a, "m": m_value, "v": v_value}
        want = P.zero()
        for mono, coef in p.terms.items():
            term = P.const(coef)
            for s, e in mono:
                term = term * (P._coerce(mapping[s]) if s in mapping else sym(s)) ** e
            want = want + term
        assert p.substitute(mapping) == want

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(int_polys(), param_polys()),
           numbers=st.dictionaries(st.sampled_from(["a", "b", "m", "A", "v"]),
                                   st.one_of(st.integers(min_value=-3, max_value=3), _small_fraction)))
    @example(p=P.const(1) + sym("a"), numbers={"a": Fraction(0)})
    def test_numbers_substitute_as_constant_polynomials(self, p, numbers):
        """A mapping of numbers only gives the terms, and the coefficient
        types, of the same numbers put in as constant polynomials: a zero
        number leaves no term, so 1 + a at a = Fraction(0) stays the int 1."""
        got = p.substitute(numbers)
        want = p.substitute({s: P.const(v) for s, v in numbers.items()})
        assert got.terms == want.terms
        assert {mono: type(c) for mono, c in got.terms.items()} == {mono: type(c) for mono, c in want.terms.items()}

    @settings(max_examples=80, deadline=None)
    @given(p=int_polys(), q=int_polys(), n=st.integers(min_value=0, max_value=3),
           by_a=int_polys(), v_value=st.integers(min_value=-3, max_value=3))
    def test_int_coefficients_agree_with_fractions(self, p, q, n, by_a, v_value):
        """int and Fraction coefficients give equal results, hashes and text, and
        integer arithmetic stays in int."""
        fp, fq = as_fractions(p), as_fractions(q)
        mapping = {"a": by_a, "v": v_value}
        f_mapping = {"a": as_fractions(by_a), "v": Fraction(v_value)}
        for got, want in [
            (p + q, fp + fq),
            (p * q, fp * fq),
            (p**n, fp**n),
            (p.substitute(mapping), fp.substitute(f_mapping)),
            (p.normalized(("A", "m")), fp.normalized(("A", "m"))),
        ]:
            assert got == want and hash(got) == hash(want)
            assert got.text() == want.text()
            assert all(type(c) is int for c in got.terms.values())

    def test_normalized_coefficients_are_ints(self):
        p = P.const(Fraction(3, 4)) * sym("a") - P.const(Fraction(1, 6)) * sym("b")
        norm = p.normalized()
        assert norm == 9 * sym("a") - 2 * sym("b")
        assert [type(c) for c in norm.terms.values()] == [int, int]

    def test_derivative(self):
        p = sym("v") ** 3 * sym("b") + sym("a")
        assert _partial(p, "v") == 3 * sym("v") ** 2 * sym("b")
        assert _partial(p, "b") == sym("v") ** 3
        assert _partial(p, "d").is_zero


class TestBasisIndependence:
    def test_residual_basis_gram_condition(self):
        monos = [EllipticMonomial(*t) for t in
                 [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (3, 0, 0), (3, 0, 1), (3, 1, 0)]]
        for m in (0.3, 0.5, 0.9):
            cond = basis_condition_number(monos, m)
            assert np.isfinite(cond) and cond < 1e12

    def test_ansatz_basis_well_conditioned(self):
        monos = [EllipticMonomial(*t) for t in [(0, 0, 0), (0, 1, 0), (0, 0, 1)]]
        assert basis_condition_number(monos, 0.5) < 1e6


# -- symbol order ----------------------------------------------------------------

ORDERED_SYMBOLS = CORE_SYMBOLS + FORMAL_SYMBOLS + BASIS_SYMBOLS + ("A1", "B1", "A2", "B2", "A3", "B3", "A11", "B11", "A12", "A0")


class TestSymbolOrder:
    def test_fixed_order(self):
        ranks = [_RANK[s] for s in ORDERED_SYMBOLS]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
        assert _RANK["B11"] < _RANK["A12"] < _RANK["A0"]

    @pytest.mark.parametrize("name", ["x", "B0", "A01", "C1", "sqrt"])
    def test_unknown_symbol_raises_key_error(self, name):
        with pytest.raises(KeyError, match="unknown symbol"):
            P.symbol(name)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(ORDERED_SYMBOLS), st.integers(1, 3)), max_size=4),
        st.lists(st.tuples(st.sampled_from(ORDERED_SYMBOLS), st.integers(1, 3)), max_size=4),
    )
    def test_key_orders_as_the_dense_exponent_vector(self, pairs1, pairs2):
        # graded lexicographic order: degree first, then the exponent vector
        # over all symbols in rank order
        def dense(mono):
            powers = dict(mono)
            return sum(powers.values()), [powers.get(s, 0) for s in ORDERED_SYMBOLS]

        m1, m2 = _mono(*dict(pairs1).items()), _mono(*dict(pairs2).items())
        assert (_mono_key(m1) < _mono_key(m2)) == (dense(m1) < dense(m2))
        assert (_mono_key(m1) == _mono_key(m2)) == (m1 == m2)
