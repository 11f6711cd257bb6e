"""Tests for the exact sn/cn/dn expression algebra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvmkdv import elliptic
from kdvmkdv.symexpr import (
    CORE_SYMBOLS,
    FORMAL_SYMBOLS,
    EllipticExpr,
    EllipticMonomial,
    ParamPoly,
    UnboundSymbolError,
    _mono,
    _mono_key,
    _RANK,
    basis_condition_number,
    reduce,
)

P = ParamPoly


def sym(name: str) -> ParamPoly:
    return P.symbol(name)


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
def elliptic_exprs(draw):
    expr = EllipticExpr.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mono = EllipticMonomial(
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=1)),
        )
        expr = expr + EllipticExpr({mono: draw(param_polys())})
    return expr


# -- reduce --------------------------------------------------------------------


class TestReduce:
    def test_cn_squared(self):
        assert reduce([(0, 2, 0, 1)]) == reduce([(0, 0, 0, 1), (2, 0, 0, -1)])

    def test_dn_squared(self):
        expected = EllipticExpr(
            {EllipticMonomial(0, 0, 0): P.const(1), EllipticMonomial(2, 0, 0): -sym("m")}
        )
        assert reduce([(0, 0, 2, 1)]) == expected

    def test_cn2_dn2_product(self):
        # 1 - (1+m)*sn^2 + m*sn^4, cross-checked numerically at random points
        got = reduce([(0, 2, 2, 1)])
        expected = EllipticExpr(
            {
                EllipticMonomial(0, 0, 0): P.const(1),
                EllipticMonomial(2, 0, 0): -(P.const(1) + sym("m")),
                EllipticMonomial(4, 0, 0): sym("m"),
            }
        )
        assert got == expected
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi, m = rng.uniform(-5, 5), rng.uniform(0, 0.95)
            _, cn, dn = elliptic.jacobi(xi, m)
            assert got.eval_numeric({}, xi, m) == pytest.approx(cn**2 * dn**2, abs=1e-12)

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
            assert reduce(raw).eval_numeric({}, xi, m) == pytest.approx(direct, abs=1e-10)


# -- differentiate ---------------------------------------------------------------


class TestDifferentiate:
    def test_sn_prime_is_cn_dn(self):
        assert EllipticExpr.sn().differentiate() == EllipticExpr(
            {EllipticMonomial(0, 1, 1): P.const(1)}
        )

    def test_constant_coefficient_derivative_vanishes(self):
        assert EllipticExpr.scalar(sym("D")).differentiate().is_zero

    def test_sn_squared_chain_rule(self):
        got = (EllipticExpr.sn() * EllipticExpr.sn()).differentiate()
        assert got == EllipticExpr({EllipticMonomial(1, 1, 1): P.const(2)})
        # finite-difference cross-check through the elliptic module
        h = 1e-5
        for xi, m in ((0.8, 0.4), (-2.2, 0.9)):
            fd = (elliptic.jacobi(xi + h, m).sn ** 2 - elliptic.jacobi(xi - h, m).sn ** 2) / (2 * h)
            assert got.eval_numeric({}, xi, m) == pytest.approx(fd, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(x=elliptic_exprs(), y=elliptic_exprs())
    def test_product_rule_structural(self, x, y):
        assert (x * y).differentiate() == x.differentiate() * y + x * y.differentiate()

    @settings(max_examples=40, deadline=None)
    @given(e=elliptic_exprs())
    def test_matches_central_differences(self, e):
        h = 1e-5
        xi, m = 0.9, 0.6
        bindings = {"a": 1.1, "b": -0.7, "m": m, "A": 0.4, "v": 2.0}
        fd = (e.eval_numeric(bindings, xi + h, m) - e.eval_numeric(bindings, xi - h, m)) / (2 * h)
        assert e.differentiate().eval_numeric(bindings, xi, m) == pytest.approx(fd, abs=1e-7)


# -- coefficients -----------------------------------------------------------------


class TestCoefficients:
    def test_zero_expression(self):
        assert EllipticExpr.zero().coefficients() == []

    def test_first_order_ansatz(self):
        expr = EllipticExpr(
            {
                EllipticMonomial(0, 0, 0): sym("D"),
                EllipticMonomial(0, 1, 0): sym("A"),
                EllipticMonomial(0, 0, 1): sym("B"),
            }
        )
        got = expr.coefficients()
        assert [(m.text(), p.text()) for m, p in got] == [
            ("1", "D"),
            ("dn", "B"),
            ("cn", "A"),
        ]

    @settings(max_examples=50, deadline=None)
    @given(e=elliptic_exprs())
    def test_bijection(self, e):
        assert EllipticExpr(dict(e.coefficients())) == e

    def test_deterministic_graded_order(self):
        expr = EllipticExpr(
            {EllipticMonomial(*t): P.const(1) for t in [(3, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1)]}
        )
        order = [m for m, _ in expr.coefficients()]
        assert order == sorted(order)


# -- eval ----------------------------------------------------------------------


class TestEvalNumeric:
    def test_sn_at_origin(self):
        assert EllipticExpr.sn().eval_numeric({}, 0.0, 0.5) == 0.0

    def test_identity_sum(self):
        e = reduce([(0, 2, 0, 1), (2, 0, 0, 1)])  # cn^2 + sn^2
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert e.eval_numeric({"a": 2.0}, rng.uniform(-8, 8), rng.uniform(0, 0.99)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unbound_symbol_is_named(self):
        e = EllipticExpr.scalar(sym("v") * sym("b"))
        with pytest.raises(UnboundSymbolError, match="'v'|'b'"):
            e.eval_numeric({"v": 1.0}, 0.3, 0.5)

    def test_m_binding_must_match(self):
        e = EllipticExpr.scalar(sym("m"))
        with pytest.raises(ValueError, match="disagrees"):
            e.eval_numeric({"m": 0.25}, 0.3, 0.5)


# -- ring axioms -----------------------------------------------------------------


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(x=elliptic_exprs(), y=elliptic_exprs(), z=elliptic_exprs())
    def test_structural_axioms(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
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

    def test_derivative(self):
        p = sym("v") ** 3 * sym("b") + sym("a")
        assert p.derivative("v") == 3 * sym("v") ** 2 * sym("b")
        assert p.derivative("d").is_zero


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

ORDERED_SYMBOLS = CORE_SYMBOLS + FORMAL_SYMBOLS + ("A1", "B1", "A2", "B2", "A3", "B3", "A11", "B11", "A12", "A0")


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
