"""Tests for the Jacobi elliptic function module.

Derived expected values are frozen from independent oracles implemented here:
the defining quadrature for K(m) and a high-order adaptive integration of the
first-order system (sn, cn, dn)' = (cn*dn, -sn*dn, -m*sn*cn).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvmkdv.elliptic import DomainError, complete_K, jacobi

# frozen oracle outputs (see oracle_K / oracle_triple below)
K_HALF = 1.8540746773013719
TRIPLE_1_HALF = (0.8030018248956439, 0.5959765676721407, 0.8231610016315963)


def oracle_K(m: float) -> float:
    """K(m) by adaptive quadrature of its defining integral."""
    quad = pytest.importorskip("scipy.integrate").quad
    val, _ = quad(
        lambda th: 1.0 / math.sqrt(1.0 - m * math.sin(th) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def oracle_triple(xi: float, m: float) -> tuple[float, float, float]:
    """(sn, cn, dn) by integrating the defining first-order system."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(
        lambda t, y: [y[1] * y[2], -y[0] * y[2], -m * y[0] * y[1]],
        (0.0, xi),
        [0.0, 1.0, 1.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
    )
    return tuple(sol.y[:, -1])


def oracle_sn_scalar(xi: float, m: float) -> float:
    """sn by the scalar defining equation y' = sqrt(1-y^2)*sqrt(1-m*y^2)."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(
        lambda t, y: [math.sqrt(max(0.0, 1 - y[0] ** 2)) * math.sqrt(max(0.0, 1 - m * y[0] ** 2))],
        (0.0, xi),
        [0.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
    )
    return float(sol.y[0, -1])


class TestCompleteK:
    def test_circular_quarter_period(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_rejects_divergent_and_out_of_range(self):
        for bad in (1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                complete_K(bad)

    def test_grows_without_bound_toward_one(self):
        # K ~ ln(16/(1-m))/2 near m=1
        assert complete_K(1 - 1e-6) > complete_K(1 - 1e-3) > complete_K(0.9)
        assert complete_K(1 - 1e-10) > 12.0

    def test_half_parameter_against_oracle(self):
        assert oracle_K(0.5) == pytest.approx(K_HALF, rel=1e-13)
        assert complete_K(0.5) == pytest.approx(K_HALF, rel=1e-13)

    @pytest.mark.parametrize("m", [0.1, 0.25, 0.75, 0.9, 0.99])
    def test_matches_quadrature(self, m):
        assert complete_K(m) == pytest.approx(oracle_K(m), rel=1e-13)


class TestJacobi:
    def test_initial_condition(self):
        for m in (0.0, 0.3, 0.7, 1.0):
            assert jacobi(0.0, m) == (0.0, 1.0, 1.0)

    def test_circular_degeneration(self):
        for x in (-2.3, 0.4, 1.9):
            sn, cn, dn = jacobi(x, 0.0)
            assert sn == pytest.approx(math.sin(x), abs=1e-14)
            assert cn == pytest.approx(math.cos(x), abs=1e-14)
            assert dn == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_quarter_period_values(self, m):
        K = complete_K(m)
        sn, cn, dn = jacobi(K, m)
        assert sn == pytest.approx(1.0, abs=1e-13)
        assert cn == pytest.approx(0.0, abs=1e-13)
        assert dn == pytest.approx(math.sqrt(1.0 - m), abs=1e-13)

    def test_derived_point_against_oracles(self):
        got = jacobi(1.0, 0.5)
        ode = oracle_triple(1.0, 0.5)
        for g, o, frozen in zip(got, ode, TRIPLE_1_HALF):
            assert o == pytest.approx(frozen, abs=1e-12)
            assert g == pytest.approx(frozen, abs=1e-12)
        assert oracle_sn_scalar(1.0, 0.5) == pytest.approx(got.sn, abs=1e-12)

    @pytest.mark.parametrize("xi,m", [(2.7, 0.3), (-4.1, 0.8), (7.9, 0.95)])
    def test_general_points_against_ode_oracle(self, xi, m):
        got = jacobi(xi, m)
        want = oracle_triple(xi, m)
        assert np.allclose(got, want, atol=1e-11)

    @pytest.mark.parametrize("m,bound", [(0.5, 1e-14), (1 - 1e-10, 1e-13), (1 - 1e-14, 1e-10)])
    def test_against_mpmath_near_the_hyperbolic_limit(self, m, bound):
        # the AGM amplitude loses accuracy as m -> 1: the largest absolute
        # error over these points is 6e-15, 5e-14 and 5.6e-11 (DLMF 22.20)
        mpmath = pytest.importorskip("mpmath")
        xs = [0.3, 5.0, 20.0, 60.0, -37.0]
        got = jacobi(np.array(xs), m)
        with mpmath.workdps(30):
            want = [[float(mpmath.ellipfun(kind, mpmath.mpf(x), m=mpmath.mpf(m))) for x in xs]
                    for kind in ("sn", "cn", "dn")]
        assert np.max(np.abs(np.array(got) - np.array(want))) < bound

    def test_hyperbolic_branch_exact(self):
        for x in (-3.0, 0.7, 11.0):
            sn, cn, dn = jacobi(x, 1.0)
            assert sn == np.tanh(x)
            assert cn == 1.0 / np.cosh(x)
            assert dn == cn

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi(float("inf"), 0.5)
        with pytest.raises(DomainError):
            jacobi(float("nan"), 0.5)
        with pytest.raises(DomainError):
            jacobi(1.0, -0.2)
        with pytest.raises(DomainError):
            jacobi(1.0, 1.2)

    def test_vectorized(self):
        xs = np.linspace(-8, 8, 33)
        sn, cn, dn = jacobi(xs, 0.6)
        assert sn.shape == xs.shape
        single = np.array([jacobi(float(x), 0.6).sn for x in xs])
        assert np.allclose(sn, single, atol=0)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        xi=st.floats(min_value=-10.0, max_value=10.0),
        m=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_pythagorean_identities(self, xi, m):
        sn, cn, dn = jacobi(xi, m)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) < 1e-12
        assert abs(sn) <= 1.0 + 1e-12 and abs(cn) <= 1.0 + 1e-12
        assert math.sqrt(1.0 - m) - 1e-12 <= dn <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        xi=st.floats(min_value=-10.0, max_value=10.0),
        m=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_periodicity(self, xi, m):
        K = complete_K(m)
        a = np.array(jacobi(xi, m))
        b = np.array(jacobi(xi + 4.0 * K, m))
        assert np.max(np.abs(a - b)) < 1e-11

    @settings(max_examples=100, deadline=None)
    @given(
        xi=st.floats(min_value=-10.0, max_value=10.0),
        m=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_derivative_rules(self, xi, m):
        h = 1e-5
        sp = np.array(jacobi(xi + h, m))
        sm = np.array(jacobi(xi - h, m))
        sn, cn, dn = jacobi(xi, m)
        d = (sp - sm) / (2.0 * h)
        assert abs(d[0] - cn * dn) < 1e-8
        assert abs(d[1] + sn * dn) < 1e-8
        assert abs(d[2] + m * sn * cn) < 1e-8

    def test_monotone_degeneration_to_tanh(self):
        xs = np.linspace(-5.0, 5.0, 201)
        sups = []
        for m in (0.99, 0.9999, 0.999999):
            sn, _, _ = jacobi(xs, m)
            sups.append(np.max(np.abs(sn - np.tanh(xs))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[-1] < 1e-5
