"""Tests for explicit profiles, the hyperbolic limit, and the velocity laws.

Analytic quadrature oracles: with h = 1/f the constraint d(t*v)/dt = C*h(t)
integrates to v(t) = (t_ref*v0 + C*Int_{t_ref}^t h)/t, which has closed forms
for f = 1 (Int = t - t_ref) and f = e^t (Int = e^{-t_ref} - e^{-t}).
"""

import math
import time
import warnings
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from kdvmkdv import elliptic, sim, waves
from kdvmkdv.ansatz import PdeParams
from kdvmkdv.solver import solve_closed_form
from kdvmkdv.waves import (
    Coefficient,
    CoefficientSingularity,
    ExponentialCoefficient,
    PolynomialCoefficient,
    TabulatedCoefficient,
    UnitCoefficient,
    VelocityLaw,
    constraint_residual,
    evaluate,
    hyperbolic_limit,
    parse_coefficient,
    velocity_at,
    velocity_paper_form,
)


@pytest.fixture(scope="module")
def sech_family():
    return solve_closed_form(PdeParams(0, 1, 1, 1))[0]


@pytest.fixture(scope="module")
def cnoidal_family():
    return solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]


class TestEvaluate:
    def test_sech_peak(self, sech_family):
        assert evaluate(sech_family, 0.0, 0.0) == pytest.approx(math.sqrt(6.0), rel=1e-15)

    def test_crest_value_is_exact_sum(self):
        for p in (PdeParams(1, 1, 1, 0.3), PdeParams(-2, 1, 2, 0.9)):
            for fam in solve_closed_form(p):
                # at xi=0, cn=dn=1 exactly
                assert evaluate(fam, fam.v * 2.5, 2.5) == fam.A + fam.B + fam.D

    def test_translation_property(self, cnoidal_family):
        fam = cnoidal_family
        xs = np.linspace(-3, 3, 7)
        delta = 0.8
        a = evaluate(fam, xs + fam.v * delta, 1.0 + delta)
        bb = evaluate(fam, xs, 1.0)
        assert np.allclose(a, bb, atol=1e-13)

    def test_bounded_and_periodic(self, cnoidal_family):
        fam = cnoidal_family
        K = elliptic.complete_K(0.5)
        xs = np.linspace(-2 * K, 2 * K, 801)
        u = evaluate(fam, xs, 0.0)
        assert np.max(np.abs(u)) <= abs(fam.A) + abs(fam.B) + abs(fam.D) + 1e-12
        assert np.allclose(evaluate(fam, xs + 4 * K, 0.0), u, atol=1e-11)


class TestHyperbolicLimit:
    def test_sech_descriptor(self, sech_family):
        prof = hyperbolic_limit(sech_family)
        assert prof.amplitude == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert prof.speed == 1.0
        xs = np.linspace(-10, 10, 401)
        for t in (0.0, 0.5, 2.0):
            assert np.max(np.abs(prof(xs, t) - evaluate(sech_family, xs, t))) < 1e-12

    def test_stationary_wave_with_offset(self):
        # a=2, b=d=1, m=1: v = (2*1*1*2 - 4)/4 = 0, so sqrt(6)*sech(x) - 1
        fam = solve_closed_form(PdeParams(2, 1, 1, 1))[0]
        prof = hyperbolic_limit(fam)
        assert prof.speed == 0.0
        assert prof.offset == -1.0
        assert prof.amplitude == pytest.approx(math.sqrt(6.0), rel=1e-15)

    def test_opposite_signs_collapse_to_offset(self):
        fam = solve_closed_form(PdeParams(2, 1, 1, 1))[1]  # signs (+, -)
        prof = hyperbolic_limit(fam)
        assert prof.amplitude == pytest.approx(0.0, abs=1e-15)
        xs = np.linspace(-5, 5, 101)
        assert np.max(np.abs(evaluate(fam, xs, 0.4) - fam.D)) < 1e-15

    def test_far_tail_is_zero_without_an_overflow_warning(self, sech_family):
        # cosh overflows past |xi| ~ 710; sech is 0 there, and says nothing
        xs = np.array([800.0, -900.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert elliptic.jacobi(800.0, 1.0) == (1.0, 0.0, 0.0)
            assert elliptic.jacobi(-900.0, 1.0) == (-1.0, 0.0, 0.0)
            assert np.array_equal(evaluate(sech_family, xs, 0.0), [0.0, 0.0])
            assert np.array_equal(hyperbolic_limit(sech_family)(xs), [0.0, 0.0])

    def test_requires_m_equal_one(self, cnoidal_family):
        with pytest.raises(ValueError, match="m=1"):
            hyperbolic_limit(cnoidal_family)


class TestVelocityAt:
    C = 0.75

    def test_constant_consistency(self):
        law = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=self.C, t_ref=1.0)
        ts = np.linspace(1.0, 9.0, 33)
        assert np.max(np.abs(velocity_at(law, ts) - self.C)) == 0.0

    def test_unit_f_general_anchor(self):
        v0, t_ref = 0.2, 1.5
        law = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=v0, t_ref=t_ref)
        ts = np.linspace(t_ref, t_ref + 6.0, 25)
        exact = self.C + t_ref * (v0 - self.C) / ts
        assert np.max(np.abs(velocity_at(law, ts) - exact)) < 1e-14

    def test_exponential_f_quadrature_oracle(self):
        v0, t_ref = 0.3, 1.0
        law = VelocityLaw.time_dependent(self.C, ExponentialCoefficient(1.0), v0=v0, t_ref=t_ref)
        ts = np.linspace(t_ref, t_ref + 5.0, 25)
        exact = (t_ref * v0 + self.C * (np.exp(-t_ref) - np.exp(-ts))) / ts
        assert np.max(np.abs(velocity_at(law, ts) - exact)) < 1e-12

    def test_constraint_residual_bound(self):
        law = VelocityLaw.time_dependent(self.C, ExponentialCoefficient(1.0), v0=0.3, t_ref=1.0)
        res = constraint_residual(law, np.linspace(1.0, 5.0, 50))
        assert np.max(np.abs(res)) < 1e-8

    def test_domain_guards(self):
        law = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=0.1, t_ref=1.0)
        with pytest.raises(ValueError, match="t_ref"):
            velocity_at(law, 0.5)
        with pytest.raises(ValueError, match="positive"):
            VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=0.1, t_ref=0.0)

    def test_vanishing_coefficient_is_rejected(self):
        bad = PolynomialCoefficient((1.0, -0.5))  # root at t=2
        law = VelocityLaw.time_dependent(self.C, bad, v0=0.1, t_ref=1.0)
        with pytest.raises(CoefficientSingularity):
            velocity_at(law, 3.0)


class TestVelocityPaperForm:
    C = 0.6

    def test_unit_f_zero_anchor_reproduces_constant(self):
        law = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=0.0, t_ref=1.0)
        ts = np.linspace(1.0, 7.0, 25)
        vs = np.array([velocity_paper_form(law, float(t)) for t in ts])
        assert np.max(np.abs(vs - self.C)) < 1e-14
        res = constraint_residual(law, ts, form="paper")
        assert np.max(np.abs(res)) < 1e-9

    def test_nonzero_anchor_violates_constraint_as_derived(self):
        # differentiating C*e^{-t}*(e^t + v0) gives residual (1-t)*C*v0*e^{-t}
        v0 = 0.4
        law = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=v0, t_ref=1.0)
        ts = np.linspace(1.0, 6.0, 21)
        res = constraint_residual(law, ts, form="paper")
        predicted = self.C * v0 * np.exp(-ts) * (1.0 - ts)
        assert np.max(np.abs(res - predicted)) < 1e-9
        assert np.max(np.abs(res)) > 1e-3  # genuinely nonzero away from t=1

    def test_forms_agree_only_when_both_satisfy_constraint(self):
        ts = np.linspace(1.0, 6.0, 21)
        # matched anchoring: v(t_ref) = C in the quadrature law and a zero
        # additive constant in the published form both give v = C identically;
        # the residuals of both forms vanish and the functions agree
        law_c = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=self.C, t_ref=1.0)
        law_p = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=0.0, t_ref=1.0)
        va = velocity_at(law_c, ts)
        vp = np.array([velocity_paper_form(law_p, float(t)) for t in ts])
        assert np.max(np.abs(constraint_residual(law_c, ts, form="constraint"))) < 1e-9
        assert np.max(np.abs(constraint_residual(law_p, ts, form="paper"))) < 1e-9
        assert np.max(np.abs(va - vp)) < 1e-12
        # with a nonzero additive constant the published form violates the
        # constraint, and it must then differ from every quadrature solution
        law_bad = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=0.4, t_ref=1.0)
        vb = np.array([velocity_paper_form(law_bad, float(t)) for t in ts])
        assert np.max(np.abs(constraint_residual(law_bad, ts, form="paper"))) > 1e-3
        anchored = VelocityLaw.time_dependent(self.C, UnitCoefficient(), v0=float(vb[0]), t_ref=1.0)
        assert np.max(np.abs(velocity_at(anchored, ts) - vb)) > 1e-3


class TestCoefficientDescriptors:
    def test_parse_round_trip(self):
        assert parse_coefficient("unit") == UnitCoefficient()
        assert parse_coefficient("exp:1.5") == ExponentialCoefficient(1.5)
        assert parse_coefficient("poly:1,0.5") == PolynomialCoefficient((1.0, 0.5))
        tab = parse_coefficient("tab:1:2,3:4")
        assert tab == TabulatedCoefficient((1.0, 3.0), (2.0, 4.0))
        with pytest.raises(ValueError):
            parse_coefficient("fourier:3")

    def test_polynomial_constraint(self):
        law = VelocityLaw.time_dependent(0.75, PolynomialCoefficient((1.0, 0.5)), v0=0.1, t_ref=1.0)
        res = constraint_residual(law, np.linspace(1.0, 4.0, 20))
        assert np.max(np.abs(res)) < 1e-8

    def test_tabulated_constraint(self):
        ts = tuple(np.linspace(0.5, 8.0, 40))
        tab = TabulatedCoefficient(ts, tuple(np.exp(0.3 * np.asarray(ts))))
        law = VelocityLaw.time_dependent(0.75, tab, v0=0.1, t_ref=1.0)
        res = constraint_residual(law, np.linspace(1.0, 4.0, 10))
        assert np.max(np.abs(res)) < 1e-6

    def test_tabulated_refuses_times_outside_its_table(self):
        tab = parse_coefficient("tab:0:1,1:2")
        assert tab.value(1.0) == 2.0
        for bad in (5.0, -0.5, np.array([0.5, 1.5])):
            with pytest.raises(ValueError, match="table"):
                tab.value(bad)
        with pytest.raises(ValueError, match="table"):
            tab.integral_h(0.5, 2.0)
        law = VelocityLaw.time_dependent(0.75, tab, v0=0.1, t_ref=0.5)
        with pytest.raises(ValueError, match="table"):
            velocity_at(law, 5.0)


COEFFICIENT_KINDS = {
    "unit": UnitCoefficient(),
    "exp": ExponentialCoefficient(0.7),
    "poly": PolynomialCoefficient((1.0, 0.2, 0.05)),
    "tab": TabulatedCoefficient((0.5, 1.2, 2.0, 4.0), (1.0, 1.4, 0.9, 1.3)),
}


class TestCoefficientProtocol:
    @pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
    def test_step_integral_matches_integral(self, kind):
        # a fixed-step run takes the integrals over all its steps in one call
        f = COEFFICIENT_KINDS[kind]
        ts = 1.0 + 1e-3 * np.arange(11)
        steps = f.integral_h(ts[:-1], ts[1:])
        assert steps.shape == (10,)
        for t0, t1, step in zip(ts[:-1], ts[1:], steps):
            assert step == pytest.approx(f.integral_h(t0, t1), rel=1e-12)

    @pytest.mark.parametrize("kind", ["unit", "exp"])
    def test_closed_forms_match_the_shared_quadrature(self, kind):
        f = COEFFICIENT_KINDS[kind]
        assert f.integral_h(1.0, 3.0) == pytest.approx(Coefficient.integral_h(f, 1.0, 3.0), rel=1e-12)
        closed = f.exp_kernel_antiderivative(3.0, 1.0) - f.exp_kernel_antiderivative(1.0, 1.0)
        assert closed == pytest.approx(Coefficient.exp_kernel_antiderivative(f, 3.0, 1.0), rel=1e-12)

    def test_tabulated_spline_is_built_once(self, monkeypatch):
        import scipy.interpolate

        builds = []

        class CountingPchip(scipy.interpolate.PchipInterpolator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "PchipInterpolator", CountingPchip)
        tab = TabulatedCoefficient((0.5, 1.2, 2.0, 4.0), (1.0, 1.4, 0.9, 1.3))
        p = PdeParams(0, 1, 1, 0.5)
        fam = solve_closed_form(p)[0]
        law = VelocityLaw.time_dependent(fam.v, tab, v0=fam.v)
        velocity_at(law, 1.5)
        for adaptive in (False, True):
            cfg = sim.SimConfig(p=p, N=64, dt=1e-3, T=0.01, f=tab, t0=1.0, adaptive=adaptive)
            states = sim.run(cfg, sim.init_from_family(cfg, fam, law), snapshots=3)
            assert states.steps >= 3
        assert len(builds) == 1


# Knots 1.02 to 4.7 of this table lie inside [1, 5], where f kinks; it is the
# simulated table of the benchmark's timedep seed 1.
KINKED_TABLE = "tab:0.5:1.00000,1.02:1.44000,2.2:1.07000,3.4:1.49000,4.7:1.59000,6:0.67000"
SMOOTH_POLY = "poly:1.2,0.25,0.03"


def _oracle_integrals(spec: str, ts: np.ndarray):
    """Int_1^t h and Int_1^t e^s*h for each t in ts, in 30-digit arithmetic
    between consecutive times and knots: h = 1/f from the descriptor, the
    table's monotone cubic rebuilt here from scipy's piecewise coefficients."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.interpolate import PchipInterpolator

    kind, _, rest = spec.partition(":")
    if kind == "poly":
        coeffs = [mpmath.mpf(c) for c in rest.split(",")]
        knots = []

        def f(s):
            return mpmath.polyval(coeffs[::-1], s)
    else:
        pairs = [p.split(":") for p in rest.split(",")]
        knots = [float(p[0]) for p in pairs]
        spline = PchipInterpolator(knots, [float(p[1]) for p in pairs])

        def f(s):
            i = min(max(int(np.searchsorted(knots, float(s))) - 1, 0), len(knots) - 2)
            dx = s - mpmath.mpf(knots[i])
            return mpmath.polyval([mpmath.mpf(float(c)) for c in spline.c[:, i]], dx)

    with mpmath.workdps(30):
        edges = sorted({1.0, *ts.tolist(), *(k for k in knots if 1.0 < k < ts.max())})
        acc_h, acc_e, at = mpmath.mpf(0), mpmath.mpf(0), {1.0: (0.0, 0.0)}
        for lo, hi in zip(edges[:-1], edges[1:]):
            acc_h += mpmath.quad(lambda s: 1 / f(s), [lo, hi])
            acc_e += mpmath.quad(lambda s: mpmath.exp(s) / f(s), [lo, hi])
            at[hi] = (float(acc_h), float(acc_e))
    return np.array([at[t] for t in ts.tolist()]).T


class TestCumulativeQuadrature:
    """The velocity law integrates h (and e^s*h) for all requested times in one
    cumulative pass, split at the table's knots."""

    TIMES = np.concatenate((np.linspace(1.0, 5.0, 50), np.linspace(1.0, 5.0, 50)[1:] + 1e-5))

    @pytest.mark.parametrize("spec", [SMOOTH_POLY, KINKED_TABLE])
    def test_integrals_agree_with_a_30_digit_oracle(self, spec):
        f = parse_coefficient(spec)
        int_h, int_e = _oracle_integrals(spec, self.TIMES)
        assert np.max(np.abs(f.integral_h(1.0, self.TIMES) - int_h)) < 1e-13
        kernel = f.exp_kernel_antiderivative(self.TIMES, 1.0)
        assert np.max(np.abs(kernel - int_e) / np.maximum(np.abs(int_e), 1.0)) < 1e-13

    def test_near_zero_polynomial_is_integrated_to_its_evaluation_error(self):
        # f = 1 - 2t + 1.0001t^2 dips to 1e-4 at t = 0.9999, where np.polyval
        # loses up to 2.2e-12 of f to cancellation: no piece there can meet
        # 1e-13, so the pieces accept f's own evaluation error
        spec = "poly:1,-2,1.0001"
        ts = np.linspace(1.0, 5.0, 50)
        want = _oracle_integrals(spec, ts)[0]
        assert want[-1] == pytest.approx(155.83, abs=5e-3)
        got = parse_coefficient(spec).integral_h(1.0, ts)
        assert np.max(np.abs(got - want)) < 1e-10 * want[-1]

    def test_coefficient_too_close_to_zero_to_evaluate_is_refused(self):
        # min f = 1e-10: np.polyval gives f to only 2e-5 relative there, and
        # an integral through it would be off by 8e-6
        with pytest.raises(CoefficientSingularity, match="too close to zero"):
            parse_coefficient("poly:1,-2,1.0000000001").integral_h(1.0, 5.0)

    @pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
    @pytest.mark.parametrize("form", ["constraint", "paper"])
    def test_array_call_equals_scalar_calls(self, kind, form):
        law = VelocityLaw.time_dependent(0.75, COEFFICIENT_KINDS[kind], v0=0.3, t_ref=1.0)
        vf = velocity_at if form == "constraint" else velocity_paper_form
        ts = np.linspace(1.0, 3.9, 30)
        scalar = np.array([vf(law, float(t)) for t in ts])
        np.testing.assert_allclose(vf(law, ts), scalar, rtol=1e-14, atol=1e-14)
        res = constraint_residual(law, ts, form=form)
        np.testing.assert_allclose(res, [constraint_residual(law, float(t), form=form) for t in ts],
                                   rtol=0, atol=1e-8)
        assert isinstance(constraint_residual(law, 2.0, form=form), float)

    @pytest.mark.parametrize("spec", [SMOOTH_POLY, KINKED_TABLE])
    def test_constraint_residual_evaluates_f_in_a_few_calls(self, spec):
        base = type(parse_coefficient(spec))
        calls = []

        class Counting(base):
            def value(self, t):
                calls.append(np.size(t))
                return base.value(self, t)

        f = parse_coefficient(spec)
        counted = Counting(*astuple(f))
        law = VelocityLaw.time_dependent(0.75, counted, v0=0.3, t_ref=1.0)
        for form in ("constraint", "paper"):
            calls.clear()
            res = constraint_residual(law, np.linspace(1.0, 5.0, 50), form=form)
            assert len(calls) <= 60
            assert np.all(np.isfinite(res))
        # the quadrature law meets its own constraint to round-off
        assert np.max(np.abs(constraint_residual(law, np.linspace(1.0, 5.0, 50)))) < 1e-9

    @pytest.mark.parametrize("value", [
        lambda t: 1.0 + 1e-3 * np.sin(1e9 * t),  # too rough: the bisected pieces pass their cap
        lambda t: np.sqrt(np.abs(t - math.pi)),  # h = |t - pi|^(-1/2): pieces next to pi never converge
    ], ids=["rough", "cusp"])
    def test_unresolvable_coefficient_is_refused_within_a_bounded_effort(self, value):
        @dataclass(frozen=True)
        class Unresolvable(Coefficient):
            def value(self, t):
                return value(np.asarray(t, dtype=float))

        law = VelocityLaw.time_dependent(0.75, Unresolvable(), v0=0.3, t_ref=1.0)
        start = time.perf_counter()
        with pytest.raises(CoefficientSingularity, match="does not converge"):
            velocity_at(law, np.linspace(1.0, 5.0, 50))
        assert time.perf_counter() - start < 2.0

    def test_non_finite_integrand_is_refused(self):
        @dataclass(frozen=True)
        class Pole(Coefficient):
            """f = t - 2 with no vanishing check: h has a pole inside [1, 3]."""

            def value(self, t):
                return np.asarray(t, dtype=float) - 2.0

        with pytest.raises(CoefficientSingularity):
            Pole().integral_h(1.0, 3.0)

    def test_tabulated_breakpoints_are_its_knots(self):
        tab = parse_coefficient(KINKED_TABLE)
        assert tab.breakpoints == tab.times
        assert PolynomialCoefficient((1.0,)).breakpoints == ()
