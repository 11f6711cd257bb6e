"""Tests for explicit profiles, the hyperbolic limit, and the velocity laws.

Analytic quadrature oracles: with h = 1/f the constraint d(t*v)/dt = C*h(t)
integrates to v(t) = (t_ref*v0 + C*Int_{t_ref}^t h)/t, which has closed forms
for f = 1 (Int = t - t_ref) and f = e^t (Int = e^{-t_ref} - e^{-t}).
"""

import math

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

    def test_for_family_dispatch(self, cnoidal_family):
        fam = cnoidal_family
        assert VelocityLaw.for_family(fam).kind == "constant"
        law = VelocityLaw.for_family(fam, ExponentialCoefficient(1.0))
        assert law.kind == "time-dependent" and law.v0 == fam.v


COEFFICIENT_KINDS = {
    "unit": UnitCoefficient(),
    "exp": ExponentialCoefficient(0.7),
    "poly": PolynomialCoefficient((1.0, 0.2, 0.05)),
    "tab": TabulatedCoefficient((0.5, 1.2, 2.0, 4.0), (1.0, 1.4, 0.9, 1.3)),
}


class TestCoefficientProtocol:
    @pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
    def test_step_integral_matches_integral(self, kind):
        f = COEFFICIENT_KINDS[kind]
        assert f.integral_h_step(1.0, 1.001) == pytest.approx(f.integral_h(1.0, 1.001), rel=1e-12)

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
        law = VelocityLaw.for_family(fam, tab)
        velocity_at(law, 1.5)
        cfg = sim.SimConfig(p=p, N=64, dt=1e-3, T=0.01, f=tab, t0=1.0)
        stepper = sim._Stepper(cfg)
        state = sim.init_from_family(cfg, fam, law)
        vh, t = state.uhat[: cfg.N // 2 + 1], cfg.t0
        for i in range(10):
            vh = stepper.advance(vh, t)
            t = cfg.t0 + (i + 1) * cfg.dt
        assert len(builds) == 1


class TestTables:
    def test_profile_table_format(self, cnoidal_family):
        text = waves.profile_table(cnoidal_family, np.linspace(-1, 1, 3), 0.0)
        lines = text.strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 4
        x, u = lines[1].split(",")
        assert float(x) == -1.0 and float(u) == pytest.approx(1.5242930627421907)

    def test_velocity_table_format(self):
        law = VelocityLaw.time_dependent(0.5, UnitCoefficient(), v0=0.5, t_ref=1.0)
        text = waves.velocity_table(law, np.linspace(1.0, 2.0, 3))
        lines = text.strip().splitlines()
        assert lines[0] == "t,v_constraint,v_paper"
        assert len(lines) == 4
