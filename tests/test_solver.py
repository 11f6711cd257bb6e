"""Tests for the closed-form families, exact back-substitution, and the
independent numeric root search."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvmkdv import solver
from kdvmkdv.ansatz import PdeParams, derive_system
from kdvmkdv.solver import (
    BINV,
    PERTURBABLE,
    SIGN_PAIRS,
    SQRT_M,
    SQRT_Q,
    DegenerateEquation,
    NoRealSolution,
    back_substitute_exact,
    back_substitute_generic,
    residuals_numeric,
    solve_closed_form,
    solve_numeric,
    specialize,
)
from kdvmkdv.symexpr import ParamPoly


@pytest.fixture(scope="module")
def system():
    return derive_system(1)


def sech_mkdv_residual_fd(amplitude: float, speed: float, b: float, d: float) -> float:
    """Finite-difference residual of u = amplitude*sech(x - speed*t) in
    u_t + b*u^2*u_x + d*u_xxx = 0; the independent check of the m=1 limit."""
    h = 1e-3
    u = lambda x, t: amplitude / math.cosh(x - speed * t)
    worst = 0.0
    for x in np.linspace(-4.0, 4.0, 17):
        ut = (u(x, h) - u(x, -h)) / (2 * h)
        ux = (u(x + h, 0) - u(x - h, 0)) / (2 * h)
        uxxx = (u(x + 2 * h, 0) - 2 * u(x + h, 0) + 2 * u(x - h, 0) - u(x - 2 * h, 0)) / (2 * h**3)
        worst = max(worst, abs(ut + b * u(x, 0) ** 2 * ux + d * uxxx))
    return worst


def per_sign_residuals(system, sign_A, sign_B, perturb, params):
    """Reference back-substitution of one family: its signs are substituted
    as numbers before the reduction."""
    a, b, d, m, binv, sqrtm, sqrtq = map(ParamPoly.symbol, ("a", "b", "d", "m", BINV, SQRT_M, SQRT_Q))
    values = {
        "A": sign_A * sqrtm * sqrtq,
        "B": sign_B * sqrtq,
        "D": Fraction(-1, 2) * a * binv,
        "v": (Fraction(1, 2) * b * d * (1 + m) - Fraction(1, 4) * a * a) * binv,
    }
    for name, delta in perturb.items():
        values[name] = values[name] + delta
    residuals = [solver._reduce(eq.substitute(values)) for eq in system.equations]
    if params is None:
        return residuals
    numbers = {**params, BINV: 1 / params["b"]}
    return [r.substitute(numbers) for r in residuals]


def newton_per_start(system, p, seeds, rng_seed=0):
    """Reference multi-start Newton: one start at a time, F and J evaluated
    term by term from the equations, one least-squares solve per step."""
    a, b, d, m = p.as_floats()
    base = {"a": a, "b": b, "d": d, "m": m}
    names = [s for s in system.unknowns if s not in base]
    grads = [[eq.derivative(s) for s in names] for eq in system.equations]

    def fval(x):
        return np.array([eq.eval({**base, **dict(zip(names, x))}) for eq in system.equations])

    def jval(x):
        return np.array([[g.eval({**base, **dict(zip(names, x))}) for g in row] for row in grads])

    scale = max(1.0, math.sqrt(abs(1.5 * d / b)), abs(a / (2 * b)))
    rng = np.random.default_rng(rng_seed)
    roots = []
    for _ in range(seeds):
        x = rng.uniform(-3.0 * scale, 3.0 * scale, size=len(names))
        fx = fval(x)
        for _ in range(solver.NEWTON_MAX_STEPS):
            norm = np.linalg.norm(fx)
            if norm < 1e-13:
                break
            step = np.linalg.lstsq(jval(x), fx, rcond=None)[0]
            lam = 1.0
            for _ in range(20):
                x_new = x - lam * step
                f_new = fval(x_new)
                if np.linalg.norm(f_new) < norm:
                    break
                lam *= 0.5
            else:
                break
            x, fx = x_new, f_new
        if np.linalg.norm(fx) < solver.NEWTON_RESIDUAL_ACCEPT:
            if not any(np.linalg.norm(x - r) < solver.ROOT_DEDUP_TOL for r in roots):
                roots.append(x)
    return roots


def rational_params(rng, same_sign=True):
    """Rational a, b, d, m with b*d > 0 (or < 0), m in [0.05, 0.95]."""
    sign = rng.choice((1, -1))
    a = Fraction(int(rng.integers(-8, 9)), 4)
    b = sign * Fraction(int(rng.integers(2, 9)), 4)
    d = (1 if same_sign else -1) * sign * Fraction(int(rng.integers(2, 9)), 4)
    return PdeParams(a, b, d, Fraction(int(rng.integers(5, 96)), 100))


class TestClosedForm:
    def test_sech_case(self):
        fams = solve_closed_form(PdeParams(0, 1, 1, 1))
        fam = fams[0]
        assert fam.A == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert fam.B == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert fam.D == 0.0
        assert fam.v == 1.0
        assert fam.A + fam.B + fam.D == pytest.approx(math.sqrt(6.0), rel=1e-15)
        # sqrt(6)*sech(x-t) must solve the cubic-only equation
        assert sech_mkdv_residual_fd(math.sqrt(6.0), 1.0, 1.0, 1.0) < 1e-5

    def test_offset_value(self):
        for m in (0.2, 0.5, 1.0):
            for fam in solve_closed_form(PdeParams(2, 1, 1, m)):
                assert fam.D == -1.0

    def test_small_m_limit(self):
        fams = solve_closed_form(PdeParams(0, 1, 1, 1e-6))
        fam = fams[0]
        assert fam.A == pytest.approx(0.0, abs=2e-3)
        assert fam.v == pytest.approx(0.5, abs=1e-6)
        system = derive_system(1)
        assert max(abs(r) for r in residuals_numeric(fam, system)) < 1e-12

    def test_exactly_four_families_deterministic(self):
        fams = solve_closed_form(PdeParams(1, 2, 3, 0.7))
        assert [(f.sign_A, f.sign_B) for f in fams] == list(SIGN_PAIRS)

    def test_errors(self):
        with pytest.raises(DegenerateEquation, match="KdV"):
            solve_closed_form(PdeParams(1, 0, 1, 0.5))
        with pytest.raises(NoRealSolution, match="same sign|b\\*d"):
            solve_closed_form(PdeParams(0, 1, -1, 0.5))
        with pytest.raises(NoRealSolution):
            solve_closed_form(PdeParams(0, 1, 1, 0))

    def test_class_labels_follow_taxonomy(self):
        same = solve_closed_form(PdeParams(2, 1, 1, 0.5))
        assert sorted(f.class_label for f in same) == ["AB<0,D<0", "AB<0,D<0", "AB>0,D<0", "AB>0,D<0"]
        diff = solve_closed_form(PdeParams(2, -1, -1, 0.5))
        assert sorted(f.class_label for f in diff) == ["AB<0,D>0", "AB<0,D>0", "AB>0,D>0", "AB>0,D>0"]


class TestSignSymmetry:
    def test_velocity_even_in_a_offset_odd(self):
        for aa in (0.5, 1.7):
            plus = solve_closed_form(PdeParams(aa, 1, 1, 0.5))
            minus = solve_closed_form(PdeParams(-aa, 1, 1, 0.5))
            for fp, fm in zip(plus, minus):
                assert fp.v == fm.v
                assert fp.A == fm.A and fp.B == fm.B
                assert fp.D == -fm.D

    def test_m_one_amplitudes_coincide(self):
        for fam in solve_closed_form(PdeParams(1, 1, 1, 1)):
            assert abs(fam.A) == pytest.approx(abs(fam.B), rel=1e-15)


class TestBackSubstituteExact:
    def test_symbolic_zero_for_all_sign_pairs(self, system):
        for sa, sb in SIGN_PAIRS:
            residuals = back_substitute_exact(system, params=None, sign_A=sa, sign_B=sb)
            assert all(r.is_zero for r in residuals)

    def test_generic_residuals_vanish_with_formal_signs(self, system):
        # zero before any sign is chosen: sgnA^2 -> 1 and sgnB^2 -> 1 are in the reduction
        assert all(r.is_zero for r in back_substitute_generic(system))

    def test_rational_parameters(self, system):
        params = {"a": Fraction(2), "b": Fraction(3), "d": Fraction(6), "m": Fraction(3, 4)}
        for sa, sb in SIGN_PAIRS:
            residuals = back_substitute_exact(system, params=params, sign_A=sa, sign_B=sb)
            assert all(r.is_zero for r in residuals)

    def test_perturbed_velocity_identifies_its_equations(self, system):
        residuals = back_substitute_exact(system, params=None, perturb={"v": Fraction(1)})
        nonzero = {mono.text() for mono, r in zip(system.monomials, residuals) if not r.is_zero}
        assert nonzero == {"sn*dn", "sn*cn"}

    def test_a_zero_branch(self, system):
        params = {"a": Fraction(0), "b": Fraction(1), "d": Fraction(1), "m": Fraction(1, 2)}
        residuals = back_substitute_exact(system, params=params)
        assert all(r.is_zero for r in residuals)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.fractions(-3, 3, max_denominator=8),
        b=st.fractions(1, 4, max_denominator=8),
        b_sign=st.sampled_from((1, -1)),
        d=st.fractions(1, 4, max_denominator=8),
        m=st.fractions(Fraction(1, 8), 1, max_denominator=8),
        signs=st.sampled_from(SIGN_PAIRS),
        name=st.sampled_from(("A", "B", "D", "v")),
        delta=st.fractions(-2, 2, max_denominator=8).filter(bool),
    )
    def test_residuals_agree_with_float_substitution(self, system, a, b, b_sign, d, m, signs, name, delta):
        """Oracle: the exact residuals of a perturbed family, evaluated at the
        numeric roots, equal the float residuals of the same family."""
        params = {"a": a, "b": b_sign * b, "d": b_sign * d, "m": m}
        roots = {
            SQRT_M: math.sqrt(m),
            SQRT_Q: math.sqrt(1.5 * float(d / b)),
            BINV: 1.0 / float(params["b"]),
            **{k: float(v) for k, v in params.items()},
        }
        fam = solve_closed_form(PdeParams(**params))[SIGN_PAIRS.index(signs)]
        fam = replace(fam, **{name: getattr(fam, name) + float(delta)})
        want = residuals_numeric(fam, system)
        for exact in (params, None):
            got = back_substitute_exact(system, exact, *signs, perturb={name: delta})
            for r, w in zip(got, want):
                assert r.eval(roots) == pytest.approx(w, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.fractions(-3, 3, max_denominator=8),
        b=st.fractions(1, 4, max_denominator=8),
        b_sign=st.sampled_from((1, -1)),
        d=st.fractions(-4, 4, max_denominator=8),
        m=st.fractions(Fraction(1, 8), 1, max_denominator=8),
        perturb=st.dictionaries(st.sampled_from(PERTURBABLE), st.fractions(-2, 2, max_denominator=8)),
    )
    def test_generic_residuals_specialize_to_the_per_sign_residuals(
        self, system, a, b, b_sign, d, m, perturb
    ):
        """One reduction with formal signs, specialized to a family, gives the
        polynomials of the reduction with that family's signs put in first."""
        params = {"a": a, "b": b_sign * b, "d": d, "m": m}
        generic = back_substitute_generic(system, perturb)
        for signs in SIGN_PAIRS:
            for exact in (None, params):
                want = per_sign_residuals(system, *signs, perturb, exact)
                assert specialize(generic, *signs, exact) == want
                assert back_substitute_exact(system, exact, *signs, perturb=perturb) == want

    def test_numeric_fallback_for_irrational_parameters(self, system):
        p = PdeParams(a=math.sqrt(2), b=1.0, d=math.pi / 3.0, m=0.7)
        for fam in solve_closed_form(p):
            assert max(abs(r) for r in residuals_numeric(fam, system)) < 1e-12


class TestSolveNumeric:
    def test_recovers_the_four_families(self, system):
        p = PdeParams(0.0, 1.0, 1.0, 0.5)
        roots = solve_numeric(system, p, seeds=32)
        fams = solve_closed_form(p)
        assert len(roots) == 4
        expected = [np.array([f.A, f.B, f.D, f.v]) for f in fams]
        for want in expected:
            assert any(np.linalg.norm(r - want) < 1e-8 for r in roots)

    def test_opposite_dispersion_sign_has_no_roots(self, system):
        roots = solve_numeric(system, PdeParams(0.0, 1.0, -1.0, 0.5), seeds=24)
        assert roots == []

    def test_velocity_at_hyperbolic_point(self, system):
        roots = solve_numeric(system, PdeParams(1.0, 1.0, 1.0, 1.0), seeds=32)
        assert roots
        for r in roots:
            assert r[3] == pytest.approx(0.75, abs=1e-9)

    def test_requires_enough_seeds(self, system):
        with pytest.raises(ValueError):
            solve_numeric(system, PdeParams(0.0, 1.0, 1.0, 0.5), seeds=8)

    @pytest.mark.parametrize("seeds", [16, 32, 33])
    def test_batch_finds_each_closed_form(self, system, seeds):
        rng = np.random.default_rng(seeds)
        for _ in range(20):
            p = rational_params(rng)
            roots = solve_numeric(system, p, seeds=seeds)
            closed = [np.array([f.A, f.B, f.D, f.v]) for f in solve_closed_form(p)]
            assert len(roots) == 4
            for root in roots:
                assert min(np.max(np.abs(root - c)) for c in closed) < 1e-12
            # the roots come in the order of their closed forms: two that tie
            # in A are ordered by B, not by the noise in A's last bits
            matched = [min(closed, key=lambda c: np.max(np.abs(root - c))) for root in roots]
            assert [tuple(c) for c in matched] == sorted(tuple(c) for c in closed)

    def test_batch_finds_nothing_for_opposite_signs(self, system):
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert solve_numeric(system, rational_params(rng, same_sign=False)) == []

    @pytest.mark.parametrize("seeds", [16, 33])
    def test_batch_matches_the_per_start_loop(self, system, seeds):
        """Same starts, same rules: the same roots, up to the rounding of the
        reordered float sums (1e-12 absolute, the roots being of order 1)."""
        rng = np.random.default_rng(11)
        for _ in range(3):
            p = rational_params(rng)
            got = solve_numeric(system, p, seeds=seeds)
            want = newton_per_start(system, p, seeds)
            assert len(got) == len(want)
            for root in want:
                assert min(np.max(np.abs(root - r)) for r in got) < 1e-12

    def test_one_stacked_solve_per_step(self, system, monkeypatch):
        calls = []
        pinv = np.linalg.pinv

        def counted(J, *args, **kwargs):
            calls.append(J.shape)
            return pinv(J, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        monkeypatch.setattr(np.linalg, "lstsq", None)
        assert len(solve_numeric(system, PdeParams(0.5, 1.0, 1.0, 0.6), seeds=32)) == 4
        assert 0 < len(calls) <= solver.NEWTON_MAX_STEPS
        assert calls[0] == (32, len(system), 4)

    def test_deterministic(self, system):
        p = PdeParams(0.5, 1.0, 1.0, 0.6)
        r1 = solve_numeric(system, p, seeds=24)
        r2 = solve_numeric(system, p, seeds=24)
        assert len(r1) == len(r2)
        for x, y in zip(r1, r2):
            assert np.array_equal(x, y)
