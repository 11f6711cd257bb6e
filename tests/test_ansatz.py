"""Tests for ansatz compilation and system extraction.

The seven-equation block of the first-order derivation is pinned verbatim as
the expected result; extracted equations must match it after canonical
normalization (rational content, monomial content over the amplitudes and m,
positive leading sign applied to both sides).
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kdvmkdv import ansatz, elliptic, solver
from kdvmkdv.ansatz import (
    AnsatzSpec,
    PdeParams,
    build_ansatz,
    derive_system,
    extract_system,
    residual_constant,
    residual_timedep,
)
from kdvmkdv.symexpr import EllipticMonomial, ParamPoly, basis_coefficients

from symexpr_oracles import eval_numeric, eval_poly, symbols

P = ParamPoly
a, b, d, m, A, B, D, v, h, w = (P.symbol(s) for s in "a b d m A B D v h w".split())
sn, cn, dn = (P.symbol(s) for s in ("sn", "cn", "dn"))

NORMALIZE_OVER = ("A", "B", "m")

# the seven displayed equations of the first-order constant-coefficient block
BLOCK = [
    a + 2 * b * D + a * m + 2 * b * D * m,
    a + 2 * b * D,
    2 * A**2 * b * B + A**2 * b * B * m + b * B**3 * m - 4 * B * d * m + a * B * D * m
    + b * B * D**2 * m - B * d * m**2 - B * m * v,
    3 * A**2 * b + b * B**2 * m - 6 * d * m,
    A**2 * b + b * B**2 - d + a * D + b * D**2 + 2 * b * B**2 * m - 4 * d * m - v,
    A**2 * b + 3 * b * B**2 * m - 6 * d * m,
    a * A**2 + 2 * A**2 * b * D + a * B**2 * m + 2 * b * B**2 * D * m,
]


class TestBuildAnsatz:
    def test_first_order_structure(self):
        u = build_ansatz(AnsatzSpec(1))
        assert u == D + A * cn + B * dn
        assert len(AnsatzSpec(1).coefficient_symbols) == 3  # 2n+1

    def test_zero_amplitudes_leave_constant(self):
        u = build_ansatz(AnsatzSpec(1)).substitute({"A": Fraction(0), "B": Fraction(0)})
        assert u == D

    def test_second_order_structure(self):
        spec = AnsatzSpec(2)
        u = build_ansatz(spec)
        A0, A1, B1, A2, B2 = (P.symbol(s) for s in ("A0", "A1", "B1", "A2", "B2"))
        expected = A0 + A1 * cn + B1 * dn + A2 * sn * cn + B2 * sn * dn
        assert u == expected
        assert len(spec.coefficient_symbols) == 5

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            AnsatzSpec(0)


class TestResidualConstant:
    def test_constant_profile_is_annihilated(self):
        assert residual_constant(D).is_zero

    def test_first_order_block_matches(self):
        system = derive_system(1)
        assert len(system) == 7
        expected = sorted((p.normalized(NORMALIZE_OVER) for p in BLOCK), key=lambda q: q.text())
        got = sorted(system.equations, key=lambda q: q.text())
        assert got == expected

    def test_pure_sn_against_finite_differences(self):
        # u = sn with a=b=0: residual -v*cn*dn + d*(sn''' terms), nonzero
        res = residual_constant(sn).substitute(
            {"a": Fraction(0), "b": Fraction(0)}
        )
        assert not res.is_zero
        bindings = {"v": 0.7, "d": 1.3}
        hh = 1e-3
        for xi, mm in ((0.6, 0.5), (-1.9, 0.8)):
            sn_at = lambda x: elliptic.jacobi(x, mm).sn
            d1 = (sn_at(xi + hh) - sn_at(xi - hh)) / (2 * hh)
            d3 = (sn_at(xi + 2 * hh) - 2 * sn_at(xi + hh) + 2 * sn_at(xi - hh) - sn_at(xi - 2 * hh)) / (
                2 * hh**3
            )
            brute = -0.7 * d1 + 1.3 * d3
            assert eval_numeric(res, bindings, xi, mm) == pytest.approx(brute, abs=1e-4)


class TestResidualTimedep:
    def test_reduces_to_constant_case(self):
        u = build_ansatz(AnsatzSpec(1))
        reduced = residual_timedep(u).substitute({"h": Fraction(1), "w": P.symbol("v")})
        assert reduced == residual_constant(u)

    def test_constant_profile_is_annihilated(self):
        assert residual_timedep(D).is_zero

    def test_mixed_equation_matches_block(self):
        # the sn*cn coefficient carries the published mixed equation:
        # h*(spatial part) - B*m*w, with w standing for v + t*dv/dt
        u = build_ansatz(AnsatzSpec(1))
        coeffs = dict(basis_coefficients(residual_timedep(u)))
        published = h * (
            2 * A**2 * b * B + A**2 * b * B * m + b * B**3 * m - 4 * B * d * m
            + a * B * D * m + b * B * D**2 * m - B * d * m**2
        ) - B * m * w
        assert -coeffs[EllipticMonomial(1, 1, 0)] == published


class TestExtractSystem:
    def test_zero_residual_gives_empty_system(self):
        system = extract_system(P.zero(), unknowns=("A", "B"), assume_nonzero=NORMALIZE_OVER, time_constant=())
        assert len(system) == 0

    def test_lowest_monomial_equation_and_redundancy(self):
        system = derive_system(1)
        eq_by_mono = dict(zip(system.monomials, system.equations))
        lowest = eq_by_mono[EllipticMonomial(1, 0, 0)]
        assert lowest == BLOCK[0].normalized(NORMALIZE_OVER)
        # the redundant pair: (1+m)*(a+2bD) from sn and plain a+2bD from sn^3
        bare = eq_by_mono[EllipticMonomial(3, 0, 0)]
        assert bare == (a + 2 * b * D)
        assert lowest == bare * (P.const(1) + m)

    def test_prebinding_a_zero_forces_offset_zero(self):
        u = build_ansatz(AnsatzSpec(1))
        res = residual_constant(u).substitute({"a": Fraction(0)})
        system = extract_system(res, unknowns=("A", "B", "D", "v"), assume_nonzero=NORMALIZE_OVER, time_constant=())
        eq_by_mono = dict(zip(system.monomials, system.equations))
        # the mKdV specialization: the offset equation collapses to b*D = 0
        assert eq_by_mono[EllipticMonomial(3, 0, 0)] == b * D

    def test_order_is_graded_and_deterministic(self):
        system = derive_system(1)
        assert list(system.monomials) == sorted(system.monomials)
        assert derive_system(1).text() == system.text()

    def test_timedep_metadata_and_symbols(self):
        system = derive_system(1, timedep=True)
        assert system.time_constant == ("A", "B", "D")
        used = set().union(*(symbols(eq) for eq in system.equations))
        assert "h" in used and "w" in used and "v" not in used

    @pytest.mark.parametrize("order,timedep", [(1, False), (2, False), (3, False), (1, True)])
    def test_every_coefficient_is_an_int(self, order, timedep):
        """The derivation is integer arithmetic; a Fraction here means a slow path crept back."""
        system = derive_system(order, timedep=timedep)
        assert {type(c) for eq in system.equations for c in eq.terms.values()} == {int}

    def test_runtime_under_one_second(self):
        start = time.perf_counter()
        derive_system(1)
        assert time.perf_counter() - start < 1.0


def golden_systems() -> dict[tuple[int, bool], str]:
    """The golden text of each derived system, keyed by (order, timedep)."""
    root = Path(__file__).parent
    goldens = {
        (3, False): root.parent / "perfbench" / "golden" / "derive_order3.txt",
        (2, False): root.parent / "perfbench" / "golden" / "derive_order2.txt",
        (1, False): root / "golden" / "derive_order1.txt",
        (1, True): root / "golden" / "derive_order1_timedep.txt",
        (2, True): root / "golden" / "derive_order2_timedep.txt",
        (3, True): root / "golden" / "derive_order3_timedep.txt",
    }
    # the golden files are `derive` output, which adds a comment line
    return {
        key: "\n".join(l for l in golden.read_text().splitlines() if not l.startswith("#"))
        for key, golden in goldens.items()
    }


class TestMemo:
    def test_each_system_is_derived_once_per_process(self):
        ansatz._derive.cache_clear()
        goldens = golden_systems()
        first = {key: derive_system(*key) for key in goldens}
        for key, golden in goldens.items():
            again = derive_system(key[0], timedep=key[1])
            assert again is first[key]
            assert again.text() == golden

    def test_each_system_is_rendered_once(self):
        for key, golden in golden_systems().items():
            text = derive_system(*key).text()
            assert derive_system(*key).text() is text
            assert text == golden

    def test_back_substitution_returns_a_tuple(self):
        system = derive_system(1)
        for perturb in (None, {"v": Fraction(1, 10)}):
            assert type(solver.back_substitute_generic(system, perturb)) is tuple
        assert solver.back_substitute_generic(system) is solver.back_substitute_generic(system)

    def test_memo_lookups_do_not_hash_the_equations(self, monkeypatch):
        system = derive_system(1)
        for perturb in (None, {"v": Fraction(1, 10)}):
            solver.back_substitute_generic(system, perturb)

        def refuse(poly):
            raise AssertionError("a memo lookup hashed an equation")

        monkeypatch.setattr(ParamPoly, "__hash__", refuse)
        for perturb in (None, {"v": Fraction(1, 10)}):
            assert solver.back_substitute_generic(derive_system(1), perturb)


class TestSympyOracle:
    def test_order_one_system_matches_golden(self):
        """Rederive the first-order system in sympy, with sn, cn and dn as
        plain symbols, and compare it with the golden file: the same seven
        basis monomials in the same order, each golden equation equal to the
        sympy coefficient up to a rational multiple of a monomial in A, B, m
        (the normalization of extract_system)."""
        sp = pytest.importorskip("sympy")
        names = {s: sp.Symbol(s) for s in "sn cn dn a b d m A B D v".split()}
        sn, cn, dn = names["sn"], names["cn"], names["dn"]
        sa, sb, sd, sm, sA, sB, sD, sv = (names[s] for s in "a b d m A B D v".split())

        def dxi(e):  # sn' = cn*dn, cn' = -sn*dn, dn' = -m*sn*cn
            return sp.diff(e, sn) * cn * dn - sp.diff(e, cn) * sn * dn - sp.diff(e, dn) * sm * sn * cn

        u = sA * cn + sB * dn + sD
        du = dxi(u)
        residual = sp.expand(-sv * du + sa * u * du + sb * u**2 * du + sd * dxi(dxi(du)))
        reduced = sum(
            coef * sn**i * cn ** (j % 2) * dn ** (k % 2) * (1 - sn**2) ** (j // 2) * (1 - sm * sn**2) ** (k // 2)
            for (i, j, k), coef in sp.Poly(residual, sn, cn, dn).terms()
        )
        derived = dict(sp.Poly(sp.expand(reduced), sn, cn, dn).terms())

        golden = {}
        for line in (Path(__file__).parent / "golden" / "derive_order1.txt").read_text().splitlines():
            mono, _, eq = line.partition(": ")
            key = sp.Poly(sp.sympify(mono, locals=names), sn, cn, dn).monoms()[0]
            golden[key] = sp.sympify(eq.removesuffix(" = 0"), locals=names)
        assert list(golden) == sorted(derived) and len(golden) == 7
        for key, eq in golden.items():
            for part in sp.fraction(sp.factor(derived[key] / eq)):
                assert part.free_symbols <= {sA, sB, sm}
                assert len(sp.Poly(part, sA, sB, sm).terms()) == 1


class TestExactVanishing:
    def test_closed_forms_annihilate_extracted_system(self):
        # exact, symbol-level check lives in the solver; here confirm the
        # numeric counterpart on the extracted system for random parameters
        from kdvmkdv.solver import solve_closed_form

        system = derive_system(1)
        rng = np.random.default_rng(5)
        for _ in range(5):
            pb = rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0])
            p = PdeParams(
                a=rng.uniform(-2, 2), b=pb, d=pb * rng.uniform(0.4, 2.0), m=rng.uniform(0.1, 1.0)
            )
            for fam in solve_closed_form(p):
                values = dict(zip("abdm", p.as_floats()), A=fam.A, B=fam.B, D=fam.D, v=fam.v)
                assert max(abs(eval_poly(eq, values)) for eq in system.equations) < 1e-12


class TestPdeParams:
    @pytest.mark.parametrize("field", ["a", "b", "d", "m"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_coefficients_are_refused(self, field, value):
        values = {"a": 0.0, "b": 1.0, "d": 1.0, "m": 0.5}
        values[field] = value
        with pytest.raises(ValueError):
            PdeParams(**values)
