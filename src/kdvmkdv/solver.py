"""Closed-form solution families and their exact / numeric verification.

The n=1 system is solved by

    v = (2*b*d*(1+m) - a^2) / (4*b)        D = -a/(2*b)
    A = +-sqrt(3*d*m / (2*b))              B = +-sqrt(3*d / (2*b))

giving four families from the two independent sign choices.  Realness needs
b*d > 0 and m > 0.  Back-substitution is carried out exactly in the ring
extended by the formal square roots sqrtm = sqrt(m), sqrtq = sqrt(3d/(2b)),
the formal inverse binv = 1/b and the formal signs sgnA, sgnB of A and B: one
substitution of the closed forms, then one monomial-wise reduction by
sqrtm^2 -> m, sqrtq^2 -> (3/2)*d*binv, b*binv -> 1, sgnA^2 -> 1 and
sgnB^2 -> 1.  That one reduction serves all four families: each family's
residuals follow by substituting its signs (and rational parameters) into
it, so the verdict "all seven equations reduce to the zero polynomial"
carries no floating-point tolerance.  An independent multi-start
least-squares Newton solver, run on all starts as one batch, confirms the
closed forms are the only real roots of the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ansatz import AlgebraicSystem, PdeParams
from .symexpr import FORMAL_SYMBOLS, ParamPoly, UnboundSymbolError

# the formal square roots of m and of 3d/(2b), the formal inverse of b, and the
# formal signs of A and B (sgnA^2 = sgnB^2 = 1)
SQRT_M, SQRT_Q, BINV, SGN_A, SGN_B = FORMAL_SYMBOLS

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
PERTURBABLE = ("A", "B", "D", "v")  # closed-form values back_substitute_generic can offset

NEWTON_MAX_STEPS = 200
NEWTON_RESIDUAL_ACCEPT = 1e-10
ROOT_DEDUP_TOL = 1e-8


class NoRealSolution(ValueError):
    """Parameters admit no real elliptic solution of this family."""


class DegenerateEquation(ValueError):
    """b = 0 degenerates the equation to KdV; the cn/dn ansatz does not apply."""


@dataclass(frozen=True)
class SolutionFamily:
    """One closed-form solution: u = A*cn(xi,m) + B*dn(xi,m) + D, xi = x - v*t."""

    A: float
    B: float
    D: float
    v: float
    sign_A: int
    sign_B: int
    params: PdeParams

    @property
    def class_label(self) -> str:
        """The sign taxonomy (sign of A*B, sign of D) labelling the family."""
        ab = "AB>0" if self.sign_A * self.sign_B > 0 else "AB<0"
        if self.D < 0:
            dd = "D<0"
        elif self.D > 0:
            dd = "D>0"
        else:
            dd = "D=0"
        return "%s,%s" % (ab, dd)


def solve_closed_form(p: PdeParams) -> list[SolutionFamily]:
    """The four sign families, in deterministic (sign_A, sign_B) order."""
    a, b, d, m = p.as_floats()
    if b == 0.0:
        raise DegenerateEquation("b=0 degenerates to KdV, ansatz invalid")
    if m <= 0.0:
        raise NoRealSolution("elliptic parameter must satisfy m > 0")
    if b * d <= 0.0:
        raise NoRealSolution("no real elliptic solution of this class (need b*d > 0)")
    amp = math.sqrt(1.5 * d / b)
    D = -a / (2.0 * b)
    v = (2.0 * b * d * (1.0 + m) - a * a) / (4.0 * b)
    fams = []
    for sa, sb in SIGN_PAIRS:
        fams.append(
            SolutionFamily(
                A=sa * math.sqrt(m) * amp,
                B=sb * amp,
                D=D,
                v=v,
                sign_A=sa,
                sign_B=sb,
                params=p,
            )
        )
    return fams


# ---------------------------------------------------------------------------
# exact back-substitution in the extended ring
# ---------------------------------------------------------------------------


def _reduce(poly: ParamPoly) -> ParamPoly:
    """Normal form modulo sqrtm^2 -> m, sqrtq^2 -> (3/2)*d*binv, b*binv -> 1,
    sgnA^2 -> 1 and sgnB^2 -> 1.

    The leading monomials sqrtm^2, sqrtq^2, b*binv, sgnA^2 and sgnB^2 are
    pairwise coprime, so the five rules form a Groebner basis: the normal form
    is unique, and it is zero exactly when poly vanishes in the extended ring."""
    out = ParamPoly.zero()
    for mono, coef in poly.terms.items():
        powers = dict(mono)
        km, powers[SQRT_M] = divmod(powers.get(SQRT_M, 0), 2)
        kq, powers[SQRT_Q] = divmod(powers.get(SQRT_Q, 0), 2)
        powers[SGN_A] = powers.get(SGN_A, 0) % 2
        powers[SGN_B] = powers.get(SGN_B, 0) % 2
        powers["m"] = powers.get("m", 0) + km
        powers["d"] = powers.get("d", 0) + kq
        powers[BINV] = powers.get(BINV, 0) + kq
        cancel = min(powers.get("b", 0), powers[BINV])
        powers["b"] = powers.get("b", 0) - cancel
        powers[BINV] -= cancel
        out = out + ParamPoly.monomial(coef * Fraction(3, 2) ** kq, **powers)
    return out


def back_substitute_generic(
    system: AlgebraicSystem, perturb: dict[str, Fraction] | None = None
) -> list[ParamPoly]:
    """Substitute the closed forms of all four families into every equation at once.

    A = sgnA*sqrtm*sqrtq and B = sgnB*sqrtq carry formal signs, and the
    residuals are reduced to normal form in a, b, d, m, binv = 1/b, the formal
    roots sqrtm, sqrtq and the signs sgnA, sgnB (each to the power 0 or 1).
    `specialize` turns them into the residuals of one family.  perturb adds
    exact offsets to chosen closed-form values of A, B, D, v, e.g.
    {"v": Fraction(1, 10)}.
    """
    a, b, d, m, binv, sqrtm, sqrtq, sgn_a, sgn_b = map(
        ParamPoly.symbol, ("a", "b", "d", "m", BINV, SQRT_M, SQRT_Q, SGN_A, SGN_B)
    )
    values = {
        "A": sgn_a * sqrtm * sqrtq,
        "B": sgn_b * sqrtq,
        "D": Fraction(-1, 2) * a * binv,
        "v": (Fraction(1, 2) * b * d * (1 + m) - Fraction(1, 4) * a * a) * binv,
    }
    for name, delta in (perturb or {}).items():
        if name not in values:
            raise KeyError("cannot perturb unknown symbol %r" % (name,))
        values[name] = values[name] + Fraction(delta)
    return [_reduce(eq.substitute(values)) for eq in system.equations]


def specialize(
    residuals: list[ParamPoly],
    sign_A: int,
    sign_B: int,
    params: dict[str, Fraction] | None = None,
) -> list[ParamPoly]:
    """The residuals of the family (sign_A, sign_B) from `back_substitute_generic`.

    The signs, and with a rational params dict the numbers for a, b, d, m and
    binv, are substituted into the normal form; what is left is again in
    normal form, so it equals the reduction of the family's own residuals."""
    numbers = {SGN_A: sign_A, SGN_B: sign_B}
    if params is not None:
        if params["b"] == 0:
            raise DegenerateEquation("b=0 degenerates to KdV, ansatz invalid")
        numbers.update(params)
        numbers[BINV] = 1 / params["b"]
    return [r.substitute(numbers) for r in residuals]


def back_substitute_exact(
    system: AlgebraicSystem,
    params: dict[str, Fraction] | None = None,
    sign_A: int = 1,
    sign_B: int = 1,
    perturb: dict[str, Fraction] | None = None,
) -> list[ParamPoly]:
    """Substitute the closed forms of one family into every equation, exactly.

    The residuals are in normal form in a, b, d, m, binv = 1/b and the formal
    roots sqrtm, sqrtq; with a rational params dict, the numbers for a, b, d,
    m and binv are substituted into that normal form, which leaves it the
    normal form of the rational case.  A correct family reduces every
    equation to the zero polynomial.  perturb is as in
    `back_substitute_generic`.
    """
    return specialize(back_substitute_generic(system, perturb), sign_A, sign_B, params)


def residuals_numeric(family: SolutionFamily, system: AlgebraicSystem) -> list[float]:
    """Float residual of each equation at the family's values (fallback check
    for non-rational parameters; tolerance 1e-12 is the caller's contract)."""
    a, b, d, m = family.params.as_floats()
    bindings = {
        "a": a,
        "b": b,
        "d": d,
        "m": m,
        "A": family.A,
        "B": family.B,
        "D": family.D,
        "v": family.v,
    }
    return [eq.eval(bindings) for eq in system.equations]


# ---------------------------------------------------------------------------
# independent numeric root finding
# ---------------------------------------------------------------------------


def _bind(
    system: AlgebraicSystem, base: dict[str, float], names: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The equations with the numbers in base bound, as F(x) = C @ x**E.

    Row j of the exponent matrix E holds the powers of the unknowns `names` in
    the j-th monomial of the unknowns that the system uses, and C[i, j] its
    float coefficient in equation i."""
    columns: dict[tuple[int, ...], int] = {}
    entries = []
    for i, eq in enumerate(system.equations):
        for mono, coef in eq.terms.items():
            value = float(coef)
            powers = dict.fromkeys(names, 0)
            for s, e in mono:
                if s in base:
                    value *= base[s] ** e
                elif s in powers:
                    powers[s] = e
                else:
                    raise UnboundSymbolError("symbol %r is unbound" % (s,))
            j = columns.setdefault(tuple(powers.values()), len(columns))
            entries.append((i, j, value))
    C = np.zeros((len(system.equations), len(columns)))
    for i, j, value in entries:
        C[i, j] += value
    E = np.array(list(columns), dtype=int).reshape(len(columns), len(names))
    return C, E


def solve_numeric(
    system: AlgebraicSystem,
    p: PdeParams,
    seeds: int = 32,
    rng_seed: int = 0,
) -> list[np.ndarray]:
    """Multi-start damped least-squares Newton on the overdetermined system.

    Equations are pre-bound with the numeric a, b, d, m into one float
    coefficient matrix over the monomials of the unknowns (the system's
    unknown symbols: A, B, D, v for the first-order ansatz).  The starts run
    as one batch: each step evaluates F and J for every active start at once
    and solves for all of them with one stacked pseudo-inverse; the line
    search halves each start's damping separately.  Roots with residual norm
    below 1e-10 are kept, deduplicated at distance 1e-8, and returned sorted
    lexicographically on their values rounded to 1e-9, far above the noise
    of the last bits, so that roots with the same A sort by B.
    """
    if seeds < 16:
        raise ValueError("seeds must be >= 16 for meaningful coverage")
    a, b, d, m = p.as_floats()
    base = {"a": a, "b": b, "d": d, "m": m}
    names = [s for s in system.unknowns if s not in base]
    C, E = _bind(system, base, names)
    n = len(names)
    # dF/dx_k = (C * E[:, k]) @ x**(E - e_k): one lowered exponent matrix per unknown
    dC = C[None, :, :] * E.T[:, None, :]
    dE = np.maximum(E[None, :, :] - np.eye(n, dtype=int)[:, None, :], 0)

    def fval(x: np.ndarray) -> np.ndarray:
        return np.prod(x[:, None, :] ** E, axis=2) @ C.T

    def jval(x: np.ndarray) -> np.ndarray:
        return np.einsum("kij,skj->sik", dC, np.prod(x[:, None, None, :] ** dE, axis=3))

    scale = max(1.0, math.sqrt(abs(1.5 * d / b)) if b else 1.0, abs(a / (2 * b)) if b else 1.0)
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-3.0 * scale, 3.0 * scale, size=(seeds, n))
    fx = fval(x)
    active = np.arange(seeds)
    for _ in range(NEWTON_MAX_STEPS):
        norm = np.linalg.norm(fx[active], axis=1)
        active, norm = active[norm >= 1e-13], norm[norm >= 1e-13]
        if not active.size:
            break
        step = np.einsum("sij,sj->si", np.linalg.pinv(jval(x[active])), fx[active])
        lam = np.ones(active.size)
        searching = np.ones(active.size, dtype=bool)
        for _ in range(20):
            k = np.flatnonzero(searching)
            x_new = x[active[k]] - lam[k, None] * step[k]
            f_new = fval(x_new)
            better = np.linalg.norm(f_new, axis=1) < norm[k]
            accepted = active[k[better]]
            x[accepted], fx[accepted] = x_new[better], f_new[better]
            searching[k[better]] = False
            lam[k[~better]] *= 0.5
            if not searching.any():
                break
        active = active[~searching]  # a start whose 20 halvings all failed stops
    roots: list[np.ndarray] = []
    for root in x[np.linalg.norm(fx, axis=1) < NEWTON_RESIDUAL_ACCEPT]:
        if not any(np.linalg.norm(root - r) < ROOT_DEDUP_TOL for r in roots):
            roots.append(root)
    roots.sort(key=lambda r: tuple(np.round(r, 9)))
    return roots
