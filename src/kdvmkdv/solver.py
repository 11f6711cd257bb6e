"""Closed-form solution families and their exact / numeric verification.

The n=1 system is solved by

    v = (2*b*d*(1+m) - a^2) / (4*b)        D = -a/(2*b)
    A = +-sqrt(3*d*m / (2*b))              B = +-sqrt(3*d / (2*b))

giving four families from the two independent sign choices.  Realness needs
b*d > 0 and m > 0.  Back-substitution is carried out exactly in the ring
extended by the formal square roots sqrtm = sqrt(m), sqrtq = sqrt(3d/(2b)),
the formal inverse binv = 1/b and the formal signs sgnA, sgnB of A and B: one
substitution of the closed forms, each shifted by its own offset symbol
(A -> sgnA*sqrtm*sqrtq + A, ..., v -> (b*d*(1+m)/2 - a^2/4)*binv + v), then
one monomial-wise reduction by sqrtm^2 -> m, sqrtq^2 -> (3/2)*d*binv,
b*binv -> 1, sgnA^2 -> 1 and sgnB^2 -> 1, once per system and process.  No
rule involves A, B, D or v, so putting numbers in for the offsets commutes
with the reduction: the unperturbed residuals put in 0, a perturbation its
rational offsets, and neither substitutes nor reduces again.  That one
reduction serves all four families: each family's residuals follow by
substituting its signs (and rational parameters) into it, so the verdict
"all seven equations reduce to the zero polynomial" carries no
floating-point tolerance.  An independent multi-start
least-squares Newton solver, run on all starts as one batch, confirms the
closed forms are the only real roots of the system.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
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
NEWTON_HALVINGS = 20  # the line search tries the damping 1, 1/2, ... 2**-19
NORMAL_MIN_RATIO = 1e-10  # below this eigenvalue ratio of J^T J, a step uses pinv(J)
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
        if kq:  # an integer coefficient stays an int where no sqrtq^2 is reduced
            coef = coef * Fraction(3, 2) ** kq
        out = out + ParamPoly.monomial(coef, **powers)
    return out


def back_substitute_generic(
    system: AlgebraicSystem, perturb: dict[str, Fraction] | None = None
) -> tuple[ParamPoly, ...]:
    """Substitute the closed forms of all four families into every equation at once.

    A = sgnA*sqrtm*sqrtq and B = sgnB*sqrtq carry formal signs, and the
    residuals are reduced to normal form in a, b, d, m, binv = 1/b, the formal
    roots sqrtm, sqrtq and the signs sgnA, sgnB (each to the power 0 or 1).
    `specialize` turns them into the residuals of one family.  perturb adds
    exact offsets to chosen closed-form values of A, B, D, v, e.g.
    {"v": Fraction(1, 10)}: they are put into the shifted residuals, with 0
    for each name not given.  The unperturbed residuals of a system are
    computed once per process and shared by every caller.
    """
    if not perturb:
        return _generic_residuals(system)
    offsets = dict.fromkeys(PERTURBABLE, 0)
    for name, delta in perturb.items():
        if name not in offsets:
            raise KeyError("cannot perturb unknown symbol %r" % (name,))
        offsets[name] = Fraction(delta)
    return tuple(r.substitute(offsets) for r in _shifted_residuals(system))


@functools.cache
def _generic_residuals(system: AlgebraicSystem) -> tuple[ParamPoly, ...]:
    return tuple(r.substitute(dict.fromkeys(PERTURBABLE, 0)) for r in _shifted_residuals(system))


@functools.cache
def _shifted_residuals(system: AlgebraicSystem) -> tuple[ParamPoly, ...]:
    """The residuals of the closed forms shifted by the offset symbols A, B, D, v.

    No reduction rule involves A, B, D or v, so putting numbers in for them
    commutes with taking the normal form: one reduction per system serves
    every perturbation."""
    a, b, d, m, binv, sqrtm, sqrtq, sgn_a, sgn_b = map(
        ParamPoly.symbol, ("a", "b", "d", "m", BINV, SQRT_M, SQRT_Q, SGN_A, SGN_B)
    )
    A, B, D, v = map(ParamPoly.symbol, PERTURBABLE)
    values = {
        "A": sgn_a * sqrtm * sqrtq + A,
        "B": sgn_b * sqrtq + B,
        "D": Fraction(-1, 2) * a * binv + D,
        "v": (Fraction(1, 2) * b * d * (1 + m) - Fraction(1, 4) * a * a) * binv + v,
    }
    return tuple(_reduce(eq.substitute(values)) for eq in system.equations)


def specialize(
    residuals: Sequence[ParamPoly],
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
) -> list[np.ndarray]:
    """Multi-start damped least-squares Newton on the overdetermined system.

    Equations are pre-bound with the numeric a, b, d, m into one float
    coefficient matrix over the monomials of the unknowns (the system's
    unknown symbols: A, B, D, v for the first-order ansatz).  The starts,
    drawn from a generator seeded with 0, run as one batch.  Each step
    evaluates F and J for every active start from one table of powers and
    takes the Gauss-Newton step from one stacked solve of the normal
    equations; a start whose normal matrix is ill-conditioned (smallest over
    largest eigenvalue below NORMAL_MIN_RATIO) takes the pseudo-inverse step
    instead.  The line search tries the damping 1, 1/2, ... 2**-19 of every
    start at once and takes the first that lowers its residual norm.  Roots
    with residual norm below 1e-10 are kept, less those within 1e-8 of an
    earlier one, and returned sorted lexicographically on their values
    rounded to 1e-9, far above the noise of the last bits, so that roots
    with the same A sort by B.
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
    unknown = np.arange(n)
    top = int(E.max(initial=0))

    def monomials(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        """x[..., i]**exponents[..., j, i] multiplied over i, gathered from x**0..x**top."""
        powers = np.empty(x.shape + (top + 1,))
        powers[..., 0] = 1.0
        for k in range(1, top + 1):
            powers[..., k] = powers[..., k - 1] * x
        return np.prod(powers[..., unknown, exponents], axis=-1)

    def fval(x: np.ndarray) -> np.ndarray:
        return monomials(x, E) @ C.T

    def jval(x: np.ndarray) -> np.ndarray:
        return np.einsum("kij,skj->sik", dC, monomials(x, dE))

    damping = 0.5 ** np.arange(NEWTON_HALVINGS)
    scale = max(1.0, math.sqrt(abs(1.5 * d / b)) if b else 1.0, abs(a / (2 * b)) if b else 1.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0 * scale, 3.0 * scale, size=(seeds, n))
    fx = fval(x)
    active = np.arange(seeds)
    for _ in range(NEWTON_MAX_STEPS):
        norm = np.linalg.norm(fx[active], axis=1)
        active, norm = active[norm >= 1e-13], norm[norm >= 1e-13]
        if not active.size:
            break
        J, f = jval(x[active]), fx[active]
        JtJ = np.einsum("sik,sil->skl", J, J)
        Jtf = np.einsum("sik,si->sk", J, f)
        eig = np.linalg.eigvalsh(JtJ)  # ascending
        well = eig[:, 0] > NORMAL_MIN_RATIO * eig[:, -1]
        step = np.empty_like(Jtf)
        if well.any():
            step[well] = np.linalg.solve(JtJ[well], Jtf[well, :, None])[..., 0]
        if not well.all():
            step[~well] = np.einsum("sij,sj->si", np.linalg.pinv(J[~well]), f[~well])
        x_try = x[active, None, :] - damping[None, :, None] * step[:, None, :]
        f_try = fval(x_try)
        lower = np.linalg.norm(f_try, axis=2) < norm[:, None]
        moved = lower.any(axis=1)  # a start whose every damping failed stops
        first = lower.argmax(axis=1)[moved]
        active = active[moved]
        x[active], fx[active] = x_try[moved, first], f_try[moved, first]
    found = x[np.linalg.norm(fx, axis=1) < NEWTON_RESIDUAL_ACCEPT]
    near = np.linalg.norm(found[:, None, :] - found[None, :, :], axis=2) < ROOT_DEDUP_TOL
    roots = list(found[~np.tril(near, -1).any(axis=1)])
    roots.sort(key=lambda r: tuple(np.round(r, 9)))
    return roots
