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
least-squares Newton solver, run on all starts as one batch, finds the closed
forms again from random starts.  That is evidence that they are the only real
roots of the system, not a proof: a search from finitely many starts can miss
a root.
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
PARAMETERS = ("a", "b", "d", "m")  # the symbols solve_numeric binds to numbers
PERTURBABLE = ("A", "B", "D", "v")  # closed-form values back_substitute_generic can offset

NEWTON_MAX_STEPS = 200
NEWTON_HALVINGS = 20  # the line search tries the damping 1, 1/2, ... 2**-19
_DAMPINGS = 0.5 ** np.arange(1, NEWTON_HALVINGS)  # those after the full step
NORMAL_MIN_RATIO = 1e-10  # a step uses pinv(J) unless _normal_inverse bounds the ratio above this
NEWTON_RESIDUAL_ACCEPT = 1e-10
ROOT_DEDUP_TOL = 1e-8


class NoRealSolution(ValueError):
    """Parameters admit no real elliptic solution of this family."""


class DegenerateEquation(ValueError):
    """b = 0 degenerates the equation to KdV; the cn/dn ansatz does not apply."""


class NonFiniteSolution(ValueError):
    """The closed form overflows: A, B, D or v is not a finite float."""


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
    if not all(map(math.isfinite, (math.sqrt(m) * amp, amp, D, v))):
        raise NonFiniteSolution("the closed form overflows: |A| = %r, |B| = %r, D = %r, v = %r"
                                % (math.sqrt(m) * amp, amp, D, v))
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


@functools.cache
def _structure(system: AlgebraicSystem) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                                 int, np.ndarray]:
    """What binding a, b, d, m and evaluating F and G = [F; J^T] of system
    need, built once per system.

    names are the unknowns, and row j of the exponent matrix E holds their
    powers in the j-th monomial of the unknowns that the system uses.  Term k
    of the equations adds coef[k] * a**P[k, 0] * b**P[k, 1] * d**P[k, 2] *
    m**P[k, 3] to entry flat[k] of the (equations, monomials) coefficient
    matrix.  top is the highest power of an unknown.  The table of the
    powers x**0 .. x**top of the points is laid out (power, unknown, point)
    and read by rows: the factor of unknown k to the power e is row e*n + k.
    rows[k, r, j] is the row of unknown k's factor in the j-th monomial of
    row r of the stacked exponents [E; E - e_1; ...; E - e_n] of G (clipped
    at 0, where C * E[:, k] is 0); F's are rows[:, 0]."""
    names = tuple(s for s in system.unknowns if s not in PARAMETERS)
    columns: dict[tuple[int, ...], int] = {}
    terms = []
    for i, eq in enumerate(system.equations):
        for mono, coef in eq.terms.items():
            powers = dict.fromkeys((*PARAMETERS, *names), 0)
            for s, e in mono:
                if s not in powers:
                    raise UnboundSymbolError("symbol %r is unbound" % (s,))
                powers[s] = e
            exponents = tuple(powers.values())
            j = columns.setdefault(exponents[len(PARAMETERS) :], len(columns))
            terms.append((i, j, float(coef), exponents[: len(PARAMETERS)]))
    n = len(names)
    E = np.array(list(columns), dtype=int).reshape(len(columns), n)
    flat = np.array([i * len(columns) + j for i, j, _, _ in terms], dtype=int)
    coef = np.array([c for _, _, c, _ in terms])
    P = np.array([powers for _, _, _, powers in terms], dtype=int).reshape(len(terms), len(PARAMETERS))
    stacked_E = np.concatenate([E[None], np.maximum(E[None] - np.eye(n, dtype=int)[:, None, :], 0)])
    rows = stacked_E.transpose(2, 0, 1) * n + np.arange(n)[:, None, None]
    return names, E, flat, coef, P, int(E.max(initial=0)), rows


def _bind(system: AlgebraicSystem, p: PdeParams) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The unknowns, and the equations with a, b, d, m bound, as F(x) = C @ x**E.

    C[i, j] is the float coefficient in equation i of the j-th monomial of
    the unknowns (see _structure)."""
    names, E, flat, coef, P, *_ = _structure(system)
    value = coef
    for k, number in enumerate(p.as_floats()):
        value = value * number ** P[:, k]
    shape = (len(system.equations), len(E))
    C = np.bincount(flat, weights=value, minlength=shape[0] * shape[1]).reshape(shape)
    return names, C, E


def _normal_inverse(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of the stacked normal matrices N, and which of them are
    well conditioned.

    N counts as well conditioned when |N|_1 * |N^-1|_1 * NORMAL_MIN_RATIO < 1,
    |X|_1 being the sum of the absolute values of the entries.  For a
    symmetric positive definite N, lambda_max <= tr(N) <= |N|_1 and
    1/lambda_min <= tr(N^-1) <= |N^-1|_1, so every matrix this test accepts
    has an eigenvalue ratio above NORMAL_MIN_RATIO.  Unlike the traces, the
    sums cancel nothing when a nearly singular N rounds to an indefinite
    matrix, whose computed inverse can have a small or negative trace.  An
    exactly singular matrix of the stack gets a NaN inverse, which fails the
    test."""
    try:
        inv = np.linalg.inv(N)
    except np.linalg.LinAlgError:  # the stacked call fails for all if one is singular
        inv = np.full_like(N, np.nan)
        for k, matrix in enumerate(N):
            try:
                inv[k] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
    size = np.abs(N).sum(axis=(1, 2)) * np.abs(inv).sum(axis=(1, 2))
    return inv, size * NORMAL_MIN_RATIO < 1.0


def _polynomial_map(system: AlgebraicSystem, C: np.ndarray):
    """fval and fjac of F(x) = C @ x**E, E being the exponent matrix of
    system, the monomials gathered from one table of the powers x**0 .. x**top
    (_structure).

    fval(x) is F at every point of a stack x[..., n], equations first:
    fval(x)[i, ...] is F_i.  fjac(x) is G = [F; J^T] at every row of a
    (points, n) array: G[s, 0, :] = F(x[s]) and G[s, 1 + k, :] = dF/dx_k =
    (C * E[:, k]) @ x[s]**(E - e_k).  It takes all n + 1 rows from the
    stacked exponents [E; E - e_1; ...; E - e_n] and coefficients
    [C; C * E[:, 1]; ...; C * E[:, n]]."""
    names, E, _, _, _, top, rows = _structure(system)
    n = len(names)
    stacked_C = np.concatenate([C[None], C[None] * E.T[:, None, :]])

    def monomials(xt: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """The monomials whose factors are the table rows factors, at every
        column of the (n, points) array xt.  With the factor axis leading and
        the points trailing, the product over the factors and the coefficient
        matmul each run on whole rows."""
        powers = np.empty((top + 1, n, xt.shape[1]))
        powers[0] = 1.0
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * xt
        return np.multiply.reduce(np.take(powers.reshape((top + 1) * n, -1), factors, axis=0), axis=0)

    def fval(x: np.ndarray) -> np.ndarray:
        return (C @ monomials(x.reshape(-1, n).T, rows[:, 0])).reshape((len(C),) + x.shape[:-1])

    def fjac(x: np.ndarray) -> np.ndarray:
        return (stacked_C @ monomials(x.T, rows)).transpose(2, 0, 1)

    return fval, fjac


@functools.cache
def _unit_starts(seeds: int, n: int) -> np.ndarray:
    """The starts of solve_numeric in the unit cube: seeds rows of n draws of
    a generator seeded with 0.  lo + (hi - lo) * u is what the generator's
    uniform(lo, hi) gives, bit for bit.  Drawn once per process and shared,
    so read-only."""
    u = np.random.default_rng(0).random((seeds, n))
    u.flags.writeable = False
    return u


def solve_numeric(
    system: AlgebraicSystem,
    p: PdeParams,
    seeds: int = 32,
) -> list[np.ndarray]:
    """Multi-start damped least-squares Newton on the overdetermined system.

    Equations are pre-bound with the numeric a, b, d, m into one float
    coefficient matrix over the monomials of the unknowns (the system's
    unknown symbols: A, B, D, v for the first-order ansatz).  The roots
    A = +-sqrt(3dm/2b) close onto a double root as m -> 0, and B = +-sqrt(3d/2b)
    as d -> 0, so for m != 0 the search runs on A in units of sqrt|dm/b| and
    on B in units of sqrt|d/b|, and each equation whose coefficients are then
    all below 1 in magnitude is divided by its largest one; m = 0, b = 0 and
    d = 0 keep the unscaled equations.
    The starts, drawn once per process from a generator seeded with 0
    (_unit_starts) and stretched over the start range, run as one batch.  Each
    step takes G = [F; J^T] of every active start from one table of powers
    (_polynomial_map) and its Gram matrix G G^T, whose blocks are |F|^2,
    J^T F and the normal matrix J^T J.  The Gauss-Newton step comes from the
    stacked inverses of the normal matrices; a start whose normal matrix is
    ill-conditioned (_normal_inverse) takes the pseudo-inverse step instead.
    The line search tries the full step of every start, then the damping
    1/2, ... 2**-19 of the starts whose full step did not lower their
    residual norm, and takes the first damping that does.  Roots with
    residual norm below 1e-10 are kept, less those within 1e-8 of an earlier
    one, and returned sorted lexicographically on their values rounded to
    1e-9, far above the noise of the last bits, so that roots with the same A
    sort by B; the residual norm, distance and rounding are taken in the
    scaled units.
    """
    if seeds < 16:
        raise ValueError("seeds must be >= 16 for meaningful coverage")
    a, b, d, m = p.as_floats()
    names, C, E = _bind(system, p)
    n = len(names)
    unit = np.ones(n)
    amplitude = math.sqrt(abs(d * m / b)) if b else 0.0
    if "A" in names and 0.0 < amplitude < math.inf:
        unit[names.index("A")] = amplitude
        size = math.sqrt(abs(d / b))
        if "B" in names and 0.0 < size < math.inf:
            unit[names.index("B")] = size
        C = C * np.prod(unit**E, axis=1)
        # no equation is scaled down, so the residual tests are no weaker than
        # on the equations as derived; one that underflows to 0 stays 0
        largest = np.max(np.abs(C), axis=1, keepdims=True)
        C = C / np.where(largest > 0.0, np.minimum(largest, 1.0), 1.0)
    fval, fjac = _polynomial_map(system, C)

    scale = max(1.0, math.sqrt(abs(1.5 * d / b)) if b else 1.0, abs(a / (2 * b)) if b else 1.0)
    lo, hi = -3.0 * scale, 3.0 * scale
    if not hi - lo < math.inf:
        raise NonFiniteSolution("the start range of the numeric search overflows (scale %r)" % (scale,))
    x = lo + (hi - lo) * _unit_starts(seeds, n)
    fx = np.empty((seeds, len(C)))
    # the active starts, their points, their G and its Gram matrix G G^T; x
    # and fx take a start's point and residuals when it stops
    active, x_act, G = np.arange(seeds), x, fjac(x)
    gram = G @ G.transpose(0, 2, 1)

    def stop(ended: np.ndarray) -> None:
        x[active[ended]], fx[active[ended]] = x_act[ended], G[ended, 0]

    for _ in range(NEWTON_MAX_STEPS):
        going = gram[:, 0, 0] >= 1e-13**2  # a start with a NaN residual stops too
        if not going.all():
            stop(~going)
            active, x_act, G, gram = (v[going] for v in (active, x_act, G, gram))
            if not active.size:
                break
        norm2 = gram[:, 0, 0]
        inv, well = _normal_inverse(gram[:, 1:, 1:])
        if well.all():
            step = (inv @ gram[:, 1:, :1])[..., 0]
        else:
            step = np.empty((active.size, n))
            step[well] = (inv[well] @ gram[well, 1:, :1])[..., 0]
            J = G[~well, 1:].transpose(0, 2, 1)
            step[~well] = (np.linalg.pinv(J) @ G[~well, 0, :, None])[..., 0]
        x_new = x_act - step
        G_new = fjac(x_new)
        gram_new = G_new @ G_new.transpose(0, 2, 1)
        moved = gram_new[:, 0, 0] < norm2
        if not moved.all():  # the starts whose full step failed try its halvings
            back = np.flatnonzero(~moved)
            x_try = x_act[back, None, :] - _DAMPINGS[None, :, None] * step[back, None, :]
            f_try = fval(x_try)
            lower = np.einsum("ibh,ibh->bh", f_try, f_try) < norm2[back, None]
            x_new[back] = x_try[np.arange(back.size), lower.argmax(axis=1)]
            G_back = fjac(x_new[back])
            G_new[back], gram_new[back] = G_back, G_back @ G_back.transpose(0, 2, 1)
            moved[back] = lower.any(axis=1)  # a start whose every damping failed stops
            if not moved.all():
                stop(~moved)
                active, x_new, G_new, gram_new = (v[moved] for v in (active, x_new, G_new, gram_new))
        x_act, G, gram = x_new, G_new, gram_new
    x[active], fx[active] = x_act, G[:, 0]
    found = x[np.sqrt((fx * fx).sum(axis=1)) < NEWTON_RESIDUAL_ACCEPT]
    gap = found[:, None] - found[None]
    near = np.sqrt((gap * gap).sum(axis=2)) < ROOT_DEDUP_TOL
    roots = found[~np.tril(near, -1).any(axis=1)]
    order = sorted(range(len(roots)), key=np.round(roots, 9).tolist().__getitem__)
    return [roots[i] * unit for i in order]
