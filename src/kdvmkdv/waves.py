"""Explicit wave profiles, the hyperbolic limit, and velocity laws.

The constant-coefficient wave is u(x,t) = A*cn(xi,m) + B*dn(xi,m) + D with
xi = x - v*t.  When the u_t coefficient is a time function f(t), the same
profile travels with a time-dependent speed v(t) governed by

    v + t*dv/dt = C*h(t),        h = 1/f,   C = (2*b*d*(1+m) - a^2)/(4*b)

equivalently d(t*v)/dt = C*h(t), which we integrate from a reference time
t_ref (the law is singular at t = 0).  A literal transcription of the
published exponential-kernel formula is kept alongside for comparison; it
solves v + dv/dt = C*h instead and generally violates the constraint above,
which the toolkit reports rather than hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import elliptic
from .solver import SolutionFamily

_GL5_NODES = np.array(
    [-0.906179845938664, -0.538469310105683, 0.0, 0.538469310105683, 0.906179845938664]
)
_GL5_WEIGHTS = np.array(
    [0.236926885056189, 0.478628670499366, 0.568888888888889, 0.478628670499366, 0.236926885056189]
)


class CoefficientSingularity(ValueError):
    """The time coefficient f(t) vanishes on the requested interval."""


# Acceptance tolerance of one piece in the cumulative quadrature, a tenth of
# quad's contract of 1e-12 absolute and relative on each integral, because
# the whole-against-halves estimate can fall below a piece's error before the
# rule converges (see _panel_integrals).
_QUAD_TOL = 1e-13
# Pieces the quadrature may bisect at once beyond the panels it was given.
_MAX_BISECTED = 4096
_EPS = float(np.finfo(float).eps)
# Largest relative rounding error of f (Coefficient.value_error) the
# quadrature accepts: where f is evaluated less accurately it is too close to
# zero, and an integral near it would be off by as much.
_MAX_VALUE_ERROR = 1e-9


def _times(t):
    """An array of times as a float ndarray; a scalar time as it is."""
    return np.asarray(t, dtype=float) if np.ndim(t) else t


def _exp(x):
    return np.exp(x) if np.ndim(x) else math.exp(x)


def _not_converging(where: str) -> CoefficientSingularity:
    return CoefficientSingularity(
        "coefficient singularity: the velocity-law quadrature does not converge %s; "
        "f is too close to zero or too rough there" % (where,)
    )


def _panel_integrals(fn, a: np.ndarray, b: np.ndarray, fn_error) -> np.ndarray:
    """Integral of fn over each panel [a_i, b_i] by adaptive 5-point
    Gauss-Legendre, with one vectorised fn call per round for all pieces.

    Each round compares the rule on a piece with the sum of the rule on its
    two halves, and takes the halves when the two differ by at most
    _QUAD_TOL * max(width / L, integral of |fn| over the piece), L the total
    width, plus the noise of the two estimates: the integrals of
    |fn| * fn_error, where fn_error(t) bounds the relative error of fn(t).
    Summed over the pieces of any integral that is at most
    _QUAD_TOL * (1 + integral of |fn|) plus that noise.  The relative term is
    also the round-off floor: the two estimates cannot agree closer than a
    few ulps of the integral of |fn|.  Other pieces are bisected for the next
    round.  A non-finite value, a relative error of fn above
    _MAX_VALUE_ERROR, a piece too narrow to bisect, or more than
    _MAX_BISECTED pieces to bisect beyond the panels given raise
    CoefficientSingularity.
    """
    total = np.zeros(a.size)
    owner = np.arange(a.size)
    span = float(np.sum(b - a))
    limit = a.size + _MAX_BISECTED
    while a.size:
        if a.size > limit:
            raise _not_converging("on [%.6g, %.6g]" % (a.min(), b.max()))
        m = 0.5 * (a + b)
        lo, hi = np.concatenate((a, a, m)), np.concatenate((b, m, b))
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL5_NODES
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = fn(nodes.ravel()).reshape(nodes.shape)
        if not np.all(np.isfinite(y)):
            raise CoefficientSingularity(
                "coefficient singularity: the integrand is not finite at t=%.6g" % (nodes[~np.isfinite(y)][0],)
            )
        rel = fn_error(nodes)
        if np.any(rel > _MAX_VALUE_ERROR):
            raise CoefficientSingularity(
                "coefficient singularity: f is too close to zero near t=%.6g to be evaluated to %.0e"
                % (nodes[rel > _MAX_VALUE_ERROR][0], _MAX_VALUE_ERROR)
            )
        y_abs = np.abs(y)
        q, q_abs = half * (y @ _GL5_WEIGHTS), half * (y_abs @ _GL5_WEIGHTS)
        noise = half * ((y_abs * rel) @ _GL5_WEIGHTS)
        n = a.size
        halves = q[n:2 * n] + q[2 * n:]
        tol = (_QUAD_TOL * np.maximum((b - a) / span, q_abs[n:2 * n] + q_abs[2 * n:])
               + noise[:n] + noise[n:2 * n] + noise[2 * n:])
        done = np.abs(q[:n] - halves) <= tol
        total += np.bincount(owner[done], weights=halves[done], minlength=total.size)
        a, b, m, owner = a[~done], b[~done], m[~done], owner[~done]
        narrow = (m <= a) | (m >= b)
        if np.any(narrow):
            raise _not_converging("near t=%.6g" % (a[narrow][0],))
        a, b, owner = np.concatenate((a, m)), np.concatenate((m, b)), np.concatenate((owner, owner))
    return total


def _cumulative_integral(fn, t0, t1, breakpoints, fn_error):
    """Integral of fn from t0 to t1; t0 and t1 are scalars or arrays that
    broadcast together.  Every end point and every breakpoint between them
    bounds a panel, so one cumulative sum over the panels gives all the
    integrals, and no panel straddles a breakpoint.  The sum carries the
    rounding error of each addition (TwoSum) beside it, so an integral
    between two late times keeps the accuracy of its panels; a plain sum
    would lose the ulps of the whole sum, n*eps relative for one of n
    consecutive steps."""
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    ends = np.concatenate((t0.ravel(), t1.ravel()))
    knots = np.asarray(breakpoints, dtype=float)
    edges = np.unique(np.concatenate((ends, knots[(knots > ends.min()) & (knots < ends.max())])))
    panels = _panel_integrals(fn, edges[:-1], edges[1:], fn_error)
    hi = np.concatenate(([0.0], np.cumsum(panels)))
    added = hi[1:] - hi[:-1]
    lo = np.concatenate(([0.0], np.cumsum((hi[:-1] - (hi[1:] - added)) + (panels - added))))
    i, j = np.searchsorted(edges, t0), np.searchsorted(edges, t1)
    out = (hi[j] - hi[i]) + (lo[j] - lo[i])
    return out if out.ndim else float(out)


class Coefficient:
    """A time coefficient f(t) with h = 1/f.  Subclasses give value(t); the
    integrals of h default to a cumulative quadrature that splits at
    `breakpoints`, and kinds with closed forms override them.  integral_h
    and exp_kernel_antiderivative take scalar or array times.  f must be
    smooth between breakpoints: a jump or kink elsewhere can slip past the
    quadrature's error estimate."""

    breakpoints: tuple[float, ...] = ()

    def _check(self, t0, t1) -> None:
        """Raise CoefficientSingularity if f vanishes between the least and
        the greatest of the times t0, t1."""

    def value_error(self, t):
        """A bound on the relative rounding error of value(t), which the
        quadrature accepts as noise: none beyond an ulp by default."""
        return 0.0

    def integral_h(self, t0, t1):
        """Integral of h from t0 to t1, elementwise for arrays."""
        self._check(t0, t1)
        return _cumulative_integral(lambda s: 1.0 / self.value(s), t0, t1, self.breakpoints, self.value_error)

    def exp_kernel_antiderivative(self, t, t_ref: float):
        """An antiderivative of e^s*h(s) at t; without a closed form it is the
        integral from t_ref."""
        self._check(t_ref, t)
        return _cumulative_integral(lambda s: np.exp(s) / self.value(s), t_ref, t, self.breakpoints,
                                    self.value_error)


@dataclass(frozen=True)
class UnitCoefficient(Coefficient):
    """f(t) = 1 (constant-coefficient equation)."""

    def value(self, t):
        return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0

    def integral_h(self, t0, t1):
        return t1 - t0

    def exp_kernel_antiderivative(self, t, t_ref: float):
        # antiderivative of e^s * h(s) = e^s
        return _exp(t)


@dataclass(frozen=True)
class ExponentialCoefficient(Coefficient):
    """f(t) = exp(rate * t)."""

    rate: float

    def value(self, t):
        return _exp(self.rate * _times(t))

    def integral_h(self, t0, t1):
        r = self.rate
        if r == 0.0:
            return t1 - t0
        return (_exp(-r * t0) - _exp(-r * t1)) / r

    def exp_kernel_antiderivative(self, t, t_ref: float):
        # antiderivative of e^((1-rate)*s)
        c = 1.0 - self.rate
        if c == 0.0:
            return t
        return _exp(c * t) / c


@dataclass(frozen=True)
class PolynomialCoefficient(Coefficient):
    """f(t) = c0 + c1*t + c2*t^2 + ..."""

    coeffs: tuple[float, ...]

    def value(self, t):
        return np.polyval(self.coeffs[::-1], np.asarray(t, dtype=float)) if np.ndim(t) else float(
            np.polyval(self.coeffs[::-1], t)
        )

    def value_error(self, t):
        """Horner's bound, degree * eps * sum |c_k t^k| / |f(t)| (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 5.1):
        near a minimum of f close to zero the terms cancel, and f loses
        digits the quadrature cannot recover."""
        bound = np.polyval(np.abs(self.coeffs[::-1]), np.abs(t))
        return (len(self.coeffs) - 1) * _EPS * bound / np.abs(self.value(t))

    def _check(self, t0, t1):
        lo, hi = min(np.min(t0), np.min(t1)), max(np.max(t0), np.max(t1))
        roots = np.roots(self.coeffs[::-1]) if len(self.coeffs) > 1 else np.array([])
        for r in roots:
            if abs(r.imag) < 1e-12 and lo - 1e-12 <= r.real <= hi + 1e-12:
                raise CoefficientSingularity(
                    "coefficient singularity: f vanishes near t=%.6g" % (r.real,)
                )
        if len(self.coeffs) == 1 and self.coeffs[0] == 0.0:
            raise CoefficientSingularity("coefficient singularity: f is identically zero")


@dataclass(frozen=True)
class TabulatedCoefficient(Coefficient):
    """f(t) sampled at (times, values), monotone-cubic interpolated.  Times
    outside the table are refused; a slack of 1e-12 relative to the knots
    admits the rounding of a run's last step or snapshot time, t0 + n*dt or
    t0 + T, when it ends on the last knot."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    @cached_property
    def _spline(self):
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(np.asarray(self.times), np.asarray(self.values))

    def value(self, t):
        lo, hi = self.times[0], self.times[-1]
        slack = 1e-12 * max(abs(lo), abs(hi))
        t_min, t_max = (np.min(t), np.max(t)) if np.ndim(t) else (t, t)
        if t_min < lo - slack or t_max > hi + slack:
            bad = t_min if t_min < lo - slack else t_max
            raise ValueError("t=%g is outside the table of f, which covers [%g, %g]" % (bad, lo, hi))
        out = self._spline(t)
        return out if np.ndim(t) else float(out)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The knots, where the interpolant's second derivative may jump."""
        return self.times

    def _check(self, t0, t1):
        lo, hi = min(np.min(t0), np.min(t1)), max(np.max(t0), np.max(t1))
        fs = self.value(np.linspace(lo, hi, 257))
        if np.any(np.abs(fs) < 1e-14) or np.any(np.diff(np.sign(fs)) != 0):
            raise CoefficientSingularity("coefficient singularity: tabulated f vanishes in range")


def parse_coefficient(spec: str) -> Coefficient:
    """Parse a textual descriptor: 'unit', 'exp:R', 'poly:c0,c1,...', 'tab:t0:f0,t1:f1,...'."""
    if spec == "unit" or spec == "1":
        return UnitCoefficient()
    kind, _, rest = spec.partition(":")
    if kind == "exp":
        return ExponentialCoefficient(rate=float(rest))
    if kind == "poly":
        return PolynomialCoefficient(coeffs=tuple(float(c) for c in rest.split(",")))
    if kind == "tab":
        pairs = [p.split(":") for p in rest.split(",")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError("tabulated coefficient %r: each entry must be a t:f pair" % (spec,))
        return TabulatedCoefficient(
            times=tuple(float(p[0]) for p in pairs), values=tuple(float(p[1]) for p in pairs)
        )
    raise ValueError("unknown coefficient descriptor %r" % (spec,))


@dataclass(frozen=True)
class VelocityLaw:
    """Phase-speed law d(t*v)/dt = C*h(t), anchored by v(t_ref) = v0.  The
    constant law v = C is f = 1 anchored at t_ref = 0."""

    C: float
    f: Coefficient = UnitCoefficient()
    v0: float = 0.0
    t_ref: float = 0.0

    @classmethod
    def constant(cls, C: float) -> "VelocityLaw":
        return cls(C=C)

    @classmethod
    def time_dependent(cls, C: float, f: Coefficient, v0: float, t_ref: float = 1.0) -> "VelocityLaw":
        if t_ref <= 0.0:
            raise ValueError("t_ref must be positive (the law degenerates at t=0)")
        return cls(C=C, f=f, v0=v0, t_ref=t_ref)


def wave_position(law: VelocityLaw, t):
    """Phase position X(t) = t_ref*v0 + C*int_{t_ref}^t h of the crest that
    starts at x = 0; X(t) = C*t exactly for the constant law."""
    return law.t_ref * law.v0 + law.C * law.f.integral_h(law.t_ref, _times(t))


def velocity_at(law: VelocityLaw, t) -> float | np.ndarray:
    """Speed from the defining constraint: v(t) = X(t)/t, for t >= t_ref."""
    t = _times(t)
    if np.min(t) < law.t_ref:
        raise ValueError("time-dependent law defined for t >= t_ref=%g" % (law.t_ref,))
    return wave_position(law, t) / t


def velocity_paper_form(law: VelocityLaw, t) -> float | np.ndarray:
    """Literal published formula v = C*e^{-t}*(int^t e^s/f(s) ds + v0).

    The indefinite integral is read as the plain antiderivative when one is
    available in closed form (unit and exponential f); otherwise it is taken
    from t_ref, which merely re-parameterizes the free constant v0.
    """
    t = _times(t)
    F = law.f.exp_kernel_antiderivative(t, law.t_ref)
    return law.C * _exp(-t) * (F + law.v0)


# Fourth-order first-derivative stencils (offsets in steps, weights): central,
# and forward for times within two steps of t_ref.
_CENTRAL_STENCIL = (np.arange(-2.0, 3.0), np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0)
_FORWARD_STENCIL = (np.arange(0.0, 5.0), np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0)


def constraint_residual(law: VelocityLaw, t, form: str = "constraint", dt: float = 2.0**-17):
    """|v + t*dv/dt - C*h(t)| with dv/dt by fourth-order differences; 'form'
    picks the quadrature law ('constraint') or the published formula
    ('paper').  The speed at every stencil point comes from one call.

    The stencil errs by about dt^4 * C times the fourth derivative of h, which
    stays below the check's 1e-7 where h varies fast: next to a minimum 1e-4
    of f a second-order stencil errs by 5e-3.  dt is a power of two, so the
    stencil points t + k*dt are exact: a rounded point would shift v by
    dv/dt * ulp(t), which next to that minimum the stencil turns into 1e-6.
    Times within 2*dt of t_ref take the forward stencil, which keeps the
    evaluation inside [t_ref, inf).
    """
    vf = velocity_at if form == "constraint" else velocity_paper_form
    t = _times(t)
    central = t - 2.0 * dt >= law.t_ref
    axis = (slice(None),) + (None,) * np.ndim(t)
    offsets, weights = (np.where(central, c[axis], f[axis]) for c, f in zip(_CENTRAL_STENCIL, _FORWARD_STENCIL))
    vs = vf(law, t + dt * offsets)
    v = np.where(central, vs[2], vs[0])
    dv = np.sum(weights * vs, axis=0) / dt
    h = 1.0 / law.f.value(t)
    res = v + t * dv - law.C * h
    return res if np.ndim(t) else float(res)


def evaluate(fam: SolutionFamily, x, t: float, law: VelocityLaw | None = None):
    """u(x, t) for the family; x scalar or ndarray."""
    if law is None:
        law = VelocityLaw.constant(fam.v)
    xi = np.asarray(x, dtype=float) - wave_position(law, t)
    sn, cn, dn = elliptic.jacobi(xi, float(fam.params.m))
    u = fam.A * cn + fam.B * dn + fam.D
    return u if np.ndim(x) else float(u)


@dataclass(frozen=True)
class SechProfile:
    """Closed-form m=1 limit: (A+B)*sech(x - v*t) + D."""

    amplitude: float
    speed: float
    offset: float

    def __call__(self, x, t: float = 0.0):
        xi = np.asarray(x, dtype=float) - self.speed * t
        u = elliptic.sech(xi, self.amplitude) + self.offset
        return u if np.ndim(x) else float(u)


def hyperbolic_limit(fam: SolutionFamily) -> SechProfile:
    """The m=1 closed form; both cn and dn degenerate to sech."""
    if float(fam.params.m) != 1.0:
        raise ValueError("hyperbolic limit requires m=1, got m=%r" % (fam.params.m,))
    return SechProfile(amplitude=fam.A + fam.B, speed=fam.v, offset=fam.D)
