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


def _quad(fn, t0: float, t1: float) -> float:
    from scipy.integrate import quad  # scipy loads only when a quadrature is needed

    val, _ = quad(fn, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


class Coefficient:
    """A time coefficient f(t) with h = 1/f.  Subclasses give value(t); the
    integrals of h default to quadrature, and kinds with closed forms
    override them."""

    def _check(self, t0: float, t1: float) -> None:
        """Raise CoefficientSingularity if f vanishes on [t0, t1]."""

    def integral_h(self, t0: float, t1: float) -> float:
        self._check(t0, t1)
        return _quad(lambda s: 1.0 / self.value(s), t0, t1)

    def integral_h_step(self, t0: float, t1: float) -> float:
        """Integral of h over one short time step, by 5-point Gauss-Legendre."""
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts = mid + half * _GL5_NODES
        return float(half * np.sum(_GL5_WEIGHTS / self.value(ts)))

    def exp_kernel_antiderivative(self, t: float, t_ref: float) -> float:
        """An antiderivative of e^s*h(s) at t; without a closed form it is the
        integral from t_ref."""
        return _quad(lambda s: math.exp(s) / self.value(s), t_ref, t)


@dataclass(frozen=True)
class UnitCoefficient(Coefficient):
    """f(t) = 1 (constant-coefficient equation)."""

    def value(self, t):
        return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0

    def integral_h(self, t0: float, t1: float) -> float:
        return t1 - t0

    integral_h_step = integral_h

    def exp_kernel_antiderivative(self, t: float, t_ref: float) -> float:
        # antiderivative of e^s * h(s) = e^s
        return math.exp(t)


@dataclass(frozen=True)
class ExponentialCoefficient(Coefficient):
    """f(t) = exp(rate * t)."""

    rate: float

    def value(self, t):
        return np.exp(self.rate * np.asarray(t, dtype=float)) if np.ndim(t) else math.exp(self.rate * t)

    def integral_h(self, t0: float, t1: float) -> float:
        r = self.rate
        if r == 0.0:
            return t1 - t0
        return (math.exp(-r * t0) - math.exp(-r * t1)) / r

    integral_h_step = integral_h

    def exp_kernel_antiderivative(self, t: float, t_ref: float) -> float:
        # antiderivative of e^((1-rate)*s)
        c = 1.0 - self.rate
        if c == 0.0:
            return t
        return math.exp(c * t) / c


@dataclass(frozen=True)
class PolynomialCoefficient(Coefficient):
    """f(t) = c0 + c1*t + c2*t^2 + ..."""

    coeffs: tuple[float, ...]

    def value(self, t):
        return np.polyval(self.coeffs[::-1], np.asarray(t, dtype=float)) if np.ndim(t) else float(
            np.polyval(self.coeffs[::-1], t)
        )

    def _check(self, t0: float, t1: float):
        roots = np.roots(self.coeffs[::-1]) if len(self.coeffs) > 1 else np.array([])
        for r in roots:
            if abs(r.imag) < 1e-12 and min(t0, t1) - 1e-12 <= r.real <= max(t0, t1) + 1e-12:
                raise CoefficientSingularity(
                    "coefficient singularity: f vanishes near t=%.6g" % (r.real,)
                )
        if len(self.coeffs) == 1 and self.coeffs[0] == 0.0:
            raise CoefficientSingularity("coefficient singularity: f is identically zero")


@dataclass(frozen=True)
class TabulatedCoefficient(Coefficient):
    """f(t) sampled at (times, values), monotone-cubic interpolated.  Times
    outside the table are refused; a slack of 1e-12 relative to the knots
    admits the rounding of t + dt at a run's last step."""

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

    def _check(self, t0: float, t1: float):
        fs = self.value(np.linspace(min(t0, t1), max(t0, t1), 257))
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
    """Phase-speed law: constant v = C, or the time-dependent law with
    d(t*v)/dt = C*h(t), anchored by v(t_ref) = v0."""

    kind: str  # "constant" | "time-dependent"
    C: float
    f: Coefficient = UnitCoefficient()
    v0: float = 0.0
    t_ref: float = 1.0

    @classmethod
    def constant(cls, C: float) -> "VelocityLaw":
        return cls(kind="constant", C=C)

    @classmethod
    def time_dependent(cls, C: float, f: Coefficient, v0: float, t_ref: float = 1.0) -> "VelocityLaw":
        if t_ref <= 0.0:
            raise ValueError("t_ref must be positive (the law degenerates at t=0)")
        return cls(kind="time-dependent", C=C, f=f, v0=v0, t_ref=t_ref)

    @classmethod
    def for_family(cls, fam: SolutionFamily, f: Coefficient | None = None,
                   v0: float | None = None, t_ref: float = 1.0) -> "VelocityLaw":
        if f is None:
            f = UnitCoefficient()
        if isinstance(f, UnitCoefficient) and v0 is None:
            return cls.constant(fam.v)
        return cls.time_dependent(fam.v, f, fam.v if v0 is None else v0, t_ref)


def velocity_at(law: VelocityLaw, t) -> float | np.ndarray:
    """Speed from the defining constraint: v(t) = (t_ref*v0 + C*int_{t_ref}^t h)/t."""
    if law.kind == "constant":
        return law.C * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else law.C
    if np.ndim(t):
        return np.array([velocity_at(law, float(tt)) for tt in np.asarray(t, dtype=float)])
    if t < law.t_ref:
        raise ValueError("time-dependent law defined for t >= t_ref=%g" % (law.t_ref,))
    acc = law.f.integral_h(law.t_ref, t)
    return (law.t_ref * law.v0 + law.C * acc) / t


def velocity_paper_form(law: VelocityLaw, t) -> float | np.ndarray:
    """Literal published formula v = C*e^{-t}*(int^t e^s/f(s) ds + v0).

    The indefinite integral is read as the plain antiderivative when one is
    available in closed form (unit and exponential f); otherwise it is taken
    from t_ref, which merely re-parameterizes the free constant v0.
    """
    if law.kind == "constant":
        return law.C * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else law.C
    if np.ndim(t):
        return np.array([velocity_paper_form(law, float(tt)) for tt in np.asarray(t, dtype=float)])
    F = law.f.exp_kernel_antiderivative(t, law.t_ref)
    return law.C * math.exp(-t) * (F + law.v0)


def wave_position(law: VelocityLaw, t: float) -> float:
    """Phase position v(t)*t of the crest that starts at x = 0."""
    if law.kind == "constant":
        return law.C * t
    return velocity_at(law, t) * t


def constraint_residual(law: VelocityLaw, t, form: str = "constraint", dt: float = 1e-5):
    """|v + t*dv/dt - C*h(t)| with dv/dt by central differences; 'form' picks
    the quadrature law ('constraint') or the published formula ('paper')."""
    vf = velocity_at if form == "constraint" else velocity_paper_form
    if np.ndim(t):
        return np.array([constraint_residual(law, float(tt), form, dt) for tt in np.asarray(t)])
    v = vf(law, t)
    if law.kind == "constant" or t - dt >= law.t_ref:
        dv = (vf(law, t + dt) - vf(law, t - dt)) / (2.0 * dt)
    else:
        # second-order forward stencil keeps the evaluation inside [t_ref, inf)
        dv = (-3.0 * v + 4.0 * vf(law, t + dt) - vf(law, t + 2.0 * dt)) / (2.0 * dt)
    h = 1.0 / law.f.value(t)
    return v + t * dv - law.C * h


def evaluate(fam: SolutionFamily, x, t: float, law: VelocityLaw | None = None):
    """u(x, t) for the family; x scalar or ndarray."""
    if law is None:
        law = VelocityLaw.constant(fam.v)
    xi = np.asarray(x, dtype=float) - wave_position(law, t)
    m = float(fam.params.m)
    if m == 1.0:
        sech = 1.0 / np.cosh(xi)
        u = fam.A * sech + fam.B * sech + fam.D
    else:
        sn, cn, dn = elliptic.jacobi(xi, m)
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
        u = self.amplitude / np.cosh(xi) + self.offset
        return u if np.ndim(x) else float(u)


def hyperbolic_limit(fam: SolutionFamily) -> SechProfile:
    """The m=1 closed form; both cn and dn degenerate to sech."""
    if float(fam.params.m) != 1.0:
        raise ValueError("hyperbolic limit requires m=1, got m=%r" % (fam.params.m,))
    return SechProfile(amplitude=fam.A + fam.B, speed=fam.v, offset=fam.D)


def profile_table(fam: SolutionFamily, xs: np.ndarray, t: float,
                  law: VelocityLaw | None = None) -> str:
    """(x, u) series as plot-ready text, 17 significant digits."""
    us = evaluate(fam, xs, t, law)
    lines = ["x,u"]
    for x, u in zip(np.asarray(xs, dtype=float), np.atleast_1d(us)):
        lines.append("%.17g,%.17g" % (x, u))
    return "\n".join(lines) + "\n"


def velocity_table(law: VelocityLaw, ts: np.ndarray) -> str:
    """(t, v) series for both velocity forms, 17 significant digits."""
    lines = ["t,v_constraint,v_paper"]
    for t in np.asarray(ts, dtype=float):
        lines.append(
            "%.17g,%.17g,%.17g" % (t, velocity_at(law, float(t)), velocity_paper_form(law, float(t)))
        )
    return "\n".join(lines) + "\n"
