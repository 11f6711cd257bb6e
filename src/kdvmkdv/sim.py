"""Periodic pseudo-spectral integrator for the combined KdV-mKdV equation.

The equation is advanced in flux form  u_t = -d_x(a*u^2/2 + b*u^3/3) - d*u_xxx
on a domain of an integer number of elliptic periods, so an exact family
profile is an exact steady translator of the semi-discrete system up to
spectral tail error.  Time stepping is exponential time differencing RK4
(ETDRK4): the dispersive term is integrated exactly, the nonlinear flux is
evaluated pseudo-spectrally with zero-padding dealiasing (factor 2, exact for
the cubic term).  Each step also yields an embedded estimate of its local
error at no extra flux evaluation (the last stage is the next step's first);
controlled runs choose the step from it, fixed-step runs stop when it shows a
step too large for the run.  The stepper carries the real-FFT half spectrum
of u; a run (Run) records the full spectrum of each snapshot, one row each.

A time coefficient f(t) multiplying u_t is a change of clock: with h = 1/f,
f(t)*u_t = -(flux)_x - d*u_xxx is the unit-f equation in the pseudo-time
tau(t) = t0 + int_{t0}^t h, so u(., t) = U(., tau(t)) for the unit-f solution
U.  The stepper is therefore autonomous and steps in tau; a run maps its
snapshot times to tau once, up front, steps each snapshot interval in equal
tau-steps, and records its snapshots at their times t.  Step sizes, error
estimates and stability numbers are per unit tau.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from math import factorial, isfinite
from pathlib import Path

import numpy as np

from . import elliptic
from .ansatz import PdeParams
from .solver import SolutionFamily
from .waves import Coefficient, UnitCoefficient, VelocityLaw, evaluate

RK4_IMAG_STABILITY = 2.8  # imaginary-axis stability limit of classical RK4
# Error control.  A step's estimate is the relative 2-norm of the gap between
# the ETDRK4 result and its embedded companion; per unit tau (the pseudo-time
# of the module docstring, t for unit f) it is held below RTOL in controlled
# runs.  RTOL is set by accuracy: the default wave's T=10 run ends 6.6e-10 from
# the exact wave, inside 1e-9 (1.7e-9 at 1e-7), and the perfbench simulate
# waves (T=0.25) within 1e-10; each 10x tighter costs 2.15x the steps.
RTOL = 5e-8
SAFETY = 0.9
MAX_GROWTH, MIN_SHRINK = 5.0, 0.2  # bounds on the step ratio between steps
MIN_STEP = 1e-12  # controlled steps below MIN_STEP times the run's span in tau count as a failure
# Fixed-step estimate per unit tau (200x RTOL) above which a step is too large:
# the default wave's dt=0.02 on N=64 reads 4.1e-5 and is 6e-6 (relative) off at t=1.
ESTIMATE_LIMIT = 1e-5
# Grid choice (choose_N): powers of two from N_MIN, doubled while that lowers
# the spectral tail more than TAIL_DROP times, or while the tail is above
# TAIL_RESOLVED (a profile that steep aliases, and its spectrum looks flat);
# N_MAX ends the search.
N_MIN, N_MAX = 64, 4096
TAIL_DROP, TAIL_RESOLVED = 10.0, 1e-10


class SimulationBlowUp(RuntimeError):
    """Non-finite values appeared during time stepping."""


class StabilityError(RuntimeError):
    """The time step exceeds the advective stability bound or is too large for the run."""


class UnresolvedGrid(RuntimeError):
    """No grid up to N_MAX resolves the initial profile."""


class PhaseAliasing(RuntimeError):
    """The wave moves too far between snapshots for its phase to be unwrapped."""


@dataclass(frozen=True)
class SimConfig:
    p: PdeParams
    N: int | None = None  # grid points; None: chosen from the profile's spectral tail (choose_N)
    periods: int = 1
    dt: float = 1e-4
    T: float = 1.0
    f: Coefficient = field(default_factory=UnitCoefficient)
    t0: float = 0.0
    window_length: float | None = None  # explicit domain for windowed m=1 runs
    adaptive: bool = False  # choose each step by error control; dt is then the first trial step

    def __post_init__(self):
        if self.N is not None and (self.N < 64 or self.N & (self.N - 1)):
            raise ValueError("N must be a power of two >= 64, got %r" % (self.N,))
        if self.periods < 1:
            raise ValueError("periods must be a positive integer")
        for name in ("dt", "T", "t0"):
            if not isfinite(getattr(self, name)):
                raise ValueError("%s=%g is not finite" % (name, getattr(self, name)))
        if self.dt <= 0.0 or self.T <= 0.0:
            raise ValueError("dt and T must be positive")
        if self.window_length is not None and not 0.0 < self.window_length < np.inf:
            raise ValueError("window length must be positive and finite, got %g" % (self.window_length,))
        if not self.adaptive and round(self.T / self.dt) < 1:
            raise ValueError("T=%g is shorter than half of dt=%g: no time step to take" % (self.T, self.dt))

    @property
    def length(self) -> float:
        if float(self.p.m) == 1.0:
            if self.window_length is None:
                raise ValueError("m=1 is the non-periodic limit; use m=0.999999 or give a window length "
                                 "(--window-length) for a wide-domain windowed run")
            return float(self.window_length)
        return self.periods * 4.0 * elliptic.complete_K(float(self.p.m))

    def grid(self) -> np.ndarray:
        L = self.length
        return -L / 2.0 + L * np.arange(self.N) / self.N


def _wavenumbers(N: int, L: float) -> np.ndarray:
    """Odd-derivative wavenumbers: Nyquist mode zeroed."""
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    k[N // 2] = 0.0
    return k


# Taylor coefficients of Q/dt, f1/dt, f2/dt and f3/dt, a row per power of z = dt*L.
_ETD_SERIES = np.array([[2.0 ** -(j + 1) / factorial(j + 1), (j + 1) ** 2 / factorial(j + 3),
                         (j + 1) / factorial(j + 3), (1 - j) / factorial(j + 3)] for j in range(20)])


def _etd_coefficients(lin: np.ndarray, dts: np.ndarray) -> tuple[np.ndarray, ...]:
    """ETDRK4 factors of the steps dts, a column of step sizes (k, 1), for
    the diagonal linear operator lin, one row per step (Kassam & Trefethen,
    SIAM J. Sci. Comput. 26 (2005) 1214).  With z = dt*lin:
    E_half = e^(z/2), E = e^z, Q = dt*(e^(z/2) - 1)/z,
    f1 = dt*(-4 - z + e^z*(4 - 3z + z^2))/z^3, f2 = dt*(2 + z + e^z*(z - 2))/z^3,
    f3 = dt*(-4 - 3z - z^2 + e^z*(4 - z))/z^3; where |z| < 1 these closed forms
    cancel, and 20 terms of their Taylor series (_ETD_SERIES) reach round-off.
    Each row is bit for bit that of a build of its step alone."""
    z = dts * lin
    E_half = np.exp(z / 2.0)
    E = E_half * E_half
    small = np.abs(z) < 1.0
    w = np.where(small, 1.0, z)  # any nonzero value where the series serves
    w2, w3 = w * w, w * w * w
    coef = np.array([
        (E_half - 1.0) / w,
        (-4.0 - w + E * (4.0 - 3.0 * w + w2)) / w3,
        (2.0 + w + E * (w - 2.0)) / w3,
        (-4.0 - 3.0 * w - w2 + E * (4.0 - w)) / w3,
    ])
    coef[:, small] = (np.vander(z[small], len(_ETD_SERIES), increasing=True) @ _ETD_SERIES).T
    return (E_half, E, *(dts * coef))


class _Stepper:
    """Precomputed operators for one configuration, acting on the real-FFT
    half spectrum (modes 0..N/2)."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.L = cfg.length
        a, b, d, _ = cfg.p.as_floats()
        self.a2, self.b3 = a / 2.0, b / 3.0
        M = cfg.N // 2
        self.k = _wavenumbers(cfg.N, self.L)[: M + 1]
        self.lin = 1j * d * self.k**3  # from -d*u_xxx
        # zero padding splits the Nyquist mode evenly between +N/2 and -N/2;
        # the transforms on the padded grid of 2N points scale u by 1/2 and
        # its spectrum by 2, which `pad` and `dx` undo
        self.pad = np.full(M + 1, 2.0)
        self.pad[M] = 1.0
        self.dx = -0.5j * self.k
        self.planned: dict[float, tuple] = {}  # step size -> its ETDRK4 coefficients (plan)

    def plan(self, spans: Sequence[float] | np.ndarray) -> None:
        """Build the ETDRK4 coefficients of every distinct step size in spans
        in one stacked call.  They replace the previous plan's, so the store
        holds one plan; embedded_step takes a step's coefficients from it."""
        spans = np.unique(spans)
        coefs = _etd_coefficients(self.lin, spans[:, None])
        self.planned = {dt: tuple(c[i] for c in coefs) for i, dt in enumerate(spans.tolist())}

    def nonlinear(self, vh: np.ndarray) -> np.ndarray:
        """-ik * RFFT(a*u^2/2 + b*u^3/3), dealiased by zero padding.

        The flux is formed by products only: a power of a negative float
        takes NumPy's slow path.
        """
        N = self.cfg.N
        u = np.fft.irfft(vh * self.pad, n=2 * N)
        fh = np.fft.rfft(u * u * (self.a2 + self.b3 * u))[: N // 2 + 1]
        return self.dx * fh

    def embedded_step(self, vh: np.ndarray, dt: float,
                      g1: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """One ETDRK4 step of dt from vh given g1 = nonlinear(vh) (Cox &
        Matthews, J. Comput. Phys. 176 (2002) 430).

        Returns (out, g5, err): the fourth-order result, g5 = nonlinear(out)
        (the next step's g1: first same as last), and the relative 2-norm
        |out - out3| / |out| over the half spectrum, where the embedded
        companion out3 takes g5 in place of the last stage's flux g4, so
        out - out3 = f3*(g4 - g5) (-> (dt/6)(g4 - g5) as dt*L -> 0).  A step
        costs four calls of `nonlinear`; dt < 0 steps backward.  A
        non-finite result gives err = inf.  dt must be planned (plan).
        """
        E_half, E, Q, f1, f2, f3 = self.planned[dt]
        E_half_vh = E_half * vh
        u2 = E_half_vh + Q * g1
        g2 = self.nonlinear(u2)
        g3 = self.nonlinear(E_half_vh + Q * g2)
        g4 = self.nonlinear(E_half * u2 + Q * (2.0 * g3 - g1))
        out = E * vh + f1 * g1 + 2.0 * f2 * (g2 + g3) + f3 * g4
        if not np.all(np.isfinite(out)):
            return out, g1, np.inf
        g5 = self.nonlinear(out)
        gap, scale = f3 * (g4 - g5), np.vdot(out, out).real
        err = float(np.sqrt(np.vdot(gap, gap).real / scale)) if scale > 0.0 else 0.0
        return out, g5, err


def spectral_tail(u: np.ndarray) -> float:
    """Largest mode in the top quarter of the real-FFT half spectrum of u,
    relative to the largest mode."""
    mags = np.abs(np.fft.rfft(u))
    peak = float(np.max(mags))
    return float(np.max(mags[3 * (u.size // 2) // 4 :])) / peak if peak > 0.0 else 0.0


def choose_N(cfg: SimConfig, fam: SolutionFamily, law: VelocityLaw | None = None) -> tuple[int, float]:
    """Grid size for the family profile at cfg.t0, by Boyd's truncation rule
    (Chebyshev and Fourier Spectral Methods, 2nd ed., sec. 2.12): the
    smallest power of two N >= N_MIN at which doubling N no longer lowers the
    spectral tail TAIL_DROP-fold and the tail is at most TAIL_RESOLVED.
    Returns (N, its tail); raises UnresolvedGrid when N_MAX leaves a tail
    above TAIL_RESOLVED.

    A finer grid than the profile needs costs time in every step.  The
    profile translates rigidly for any f, so its tail at t0 holds for the
    whole run.
    """
    def tail(n: int) -> float:
        return spectral_tail(evaluate(fam, replace(cfg, N=n).grid(), cfg.t0, law))

    N, t = N_MIN, tail(N_MIN)
    while N < N_MAX:
        finer = tail(2 * N)
        if t <= TAIL_RESOLVED and not finer * TAIL_DROP < t:
            break
        N, t = 2 * N, finer
    if t > TAIL_RESOLVED:
        raise UnresolvedGrid("no grid up to N=%d resolves the profile (spectral tail %.2g > %.2g); pass --N to "
                             "run on a grid of your choice" % (N, t, TAIL_RESOLVED))
    return N, t


def stability_report(cfg: SimConfig, u0: np.ndarray, dt: float) -> float:
    """Advective CFL number of a step of dt in the pseudo-time tau (t for
    unit f) from the field u0, checked against the RK4 bound before a
    fixed-step run and capping the controlled step.  The dispersive term,
    integrated exactly, sets no bound; the stepper steps in tau, so f does
    not enter."""
    a, b, _, _ = cfg.p.as_floats()
    k_max = float(np.max(np.abs(_wavenumbers(cfg.N, cfg.length))))
    speed = float(np.max(np.abs(a * u0 + b * u0**2)))
    return dt * k_max * speed


def init_from_family(cfg: SimConfig, fam: SolutionFamily, law: VelocityLaw | None = None) -> np.ndarray:
    """The full spectrum of the family profile at t = cfg.t0, sampled on the
    periodic grid."""
    if fam.params.as_floats() != cfg.p.as_floats():
        raise ValueError("family parameters disagree with the simulation config")
    x = cfg.grid()  # raises the documented error for m=1 without a window
    u0 = evaluate(fam, x, cfg.t0, law)
    if float(cfg.p.m) == 1.0:
        tail = max(abs(u0[0] - fam.D), abs(u0[-1] - fam.D))
        if tail > 1e-10:
            raise ValueError(
                "windowed m=1 run needs decayed tails: |u(+-L/2) - D| = %.3e > 1e-10" % (tail,)
            )
    return np.fft.fft(np.asarray(u0, dtype=float))


@dataclass(frozen=True)
class Run:
    """The snapshots of a run, with the step counts that produced them."""

    ts: np.ndarray    # snapshot times
    taus: np.ndarray  # their pseudo-times tau = t0 + int_{t0}^t h
    uhat: np.ndarray  # full spectra, one row per snapshot: conjugate-symmetric for real u
    steps: int           # accepted steps
    rejected_steps: int  # controlled mode: trial steps whose estimate exceeded RTOL
    dt_max: float        # largest accepted step, in pseudo-time

    def fields(self) -> np.ndarray:
        """The field u on the grid, one row per snapshot."""
        return np.fft.ifft(self.uhat, axis=1).real


def _blow_up(t: float) -> SimulationBlowUp:
    return SimulationBlowUp("non-finite spectral coefficients or error estimate at t=%.6g" % (t,))


def run(cfg: SimConfig, uhat0: np.ndarray, snapshots: int = 51) -> Run:
    """Integrate the full spectrum uhat0 from cfg.t0 over cfg.T; the Run
    records ~snapshots snapshots (including the initial and final ones).

    The stepper steps in the pseudo-time tau (module docstring); the snapshot
    times are mapped to tau before the first step, and each snapshot interval
    is stepped in equal tau-steps that end on its end.  With a fixed step
    (cfg.adaptive false) a snapshot falls every n_steps // (snapshots - 1)
    steps and on the last, and the interval's steps are dt * (span in tau /
    span in t) each, dt exactly for unit f.  Such a run is refused up front
    when the advective CFL number of its largest step exceeds the RK4 bound,
    and stopped when a step's error estimate per unit tau exceeds
    ESTIMATE_LIMIT, a step too large for the run; both raise StabilityError.
    Controlled runs space the snapshots evenly and accept a step when its
    estimate per unit tau is at most RTOL, proposing the next by the
    third-order rule dt * SAFETY * (RTOL / estimate)^(1/3), capped by the
    advective CFL bound; an interval's plan, and so the ETDRK4 coefficients,
    change only when the proposal no longer fits it.  The coefficients come
    from _Stepper.plan: a fixed-step run plans all its steps before the
    first; a controlled run plans each new step size that is not planned
    yet, and at the snapshot floor (a step that spans a whole interval from
    its start) the spans of that interval and all later ones with it.  A
    step below MIN_STEP times the run's span raises StabilityError, and a run
    whose CFL bound is below that floor is refused before its first step.  A
    step that gives non-finite values raises SimulationBlowUp in either kind
    of run.  A negative f runs tau backward.
    """
    controlled = cfg.adaptive
    n_int = max(1, snapshots - 1)
    if controlled:
        ts = cfg.t0 + cfg.T * np.arange(n_int + 1) / n_int
    else:
        n_steps = int(round(cfg.T / cfg.dt))
        if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
            cfg = replace(cfg, dt=cfg.T / n_steps)
        marks = np.append(np.arange(0, n_steps, max(1, n_steps // n_int)), n_steps)
        ts = cfg.t0 + cfg.dt * marks
        hs = cfg.dt * (cfg.f.integral_h(ts[:-1], ts[1:]) / np.diff(ts))
        plans = list(zip(np.diff(marks).tolist(), hs.tolist()))
    tau_array = cfg.t0 + cfg.f.integral_h(cfg.t0, ts)
    taus = tau_array.tolist()
    u0 = np.fft.ifft(uhat0).real
    if controlled:
        cfl = stability_report(cfg, u0, cfg.dt)
        span = abs(taus[-1] - taus[0])
        cap = cfg.dt * RK4_IMAG_STABILITY / cfl if cfl > 0 else span
        if cap < MIN_STEP * span:
            raise StabilityError(
                "T=%.3g is too long for error control: the advective CFL bound caps the step at %.3g, "
                "so the run needs more than %.3g steps" % (cfg.T, cap, 1.0 / MIN_STEP)
            )
        dt, tol = min(cfg.dt, cap), RTOL
    else:
        cfl = stability_report(cfg, u0, float(np.max(np.abs(hs))))
        if cfl > RK4_IMAG_STABILITY:
            raise StabilityError("advective CFL %.3g exceeds RK4 bound %.3g; reduce dt" % (cfl, RK4_IMAG_STABILITY))
        tol = ESTIMATE_LIMIT
    stepper = _Stepper(cfg)
    if not controlled:
        stepper.plan(hs)
    M = cfg.N // 2
    uhat = np.empty((len(ts), cfg.N), dtype=complex)
    uhat[0] = uhat0
    vh, tau = uhat0[: M + 1], taus[0]
    g = stepper.nonlinear(vh)
    steps = rejected = 0
    dt_max = 0.0

    def t_at(j: int, s: float) -> float:
        """The time of pseudo-time s in snapshot interval j, interpolated
        linearly between its ends, for error messages."""
        return ts[j - 1] + (ts[j] - ts[j - 1]) * (s - taus[j - 1]) / (taus[j] - taus[j - 1])

    for j in range(1, len(ts)):
        left, h = (0, 0.0) if controlled else plans[j - 1]  # steps left in the plan, and their size
        while tau != taus[j]:
            if controlled:
                need = int(np.ceil(abs(taus[j] - tau) / dt))
                if need != left:
                    left, h = need, (taus[j] - tau) / need
                    if h not in stepper.planned:
                        # at the snapshot floor each interval from here on is
                        # likely one step of its whole span
                        floor = need == 1 and tau == taus[j - 1]
                        stepper.plan(np.diff(tau_array[j - 1 :]) if floor else [h])
            out, g5, err = stepper.embedded_step(vh, h, g)
            if not np.isfinite(err):
                raise _blow_up(t_at(j, tau + h))
            ratio = err / (abs(h) * tol)
            if ratio <= 1.0:
                vh, g, tau = out, g5, (taus[j] if left == 1 else tau + h)
                left -= 1
                steps += 1
                dt_max = max(dt_max, abs(h))
            elif not controlled:
                raise StabilityError(
                    "error estimate %.3g per unit time at t=%.6g exceeds %.3g: dt=%.3g is too large "
                    "for this run; reduce dt or let the step be chosen by error control"
                    % (err / abs(h), t_at(j, tau + h), ESTIMATE_LIMIT, cfg.dt)
                )
            else:
                rejected += 1
            if controlled:
                grow = SAFETY * ratio ** (-1.0 / 3.0) if ratio > 0.0 else MAX_GROWTH
                dt = min(cap, abs(h) * min(MAX_GROWTH, max(MIN_SHRINK, grow)))
                if dt < MIN_STEP * span:
                    raise StabilityError(
                        "error control needs a step below %.3g at t=%.6g (estimate %.3g per unit time)"
                        % (MIN_STEP * span, t_at(j, tau), err / abs(h))
                    )
        uhat[j, : M + 1] = vh
        uhat[j, M + 1 :] = np.conj(vh[M - 1 : 0 : -1])
    return Run(ts, tau_array, uhat, steps, rejected, dt_max)


def spectral_residuals(fams: Sequence[SolutionFamily], N: int = 256) -> list[float]:
    """L-infinity norm of u_t + a*u*u_x + b*u^2*u_x + d*u_xxx for each family's
    profile, with derivatives taken spectrally on N points.

    For the traveling profile u_t = -v*u_x, so the residual collapses to
    (-v + a*u + b*u^2)*u_x + d*u_xxx.  The domain is a simulation's
    (SimConfig.length): m=1 uses a window of length 60 in place of the divergent
    elliptic period.  The families share their parameters, so the grid and
    cn, dn are computed once for all of them, and their profiles go through
    one forward and one inverse transform; each row is transformed on its own,
    so every residual is bit for bit that of the family's own profile.
    """
    p = fams[0].params
    if any(fam.params != p for fam in fams):
        raise ValueError("the families must share their parameters")
    a, b, d, m = p.as_floats()
    cfg = SimConfig(p, N=N, window_length=60.0)
    k = _wavenumbers(N, cfg.length)
    _, cn, dn = elliptic.jacobi(cfg.grid(), m)
    u = np.array([fam.A * cn + fam.B * dn + fam.D for fam in fams])
    uhat = np.fft.fft(u)
    ux, uxxx = np.fft.ifft(np.stack((1j * k * uhat, -1j * k**3 * uhat))).real
    v = np.array([[fam.v] for fam in fams])
    res = (-v + a * u + b * u**2) * ux + d * uxxx
    return [float(r) for r in np.max(np.abs(res), axis=1)]


# ---------------------------------------------------------------------------
# measurement and reporting
# ---------------------------------------------------------------------------


def dominant_mode(uhat: np.ndarray) -> int:
    """Index of the strongest nonzero Fourier mode of the full spectrum uhat."""
    N = uhat.size
    mags = np.abs(uhat[1 : N // 2])
    if mags.size == 0 or np.max(mags) < 1e-12 * max(1.0, abs(uhat[0])):
        raise ValueError("no traveling signal")
    return 1 + int(np.argmax(mags))


def track_positions(run: Run, cfg: SimConfig) -> np.ndarray:
    """Displacement of the wave at each snapshot of run, from the unwrapped
    phase of the dominant mode."""
    n = dominant_mode(run.uhat[0])
    k = 2.0 * np.pi * n / cfg.length
    phases = np.unwrap(np.angle(run.uhat[:, n]))
    return (phases[0] - phases) / k


def measure_velocity(ts: np.ndarray, ps: np.ndarray) -> tuple[float, float]:
    """Translation speed by least-squares fit of the displacements ps
    (track_positions) at the times ts; returns (speed, max residual of the linear fit)."""
    if len(ts) < 3:
        raise ValueError("need at least 3 snapshots")
    coef = np.polyfit(ts, ps, 1)
    resid = float(np.max(np.abs(ps - np.polyval(coef, ts))))
    return float(coef[0]), resid


def conservation_drift(run: Run, cfg: SimConfig) -> tuple[float, float]:
    """Relative drift of mass (integral of u dx) and of the quadratic
    invariant (integral of u^2 dx) across a run."""
    L, N = cfg.length, cfg.N
    mass = run.uhat[:, 0].real * L / N
    quad = np.sum(np.abs(run.uhat) ** 2, axis=1) * L / N**2
    dm = float(np.max(np.abs(mass - mass[0]))) / max(abs(float(mass[0])), 1e-30)
    dq = float(np.max(np.abs(quad - quad[0]))) / max(abs(float(quad[0])), 1e-30)
    return dm, dq


@dataclass(frozen=True)
class Simulation:
    """A run of a family wave and what it measured.

    cfg is the run's configuration, with N chosen when it was None, and
    spectral_tail that grid's tail (choose_N), None for a given N.
    velocity_rows holds (t, v_measured, v_predicted) for each snapshot after
    the first: the measured and the predicted mean speed since t0, the
    tracked displacement and C*(tau - tau0) over t - t0.  The displacements
    are fitted against the pseudo-time tau - tau0 = int_{t0}^t h, in which
    the wave moves at C for any f; fit_residual is that fit's largest
    residual, velocity_rel_error its slope's relative distance from C, and
    v_measured the slope times the last row's mean h, (tau - tau0)/(t - t0),
    which is 1 for f = 1."""

    cfg: SimConfig
    run: Run
    spectral_tail: float | None
    advective_cfl: float  # at the largest accepted step
    mass_drift: float
    quad_drift: float
    velocity_rows: np.ndarray
    v_measured: float
    velocity_rel_error: float
    fit_residual: float


def simulate(cfg: SimConfig, fam: SolutionFamily, law: VelocityLaw) -> Simulation:
    """Run the family wave from cfg.t0 over cfg.T, on the grid choose_N picks
    when cfg.N is None, and measure its speed per unit pseudo-time against
    law.C (Simulation); does no I/O.  Raises ValueError for fewer than 3
    snapshots, and PhaseAliasing when the law moves the wave by L/(2n) or
    more between two snapshots, n the dominant mode: the unwrapped phase of
    track_positions would then alias."""
    tail = None
    if cfg.N is None:
        N, tail = choose_N(cfg, fam, law)
        cfg = replace(cfg, N=N)
    uhat0 = init_from_family(cfg, fam, law)
    result = run(cfg, uhat0)
    cfl = stability_report(cfg, np.fft.ifft(uhat0).real, result.dt_max)
    dm, dq = conservation_drift(result, cfg)
    ts, taus, ps = result.ts, result.taus, track_positions(result, cfg)
    # the wave moves at C per unit tau
    shift = abs(law.C) * float(np.max(np.abs(np.diff(taus))))
    limit = cfg.length / (2.0 * dominant_mode(uhat0))
    if not shift < limit:
        raise PhaseAliasing("the wave moves %.4g between snapshots, at least L/(2n) = %.4g for its dominant "
                            "mode n, so its phase cannot be unwrapped; shorten T" % (shift, limit))
    slope, fit_resid = measure_velocity(taus, ps)
    with np.errstate(invalid="ignore"):
        mean_h = (taus[1:] - taus[0]) / (ts[1:] - ts[0])
        v_meas = ps[1:] / (ts[1:] - ts[0])
    vel_err = abs(slope - law.C) / max(abs(law.C), 1e-30)
    return Simulation(cfg, result, tail, cfl, dm, dq, np.column_stack((ts[1:], v_meas, law.C * mean_h)),
                      slope * float(mean_h[-1]), vel_err, fit_resid)


def config_hash(cfg: SimConfig) -> str:
    """Deterministic short hash identifying a run configuration."""
    canon = repr(
        (
            cfg.p.as_floats(),
            cfg.N,
            cfg.periods,
            cfg.dt,
            cfg.T,
            True,  # the former dealias flag: run-directory names stay as they were
            repr(cfg.f),
            cfg.t0,
            cfg.window_length,
        )
        + (("adaptive",) if cfg.adaptive else ())
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_snapshots(run: Run, cfg: SimConfig, outdir: str | Path) -> Path:
    """Write an (x, u) table per snapshot of run under run-<hash>/; returns
    the run dir."""
    rundir = Path(outdir) / ("run-%s" % config_hash(cfg))
    rundir.mkdir(parents=True, exist_ok=True)
    # the grid column is formatted once; each snapshot fills in its u column
    template = "x,u\n" + "".join("%.17g,%%.17g\n" % (xv,) for xv in cfg.grid())
    for i, u in enumerate(run.fields()):
        (rundir / ("snapshot-%03d.csv" % i)).write_text(template % tuple(u.tolist()))
    return rundir
