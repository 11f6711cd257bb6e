"""Periodic pseudo-spectral integrator for the combined KdV-mKdV equation.

The equation is advanced in flux form  u_t = -d_x(a*u^2/2 + b*u^3/3) - d*u_xxx
on a domain of an integer number of elliptic periods, so an exact family
profile is an exact steady translator of the semi-discrete system up to
spectral tail error.  Time stepping is an integrating-factor (Lawson) RK4:
the dispersive term rotates exactly in spectral space, the nonlinear flux is
evaluated pseudo-spectrally with zero-padding dealiasing (factor 2, exact for
the cubic term).  Each step also yields an embedded third-order estimate of
its local error at no extra flux evaluation (the last stage is the next
step's first); controlled runs choose the step from it, fixed-step runs stop
when it reveals an instability.  The stepper carries the real-FFT half
spectrum of u; states hold the full spectrum.

A time coefficient f(t) multiplying u_t is a change of clock: with h = 1/f,
f(t)*u_t = -(flux)_x - d*u_xxx is the unit-f equation in the pseudo-time
tau(t) = t0 + int_{t0}^t h, so u(., t) = U(., tau(t)) for the unit-f solution
U.  The stepper is therefore autonomous and steps in tau; a run maps its
snapshot or step times to tau once, up front, and its states record t.
Step sizes, error estimates and stability numbers are per unit tau.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import elliptic
from .ansatz import PdeParams
from .solver import SolutionFamily
from .waves import Coefficient, UnitCoefficient, VelocityLaw, evaluate

RK4_IMAG_STABILITY = 2.8  # imaginary-axis stability limit of classical RK4
# Error control.  A step's estimate is the relative 2-norm of the gap between
# the RK4 result and its embedded third-order companion; per unit tau (the
# pseudo-time of the module docstring, t for unit f) it is held below RTOL in
# controlled runs.  RTOL is set by accuracy: it keeps the
# final L-inf error of the perfbench simulate waves (T=0.25) within 5e-10,
# 20x inside the oracle's bound; each 10x tighter costs 2.15x the steps.
RTOL = 1e-7
# Weight of the top quarter of the spectrum in the estimate.  A resolved wave
# has no content there, so error there is the onset of the Lawson step's
# instability at large dispersive rotation; the weight lets the estimate see
# it while it is still 1e-11 per unit time.
NOISE_WEIGHT = 1e4
SAFETY = 0.9
MAX_GROWTH, MIN_SHRINK = 5.0, 0.2  # bounds on the step ratio between steps
MIN_STEP = 1e-12  # controlled steps below MIN_STEP times the run's span in tau count as a failure
# Fixed-step estimate per unit tau that flags an unstable step: stable runs
# stay below 1e-6, growing ones pass 1e-5 long before they overflow.
ESTIMATE_LIMIT = 1e-5
# A fixed-step run maps its steps to tau with one quadrature call per block of
# this many steps; a call holds about 0.9 kB of temporaries per step.
SPAN_BLOCK = 10_000
# Grid choice (choose_N): powers of two from N_MIN, doubled while that lowers
# the spectral tail more than TAIL_DROP times, or while the tail is above
# TAIL_RESOLVED (a profile that steep aliases, and its spectrum looks flat);
# N_MAX ends the search.
N_MIN, N_MAX = 64, 4096
TAIL_DROP, TAIL_RESOLVED = 10.0, 1e-10


class SimulationBlowUp(RuntimeError):
    """Non-finite values appeared during time stepping."""


class StabilityError(RuntimeError):
    """The configured time step violates the advective stability bound."""


class UnresolvedGrid(RuntimeError):
    """No grid up to N_MAX resolves the initial profile."""


@dataclass(frozen=True)
class SimConfig:
    p: PdeParams
    N: int = 256
    periods: int = 1
    dt: float = 1e-4
    T: float = 1.0
    dealias: bool = True
    f: Coefficient = field(default_factory=UnitCoefficient)
    t0: float = 0.0
    window_length: float | None = None  # explicit domain for windowed m=1 runs
    adaptive: bool = False  # choose each step by error control; dt is then the first trial step

    def __post_init__(self):
        if self.N < 64 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 64, got %r" % (self.N,))
        if self.periods < 1:
            raise ValueError("periods must be a positive integer")
        if self.dt <= 0.0 or self.T <= 0.0:
            raise ValueError("dt and T must be positive")
        if round(self.T / self.dt) < 1:
            raise ValueError("T=%g is shorter than half of dt=%g: no time step to take" % (self.T, self.dt))

    @property
    def length(self) -> float:
        if float(self.p.m) == 1.0:
            if self.window_length is None:
                raise ValueError(
                    "non-periodic limit; use m<1 (e.g. 1-1e-6) or a wide-domain windowed run"
                )
            return float(self.window_length)
        return self.periods * 4.0 * elliptic.complete_K(float(self.p.m))

    def grid(self) -> np.ndarray:
        L = self.length
        return -L / 2.0 + L * np.arange(self.N) / self.N


@dataclass(frozen=True)
class SimState:
    t: float
    uhat: np.ndarray  # full FFT coefficients, conjugate-symmetric for real u
    mass: float       # integral of u dx
    quad: float       # integral of u^2 dx

    @classmethod
    def from_field(cls, t: float, u: np.ndarray, L: float) -> "SimState":
        uhat = np.fft.fft(u)
        return cls.from_spectrum(t, uhat, L)

    @classmethod
    def from_spectrum(cls, t: float, uhat: np.ndarray, L: float) -> "SimState":
        N = uhat.size
        mass = float(uhat[0].real) * L / N
        quad = float(np.sum(np.abs(uhat) ** 2)) * L / N**2
        return cls(t=t, uhat=uhat, mass=mass, quad=quad)

    def field(self) -> np.ndarray:
        return np.fft.ifft(self.uhat).real


def _wavenumbers(N: int, L: float) -> np.ndarray:
    """Odd-derivative wavenumbers: Nyquist mode zeroed."""
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    k[N // 2] = 0.0
    return k


def _full_spectrum(vh: np.ndarray) -> np.ndarray:
    """Full FFT coefficients of a real field from its real-FFT half spectrum."""
    M = vh.size - 1
    return np.concatenate([vh, np.conj(vh[M - 1 : 0 : -1])])


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
        self.dx = (-0.5j if cfg.dealias else -1j) * self.k
        self.err_weight = np.ones(M + 1)
        self.err_weight[3 * M // 4 :] = NOISE_WEIGHT
        self._ops = (None, None, None)  # (dt, factor over dt/2, factor over dt) of the last step

    def _operators(self, dt: float) -> tuple:
        """Integrating factors over a half step and a whole step of dt."""
        if self._ops[0] != dt:
            self._ops = (dt, np.exp(self.lin * dt / 2.0), np.exp(self.lin * dt))
        return self._ops[1:]

    def nonlinear(self, vh: np.ndarray) -> np.ndarray:
        """-ik * RFFT(a*u^2/2 + b*u^3/3), dealiased by zero padding.

        The flux is formed by products only: a power of a negative float
        takes NumPy's slow path.
        """
        N = self.cfg.N
        if self.cfg.dealias:
            u = np.fft.irfft(vh * self.pad, n=2 * N)
            fh = np.fft.rfft(u * u * (self.a2 + self.b3 * u))[: N // 2 + 1]
        else:
            u = np.fft.irfft(vh, n=N)
            fh = np.fft.rfft(u * u * (self.a2 + self.b3 * u))
        return self.dx * fh

    def embedded_step(self, vh: np.ndarray, dt: float,
                      g1: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """One Lawson RK4 step of dt from vh given g1 = nonlinear(vh).

        Returns (out, g5, err): the fourth-order result, g5 = nonlinear(out)
        (the next step's g1: first same as last), and the relative size
        |out - out3| / |out| of its difference from the embedded third-order
        result out3, which weights the stages (1/6, 1/3, 1/3, 0, 1/6) with g5
        in place of g4, so out - out3 = (dt/6)(g4 - g5) (Balac & Mahe,
        Comput. Phys. Commun. 184 (2013) 1211); the norm is the 2-norm over
        the half spectrum, with the top quarter weighted by NOISE_WEIGHT.  A
        step costs four calls of `nonlinear`; dt < 0 steps backward.  A
        non-finite result gives err = inf.
        """
        E1, E2 = self._operators(dt)
        E1vh, E2vh = E1 * vh, E2 * vh
        u2 = E1 * (vh + (dt / 2.0) * g1)
        g2 = self.nonlinear(u2)
        u3 = E1vh + (dt / 2.0) * g2
        g3 = self.nonlinear(u3)
        u4 = E2vh + dt * E1 * g3
        g4 = self.nonlinear(u4)
        out = E2vh + (dt / 6.0) * (E2 * g1 + 2.0 * E1 * (g2 + g3) + g4)
        if not np.all(np.isfinite(out)):
            return out, g1, np.inf
        g5 = self.nonlinear(out)
        gap, scale = self.err_weight * (g4 - g5), np.vdot(out, out).real
        err = (abs(dt) / 6.0) * float(np.sqrt(np.vdot(gap, gap).real / scale)) if scale > 0.0 else 0.0
        return out, g5, err


def spectral_tail(u: np.ndarray) -> float:
    """Largest mode in the top quarter of the real-FFT half spectrum of u
    (the modes NOISE_WEIGHT weights), relative to the largest mode."""
    mags = np.abs(np.fft.rfft(u))
    peak = float(np.max(mags))
    return float(np.max(mags[3 * (u.size // 2) // 4 :])) / peak if peak > 0.0 else 0.0


def choose_N(cfg: SimConfig, fam: SolutionFamily, law: VelocityLaw | None = None) -> tuple[int, float]:
    """Grid size for the family profile at cfg.t0, by Boyd's truncation rule
    (Chebyshev and Fourier Spectral Methods, 2nd ed., sec. 2.12): the
    smallest power of two N >= N_MIN at which doubling N no longer lowers the
    spectral tail TAIL_DROP-fold and the tail is at most TAIL_RESOLVED, or
    N_MAX.  Returns (N, its tail).

    A finer grid than the profile needs costs steps as well as time: the
    Lawson step goes unstable sooner at a larger d*k_max^3*dt.  The profile
    translates rigidly for any f, so its tail at t0 holds for the whole run.
    """
    def tail(n: int) -> float:
        return spectral_tail(evaluate(fam, replace(cfg, N=n).grid(), cfg.t0, law))

    N, t = N_MIN, tail(N_MIN)
    while N < N_MAX:
        finer = tail(2 * N)
        if t <= TAIL_RESOLVED and not finer * TAIL_DROP < t:
            break
        N, t = 2 * N, finer
    return N, t


def stability_report(cfg: SimConfig, u0: np.ndarray) -> dict[str, float]:
    """Stability numbers of a step of cfg.dt in the pseudo-time tau, which is
    the time t itself for unit f.

    advective_cfl is checked against the RK4 bound before a fixed-step run and
    caps the controlled step; linear_rotation is the per-step dispersive phase
    at the largest mode, recorded for reference (the integrating factor
    rotates it exactly, but a large one lets the Lawson step go unstable over
    a long run, which the per-step error estimate detects).  The stepper
    steps in tau, so neither number depends on f.
    """
    a, b, d, _ = cfg.p.as_floats()
    k_max = float(np.max(np.abs(_wavenumbers(cfg.N, cfg.length))))
    speed = float(np.max(np.abs(a * u0 + b * u0**2)))
    return {
        "advective_cfl": cfg.dt * k_max * speed,
        "linear_rotation": cfg.dt * abs(d) * k_max**3,
        "stability_limit": RK4_IMAG_STABILITY,
    }


def init_from_family(cfg: SimConfig, fam: SolutionFamily, law: VelocityLaw | None = None) -> SimState:
    """Sample the family profile at t = cfg.t0 on the periodic grid."""
    if fam.params.as_floats() != cfg.p.as_floats():
        raise ValueError("family parameters disagree with the simulation config")
    L = cfg.length  # raises the documented error for m=1 without a window
    x = cfg.grid()
    u0 = evaluate(fam, x, cfg.t0, law)
    if float(cfg.p.m) == 1.0:
        tail = max(abs(u0[0] - fam.D), abs(u0[-1] - fam.D))
        if tail > 1e-10:
            raise ValueError(
                "windowed m=1 run needs decayed tails: |u(+-L/2) - D| = %.3e > 1e-10" % (tail,)
            )
    return SimState.from_field(cfg.t0, np.asarray(u0, dtype=float), L)


class Trajectory(list):
    """The snapshot states of a run, with the step counts that produced them."""

    steps = 0           # accepted steps
    rejected_steps = 0  # controlled mode: trial steps whose estimate exceeded RTOL
    dt_max = 0.0        # largest accepted step, in pseudo-time


def _blow_up(t: float) -> SimulationBlowUp:
    return SimulationBlowUp("non-finite spectral coefficients or error estimate at t=%.6g" % (t,))


def _step_spans(cfg: SimConfig, ts: np.ndarray) -> np.ndarray:
    """The pseudo-time span of each fixed step [ts[i], ts[i+1]], written as
    dt * (span in tau / span in t) so that a unit-f step is dt exactly; one
    cfg.f.integral_h call per SPAN_BLOCK steps."""
    blocks = (ts[i : i + SPAN_BLOCK + 1] for i in range(0, ts.size - 1, SPAN_BLOCK))
    return np.concatenate([cfg.dt * (cfg.f.integral_h(b[:-1], b[1:]) / np.diff(b)) for b in blocks])


def run(cfg: SimConfig, state0: SimState, snapshots: int = 51,
        check_stability: bool = True) -> Trajectory:
    """Integrate from state0 over cfg.T, returning ~snapshots states
    (including the initial and final ones).

    The stepper steps in the pseudo-time tau (module docstring); the times of
    the snapshots, or of the steps of a fixed-step run, are mapped to tau
    before the first step.  With a fixed step (cfg.adaptive false) step i
    spans the pseudo-time of [t_i, t_i + dt] (_step_spans).  Such a run is
    refused up front when the advective CFL number of its largest step
    exceeds the RK4 bound, and stopped when a step's error estimate per unit
    tau exceeds ESTIMATE_LIMIT, a sign that the Lawson scheme has gone
    unstable; check_stability=False skips both gates.
    Controlled runs choose each step so that the estimate per unit tau stays
    below RTOL and land exactly on the snapshot times.
    """
    if cfg.adaptive:
        return _run_controlled(_Stepper(cfg), state0, snapshots)
    n_steps = int(round(cfg.T / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        cfg = replace(cfg, dt=cfg.T / n_steps)
    stepper = _Stepper(cfg)
    ts = state0.t + cfg.dt * np.arange(n_steps + 1)
    dtaus = _step_spans(cfg, ts)
    dt_max = float(np.max(np.abs(dtaus)))
    if check_stability:
        rep = stability_report(replace(cfg, dt=dt_max), state0.field())
        if rep["advective_cfl"] > rep["stability_limit"]:
            raise StabilityError(
                "advective CFL %.3g exceeds RK4 bound %.3g; reduce dt"
                % (rep["advective_cfl"], rep["stability_limit"])
            )
    stride = max(1, n_steps // max(1, snapshots - 1))
    states = Trajectory([state0])
    vh = state0.uhat[: cfg.N // 2 + 1]
    g = stepper.nonlinear(vh)
    for i, (t, dtau) in enumerate(zip(ts[1:].tolist(), dtaus.tolist()), 1):
        vh, g, err = stepper.embedded_step(vh, dtau, g)
        if not np.isfinite(err):
            raise _blow_up(t)
        if check_stability and err > ESTIMATE_LIMIT * abs(dtau):
            raise StabilityError(
                "error estimate %.3g per unit time at t=%.6g exceeds %.3g: dt=%.3g is unstable "
                "for this run; reduce dt or let the step be chosen by error control"
                % (err / abs(dtau), t, ESTIMATE_LIMIT, cfg.dt)
            )
        if i % stride == 0 or i == n_steps:
            states.append(SimState.from_spectrum(t, _full_spectrum(vh), stepper.L))
    states.steps, states.dt_max = n_steps, dt_max
    return states


def _run_controlled(stepper: _Stepper, state0: SimState, snapshots: int) -> Trajectory:
    """Error-controlled stepping: accept a step when its estimate per unit
    tau is at most RTOL, and propose the next by the third-order rule
    dt * SAFETY * (RTOL / estimate)^(1/3), capped by the advective CFL bound
    and, after a rejection, by the step proposed then.  A steady wave's
    error per step does not shrink later, and growth of the Lawson
    instability only raises it, so a run that met the instability's edge
    stays below it instead of climbing back and being rejected again.  Each
    snapshot interval is planned as equal steps that end on its end
    pseudo-time; the plan, and so the integrating factors, change only when
    the proposal no longer fits it.  A negative f runs tau backward."""
    cfg = stepper.cfg
    n_int = max(1, snapshots - 1)
    ts = state0.t + cfg.T * np.arange(n_int + 1) / n_int
    taus = (state0.t + cfg.f.integral_h(state0.t, ts)).tolist()
    ts = ts.tolist()
    rep = stability_report(cfg, state0.field())
    span = abs(taus[-1] - taus[0])
    cap = cfg.dt * rep["stability_limit"] / rep["advective_cfl"] if rep["advective_cfl"] > 0 else span
    states = Trajectory([state0])
    vh, tau = state0.uhat[: cfg.N // 2 + 1], taus[0]
    g = stepper.nonlinear(vh)
    dt = min(cfg.dt, cap)

    def t_at(j: int, s: float) -> float:
        """The time of pseudo-time s in snapshot interval j, interpolated
        linearly between its ends, for error messages."""
        return ts[j - 1] + (ts[j] - ts[j - 1]) * (s - taus[j - 1]) / (taus[j] - taus[j - 1])

    for j in range(1, len(ts)):
        left = 0  # steps left in the plan for this interval
        while tau != taus[j]:
            need = int(np.ceil(abs(taus[j] - tau) / dt))
            if need != left:
                left, h = need, (taus[j] - tau) / need
            out, g5, err = stepper.embedded_step(vh, h, g)
            if not np.isfinite(err):
                raise _blow_up(t_at(j, tau + h))
            ratio = err / (abs(h) * RTOL)
            if ratio <= 1.0:
                vh, g, tau = out, g5, (taus[j] if left == 1 else tau + h)
                left -= 1
                states.steps += 1
                states.dt_max = max(states.dt_max, abs(h))
            else:
                states.rejected_steps += 1
            grow = SAFETY * ratio ** (-1.0 / 3.0) if ratio > 0.0 else MAX_GROWTH
            dt = min(cap, abs(h) * min(MAX_GROWTH, max(MIN_SHRINK, grow)))
            if ratio > 1.0:
                cap = dt  # no later step returns to the size that failed
            if dt < MIN_STEP * span:
                raise StabilityError(
                    "error control needs a step below %.3g at t=%.6g (estimate %.3g per unit time)"
                    % (MIN_STEP * span, t_at(j, tau), err / abs(h))
                )
        states.append(SimState.from_spectrum(ts[j], _full_spectrum(vh), stepper.L))
    return states


def spectral_residual(fam: SolutionFamily, N: int = 256, window_length: float = 60.0) -> float:
    """L-infinity norm of u_t + a*u*u_x + b*u^2*u_x + d*u_xxx for the family
    profile, with derivatives taken spectrally on N points.

    For the traveling profile u_t = -v*u_x, so the residual collapses to
    (-v + a*u + b*u^2)*u_x + d*u_xxx.  m=1 uses a wide window in place of the
    divergent elliptic period.
    """
    a, b, d, m = fam.params.as_floats()
    if m == 1.0:
        L = window_length
    else:
        L = 4.0 * elliptic.complete_K(m)
    x = -L / 2.0 + L * np.arange(N) / N
    u = np.asarray(evaluate(fam, x, 0.0), dtype=float)
    k = _wavenumbers(N, L)
    uhat = np.fft.fft(u)
    ux = np.fft.ifft(1j * k * uhat).real
    uxxx = np.fft.ifft(-1j * k**3 * uhat).real
    res = (-fam.v + a * u + b * u**2) * ux + d * uxxx
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# measurement and reporting
# ---------------------------------------------------------------------------


def dominant_mode(state: SimState) -> int:
    """Index of the strongest nonzero Fourier mode."""
    N = state.uhat.size
    mags = np.abs(state.uhat[1 : N // 2])
    if mags.size == 0 or np.max(mags) < 1e-12 * max(1.0, abs(state.uhat[0])):
        raise ValueError("no traveling signal")
    return 1 + int(np.argmax(mags))


def track_positions(states: list[SimState], cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(t, displacement) of the wave, from the unwrapped phase of the dominant mode."""
    n = dominant_mode(states[0])
    k = 2.0 * np.pi * n / cfg.length
    phases = np.unwrap(np.array([float(np.angle(s.uhat[n])) for s in states]))
    ts = np.array([s.t for s in states])
    return ts, (phases[0] - phases) / k


def measure_velocity(states: list[SimState], cfg: SimConfig) -> tuple[float, float]:
    """Translation speed by least-squares fit of the phase displacement;
    returns (speed, max residual of the linear fit)."""
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots")
    ts, ps = track_positions(states, cfg)
    coef = np.polyfit(ts, ps, 1)
    resid = float(np.max(np.abs(ps - np.polyval(coef, ts))))
    return float(coef[0]), resid


def conservation_drift(states: list[SimState]) -> tuple[float, float]:
    """Relative drift of mass and of the quadratic invariant across a run."""
    m0, q0 = states[0].mass, states[0].quad
    dm = max(abs(s.mass - m0) for s in states) / max(abs(m0), 1e-30)
    dq = max(abs(s.quad - q0) for s in states) / max(abs(q0), 1e-30)
    return dm, dq


def config_hash(cfg: SimConfig) -> str:
    """Deterministic short hash identifying a run configuration."""
    canon = repr(
        (
            cfg.p.as_floats(),
            cfg.N,
            cfg.periods,
            cfg.dt,
            cfg.T,
            cfg.dealias,
            repr(cfg.f),
            cfg.t0,
            cfg.window_length,
        )
        + (("adaptive",) if cfg.adaptive else ())
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_snapshots(states: list[SimState], cfg: SimConfig, outdir: str | Path) -> Path:
    """Write (x, u) tables per snapshot under run-<hash>/; returns the run dir."""
    rundir = Path(outdir) / ("run-%s" % config_hash(cfg))
    rundir.mkdir(parents=True, exist_ok=True)
    # the grid column is formatted once; each snapshot fills in its u column
    template = "x,u\n" + "".join("%.17g,%%.17g\n" % (xv,) for xv in cfg.grid())
    for i, s in enumerate(states):
        (rundir / ("snapshot-%03d.csv" % i)).write_text(template % tuple(s.field().tolist()))
    return rundir
