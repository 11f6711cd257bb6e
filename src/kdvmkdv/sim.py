"""Periodic pseudo-spectral integrator for the combined KdV-mKdV equation.

The equation is advanced in flux form  u_t = -d_x(a*u^2/2 + b*u^3/3) - d*u_xxx
on a domain of an integer number of elliptic periods, so an exact family
profile is an exact steady translator of the semi-discrete system up to
spectral tail error.  Time stepping is an integrating-factor (Lawson) RK4:
the dispersive term rotates exactly in spectral space, the nonlinear flux is
evaluated pseudo-spectrally with zero-padding dealiasing (factor 2, exact for
the cubic term).  The stepper carries the real-FFT half spectrum of u; states
hold the full spectrum.  A time coefficient f(t) multiplies u_t; the scheme
then scales the right-hand side by h(t) = 1/f(t) at the substep times, with
the integrating factor driven by the accumulated pseudo-time integral of h.
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


class SimulationBlowUp(RuntimeError):
    """Non-finite values appeared during time stepping."""


class StabilityError(RuntimeError):
    """The configured time step violates the advective stability bound."""


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
        # zero padding splits the Nyquist mode evenly between +N/2 and -N/2
        self.split = np.ones(M + 1)
        self.split[M] = 0.5
        self.unit_f = isinstance(cfg.f, UnitCoefficient)
        if self.unit_f:
            half = np.exp(self.lin * cfg.dt / 2.0)
            full = np.exp(self.lin * cfg.dt)
            self._const_ops = (half, full, half)

    def _h(self, t: float) -> float:
        return 1.0 / float(self.cfg.f.value(t))

    def _tau_increments(self, t: float, dt: float) -> tuple[float, float]:
        """(s(t+dt/2)-s(t), s(t+dt)-s(t)) with s' = h."""
        f = self.cfg.f
        if self.unit_f:
            return dt / 2.0, dt
        d1 = f.integral_h_step(t, t + dt / 2.0)
        return d1, d1 + f.integral_h_step(t + dt / 2.0, t + dt)

    def nonlinear(self, vh: np.ndarray) -> np.ndarray:
        """-ik * RFFT(a*u^2/2 + b*u^3/3), dealiased by zero padding.

        The flux is formed by products only: a power of a negative float
        takes NumPy's slow path.
        """
        N = self.cfg.N
        if self.cfg.dealias:
            u = np.fft.irfft(vh * self.split, n=2 * N) * 2.0
            fh = np.fft.rfft(u * u * (self.a2 + self.b3 * u))[: N // 2 + 1] * 0.5
        else:
            u = np.fft.irfft(vh, n=N)
            fh = np.fft.rfft(u * u * (self.a2 + self.b3 * u))
        return -1j * self.k * fh

    def advance(self, vh: np.ndarray, t: float) -> np.ndarray:
        dt = self.cfg.dt
        if self.unit_f:
            E1, E2, E3 = self._const_ops
            h1 = h2 = h3 = 1.0
        else:
            d1, d2 = self._tau_increments(t, dt)
            E1 = np.exp(self.lin * d1)
            E2 = np.exp(self.lin * d2)
            E3 = np.exp(self.lin * (d2 - d1))
            h1 = self._h(t)
            h2 = self._h(t + dt / 2.0)
            h3 = self._h(t + dt)
        g1 = h1 * self.nonlinear(vh)
        u2 = E1 * (vh + (dt / 2.0) * g1)
        g2 = h2 * self.nonlinear(u2)
        u3 = E1 * vh + (dt / 2.0) * g2
        g3 = h2 * self.nonlinear(u3)
        u4 = E2 * vh + dt * E3 * g3
        g4 = h3 * self.nonlinear(u4)
        out = E2 * vh + (dt / 6.0) * (E2 * g1 + 2.0 * E3 * (g2 + g3) + g4)
        if not np.all(np.isfinite(out)):
            raise SimulationBlowUp("non-finite spectral coefficients at t=%.6g" % (t + dt,))
        return out


def stability_report(cfg: SimConfig, u0: np.ndarray) -> dict[str, float]:
    """Stability numbers recorded at run start.

    advective_cfl is the RK4 bound that actually constrains the scheme (the
    dispersive rotation is integrated exactly by the integrating factor);
    linear_rotation is the per-step dispersive phase at the largest mode,
    recorded for reference.
    """
    a, b, d, _ = cfg.p.as_floats()
    k_max = float(np.max(np.abs(_wavenumbers(cfg.N, cfg.length))))
    speed = float(np.max(np.abs(a * u0 + b * u0**2)))
    ts = np.linspace(cfg.t0, cfg.t0 + cfg.T, 17)
    h_max = float(np.max(np.abs(1.0 / np.asarray(cfg.f.value(ts), dtype=float))))
    return {
        "advective_cfl": cfg.dt * k_max * speed * h_max,
        "linear_rotation": cfg.dt * abs(d) * k_max**3 * h_max,
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


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance one time step (pure: returns a new state)."""
    stepper = _Stepper(cfg)
    vh = stepper.advance(state.uhat[: cfg.N // 2 + 1], state.t)
    return SimState.from_spectrum(state.t + cfg.dt, _full_spectrum(vh), stepper.L)


def run(cfg: SimConfig, state0: SimState, snapshots: int = 51,
        check_stability: bool = True) -> list[SimState]:
    """Integrate from state0 over cfg.T, returning ~snapshots states
    (including the initial and final ones)."""
    n_steps = int(round(cfg.T / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        cfg = replace(cfg, dt=cfg.T / n_steps)
    stepper = _Stepper(cfg)
    if check_stability:
        rep = stability_report(cfg, state0.field())
        if rep["advective_cfl"] > rep["stability_limit"]:
            raise StabilityError(
                "advective CFL %.3g exceeds RK4 bound %.3g; reduce dt"
                % (rep["advective_cfl"], rep["stability_limit"])
            )
    stride = max(1, n_steps // max(1, snapshots - 1))
    states = [state0]
    vh, t = state0.uhat[: cfg.N // 2 + 1], state0.t
    for i in range(1, n_steps + 1):
        vh = stepper.advance(vh, t)
        t = state0.t + i * cfg.dt
        if i % stride == 0 or i == n_steps:
            states.append(SimState.from_spectrum(t, _full_spectrum(vh), stepper.L))
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
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_snapshots(states: list[SimState], cfg: SimConfig, outdir: str | Path) -> Path:
    """Write (x, u) tables per snapshot under run-<hash>/; returns the run dir."""
    rundir = Path(outdir) / ("run-%s" % config_hash(cfg))
    rundir.mkdir(parents=True, exist_ok=True)
    x = cfg.grid()
    for i, s in enumerate(states):
        u = s.field()
        lines = ["x,u"]
        for xv, uv in zip(x, u):
            lines.append("%.17g,%.17g" % (xv, uv))
        (rundir / ("snapshot-%03d.csv" % i)).write_text("\n".join(lines) + "\n")
    return rundir
