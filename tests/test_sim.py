"""Tests for the pseudo-spectral integrator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kdvmkdv import sim, waves
from kdvmkdv.ansatz import PdeParams
from kdvmkdv.cli import VELOCITY_REL_TOL
from kdvmkdv.sim import (
    SimConfig,
    SimState,
    SimulationBlowUp,
    StabilityError,
    conservation_drift,
    config_hash,
    dominant_mode,
    init_from_family,
    measure_velocity,
    run,
    spectral_residual,
    track_positions,
    write_snapshots,
)
from kdvmkdv.solver import solve_closed_form


@pytest.fixture(scope="module")
def cnoidal():
    p = PdeParams(0.0, 1.0, 1.0, 0.5)
    return p, solve_closed_form(p)[0]


class TestConfig:
    def test_grid_validation(self):
        p = PdeParams(0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            SimConfig(p=p, N=100)
        with pytest.raises(ValueError):
            SimConfig(p=p, N=32)
        with pytest.raises(ValueError):
            SimConfig(p=p, periods=0)

    def test_m_one_needs_window(self):
        cfg = SimConfig(p=PdeParams(0, 1, 1, 1.0), N=128)
        with pytest.raises(ValueError, match="non-periodic limit"):
            cfg.length
        assert SimConfig(p=PdeParams(0, 1, 1, 1.0), N=128, window_length=60.0).length == 60.0

    def test_final_time_shorter_than_half_a_step_is_refused(self):
        p = PdeParams(0, 1, 1, 0.5)
        with pytest.raises(ValueError, match="no time step"):
            SimConfig(p=p, dt=1e-4, T=1e-5)
        assert SimConfig(p=p, dt=1e-4, T=6e-5).T == 6e-5  # rounds to one step


class TestInit:
    def test_constant_data_is_pure_mode_zero(self, cnoidal):
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128)
        st = SimState.from_field(0.0, np.full(128, 0.7), cfg.length)
        assert abs(st.uhat[0] - 0.7 * 128) < 1e-12
        assert np.max(np.abs(st.uhat[1:])) < 1e-12

    def test_round_trip_and_tail(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256)
        st = init_from_family(cfg, fam)
        u = st.field()
        assert np.max(np.abs(u - waves.evaluate(fam, cfg.grid(), 0.0))) < 1e-12
        half = cfg.N // 2
        tail = np.abs(st.uhat[half - 13 : half + 13]) / cfg.N
        assert np.max(tail) < 1e-10

    def test_family_must_match_config(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=PdeParams(0.0, 1.0, 1.0, 0.6), N=128)
        with pytest.raises(ValueError, match="disagree"):
            init_from_family(cfg, fam)

    def test_windowed_m1_tail_guard(self):
        p = PdeParams(0, 1, 1, 1.0)
        fam = solve_closed_form(p)[0]
        with pytest.raises(ValueError, match="tails"):
            init_from_family(SimConfig(p=p, N=128, window_length=10.0), fam)
        st = init_from_family(SimConfig(p=p, N=256, window_length=60.0), fam)
        assert np.isfinite(st.mass)


class TestStep:
    def test_pure_dispersion_single_mode_exact(self):
        # a=b=0: mode k rotates by exactly e^{i*d*k^3*t}
        p = PdeParams(0.0, 0.0, 1.0, 0.5)
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.1)
        L = cfg.length
        k1 = 2 * np.pi / L
        u0 = np.cos(3 * k1 * cfg.grid())
        states = run(cfg, SimState.from_field(0.0, u0, L), snapshots=2)
        exact = np.real(np.exp(1j * 3 * k1 * cfg.grid()) * np.exp(1j * (3 * k1) ** 3 * 0.1))
        assert np.max(np.abs(states[-1].field() - exact)) < 1e-12

    def test_zero_initial_data_stays_zero(self, cnoidal):
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.05)
        states = run(cfg, SimState.from_field(0.0, np.zeros(128), cfg.length), snapshots=2)
        assert np.max(np.abs(states[-1].field())) == 0.0

    def test_family_translates_rigidly(self):
        # the spec-scale case: a=1, b=1, d=1, m=0.5 over T=1
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]
        cfg = SimConfig(p=p, N=256, dt=1e-4, T=1.0)
        states = run(cfg, init_from_family(cfg, fam), snapshots=11)
        exact = waves.evaluate(fam, cfg.grid(), states[-1].t)
        assert np.max(np.abs(states[-1].field() - exact)) < 1e-6

    def test_spectrum_stays_conjugate_symmetric(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128, dt=5e-4, T=0.05)
        states = run(cfg, init_from_family(cfg, fam), snapshots=3)
        for st in states:
            uh = st.uhat
            assert np.max(np.abs(uh - np.conj(uh[np.r_[0, cfg.N - 1 : 0 : -1]]))) < 1e-9

    def test_blow_up_detection(self, cnoidal, monkeypatch):
        # with both step gates open, a step far beyond the advective bound
        # runs on until its values stop being finite (at t=7)
        monkeypatch.setattr(sim, "RK4_IMAG_STABILITY", np.inf)
        monkeypatch.setattr(sim, "ESTIMATE_LIMIT", np.inf)
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1.0, T=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationBlowUp):
                run(cfg, init_from_family(cfg, fam))

    def test_stability_refusal(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=0.05, T=0.1)
        with pytest.raises(StabilityError, match="CFL"):
            run(cfg, init_from_family(cfg, fam))

    @pytest.mark.parametrize("sign", ["mixed", "negative"])
    def test_nonlinear_matches_zero_padded_complex_fft(self, sign):
        a, b = 0.7, -1.3
        cfg = SimConfig(p=PdeParams(a, b, -1.0, 0.5), N=128)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(cfg.N) if sign == "mixed" else -0.5 - rng.random(cfg.N)
        uhat = np.fft.fft(u)
        N, M = cfg.N, cfg.N // 2
        k = sim._wavenumbers(N, cfg.length)
        padded = np.zeros(2 * N, dtype=complex)
        padded[:M] = uhat[:M]
        padded[-(M - 1):] = uhat[-(M - 1):]
        padded[M] = padded[2 * N - M] = 0.5 * uhat[M]
        up = np.fft.ifft(padded).real * 2.0
        flux_hat = np.fft.fft(a * up**2 / 2.0 + b * up**3 / 3.0)
        fhat = np.zeros(N, dtype=complex)
        fhat[:M] = flux_hat[:M]
        fhat[-(M - 1):] = flux_hat[-(M - 1):]
        fhat *= 0.5
        expected = (-1j * k * fhat)[: M + 1]
        got = sim._Stepper(cfg).nonlinear(uhat[: M + 1])
        assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))

    def test_mirrored_wave_runs_as_exact_negative(self):
        # u solves (a, b, d) exactly when -u solves (-a, b, d); the mirror
        # family flips D and the signs of A and B
        p, q = PdeParams(0.8, 1.0, 1.0, 0.6), PdeParams(-0.8, 1.0, 1.0, 0.6)
        fam = solve_closed_form(p)[0]
        mirror = solve_closed_form(q)[3]
        assert (mirror.A, mirror.B, mirror.D) == (-fam.A, -fam.B, -fam.D)
        fields = []
        for params, family in ((p, fam), (q, mirror)):
            cfg = SimConfig(p=params, N=128, dt=1e-3, T=0.05)
            fields.append(run(cfg, init_from_family(cfg, family), snapshots=2)[-1].field())
        assert np.min(fields[0]) < 0.0 < np.max(fields[0])
        assert np.max(np.abs(fields[0] + fields[1])) < 1e-13


class TestCoefficients:
    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    def test_coefficients_match_an_mpmath_oracle(self, dt):
        # both sides of |z| = 1, where the closed forms take over from the series
        mpmath = pytest.importorskip("mpmath")
        lin = np.array([0, 1e-8j, 0.5j, 0.999j, 1.001j, 50j, 2e5j]) / dt
        got = sim._etd_coefficients(lin, dt)
        with mpmath.workdps(60):
            h = mpmath.mpf(dt)
            for i, z in enumerate((dt * lin).tolist()):  # the z the factors are built from
                z = mpmath.mpc(z)
                e, e_half = mpmath.exp(z), mpmath.exp(z / 2)
                if z == 0:
                    exact = [1, 1, h / 2, h / 6, h / 6, h / 6]
                else:
                    exact = [e_half, e, h * (e_half - 1) / z,
                             h * (-4 - z + e * (4 - 3 * z + z * z)) / z**3,
                             h * (2 + z + e * (z - 2)) / z**3,
                             h * (-4 - 3 * z - z * z + e * (4 - z)) / z**3]
                for c, want in zip(got, exact):
                    want = complex(want)
                    assert abs(c[i] - want) <= 1e-13 * abs(want)


class TestErrorControl:
    def test_error_estimate_is_fourth_order_in_the_step(self, cnoidal):
        # one step from the exact profile, and from the profile scaled by 1.01,
        # which is not a solution: the gap to the embedded companion is O(dt^4)
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128)
        stepper = sim._Stepper(cfg)
        for scale in (1.0, 1.01):
            vh = scale * init_from_family(cfg, fam).uhat[: cfg.N // 2 + 1]
            g1 = stepper.nonlinear(vh)
            coarse, fine = (stepper.embedded_step(vh, dt, g1)[2] for dt in (2e-3, 1e-3))
            assert 12.0 <= coarse / fine <= 20.0

    def test_controlled_run_of_a_state_that_is_no_wave(self, cnoidal):
        # the default wave scaled by 1.01 evolves; a fixed run of 20 000 steps
        # is the reference
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, T=1.0, adaptive=True)
        state0 = SimState.from_field(0.0, 1.01 * waves.evaluate(fam, cfg.grid(), 0.0), cfg.length)
        got = run(cfg, state0, snapshots=2)[-1].field()
        ref = run(replace(cfg, dt=1.0 / 20_000, adaptive=False), state0, snapshots=2)[-1].field()
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_fixed_run_reuses_the_last_stage(self, cnoidal, monkeypatch):
        # first same as last: n steps cost 4n + 1 flux evaluations
        p, fam = cnoidal
        calls = []
        nonlinear = sim._Stepper.nonlinear
        monkeypatch.setattr(sim._Stepper, "nonlinear", lambda self, vh: calls.append(1) or nonlinear(self, vh))
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.02)
        states = run(cfg, init_from_family(cfg, fam), snapshots=3)
        assert states.steps == 20
        assert len(calls) == 4 * 20 + 1

    def test_controlled_run_of_the_criterion_5_wave(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, T=1.0, adaptive=True)
        states = run(cfg, init_from_family(cfg, fam))
        assert [s.t for s in states] == [j / 50 for j in range(51)]
        exact = waves.evaluate(fam, cfg.grid(), 1.0)
        assert np.max(np.abs(states[-1].field() - exact)) < 1e-9
        assert states.steps < 2500

    def test_accuracy_bound_wave_is_not_over_resolved(self):
        # a steep wave (m=0.79, d=2) whose error, not the CFL cap, sets the
        # step: a tolerance tighter than its accuracy needs took 2000 steps
        p = PdeParams(0.5, 1.0, 2.0, 0.79)
        fam = next(f for f in solve_closed_form(p) if (f.sign_A, f.sign_B) == (-1, 1))
        cfg = SimConfig(p=p, N=256, T=0.25, adaptive=True)
        states = run(cfg, init_from_family(cfg, fam))
        exact = waves.evaluate(fam, cfg.grid(), 0.25)
        assert np.max(np.abs(states[-1].field() - exact)) < 1e-9 * np.max(np.abs(exact))
        assert states.steps <= 1000

    def test_controlled_fine_grid_run_needs_no_rejection(self, cnoidal):
        # a grid finer than the wave needs does not shrink the accurate step
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, T=4.0, adaptive=True)
        states = run(cfg, init_from_family(cfg, fam))
        exact = waves.evaluate(fam, cfg.grid(), 4.0)
        assert np.max(np.abs(states[-1].field() - exact)) < 1e-9
        assert states.rejected_steps == 0 and states.steps <= 6000


KINKED_TABLE = "tab:0.5:1.00000,1.02:1.44000,2.2:1.07000,3.4:1.49000,4.7:1.59000,6:0.67000"


class TestClock:
    """f(t)*u_t = -(flux)_x - d*u_xxx is the unit-f equation in the pseudo-time
    tau(t) = int_{t0}^t 1/f, so a run with f is a unit-f run on tau's clock."""

    def test_controlled_run_evaluates_f_a_fixed_number_of_times(self, cnoidal, monkeypatch):
        p, fam = cnoidal
        f = waves.parse_coefficient(KINKED_TABLE)
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v)
        counts = []
        for T in (0.5, 2.0):
            cfg = SimConfig(p=p, N=128, T=T, f=f, t0=1.0, adaptive=True)
            state0 = init_from_family(cfg, fam, law)
            calls = []
            value = type(f).value
            monkeypatch.setattr(type(f), "value", lambda self, t: calls.append(1) or value(self, t))
            states = run(cfg, state0)
            monkeypatch.undo()
            assert states.steps > 100
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 5

    @pytest.mark.parametrize("spec", ["exp:-0.5", "poly:1.2,0.25,0.03", KINKED_TABLE])
    def test_run_with_f_is_a_unit_run_to_the_pseudo_time(self, cnoidal, spec):
        # with one snapshot interval both runs plan the same steps over the
        # same pseudo-time span, so they agree to rounding, far inside the
        # 1e-10 error of either run
        p, fam = cnoidal
        f = waves.parse_coefficient(spec)
        cfg = SimConfig(p=p, N=128, T=0.5, f=f, t0=1.0, adaptive=True)
        state0 = init_from_family(cfg, fam, waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v))
        with_f = run(cfg, state0, snapshots=2)
        tau = f.integral_h(1.0, 1.5)
        unit = run(SimConfig(p=p, N=128, T=tau, adaptive=True), state0, snapshots=2)
        assert with_f[-1].t == 1.5
        assert with_f.steps == unit.steps
        assert np.max(np.abs(with_f[-1].uhat - unit[-1].uhat)) < 1e-12 * np.max(np.abs(unit[-1].uhat))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_negative_f_runs_the_unit_equation_backward(self, cnoidal, adaptive):
        # f = -1 gives tau(t) = -t: the wave at t = T is the unit-f wave at -T
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=1e-3, T=0.2, f=waves.parse_coefficient("poly:-1"), adaptive=adaptive)
        states = run(cfg, SimState.from_field(0.0, waves.evaluate(fam, cfg.grid(), 0.0), cfg.length))
        assert states[-1].t == pytest.approx(0.2, abs=1e-15)
        assert np.max(np.abs(states[-1].field() - waves.evaluate(fam, cfg.grid(), -0.2))) < 1e-9


class TestFixedStepSpans:
    def test_spans_are_taken_in_blocks_of_bounded_memory(self, cnoidal):
        # one quadrature call over 1e5 steps held about 46 MB of temporaries
        p, _ = cnoidal
        f = waves.parse_coefficient("poly:1.2,0.25,0.03")
        cfg = SimConfig(p=p, dt=1e-4, T=10.0, f=f, t0=1.0)
        ts = 1.0 + cfg.dt * np.arange(100_001)

        def traced(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, whole_peak = traced(lambda: cfg.dt * (f.integral_h(ts[:-1], ts[1:]) / np.diff(ts)))
        blocked, blocked_peak = traced(lambda: sim._step_spans(cfg, ts))
        assert blocked_peak <= whole_peak / 4
        assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-15


class TestGridChoice:
    @pytest.mark.parametrize("params,extra,N", [
        ((0, 1, 1, 0.5), {}, 64),
        ((0, 1, 1, 0.7), {}, 128),
        ((0, 1, 1, 0.9), {}, 128),
        ((-0.5, 1, 2, 0.79), {}, 128),
        ((0, 1, 1, 0.999999), {}, 512),
        ((0, 1, 1, 0.5), {"periods": 2}, 128),
        ((0, 1, 1, 0.5), {"periods": 4}, 256),
        ((0, 1, 1, 1.0), {"window_length": 60.0}, 1024),
    ])
    def test_boyd_rule_picks_the_resolving_grid(self, params, extra, N):
        p = PdeParams(*params)
        fam = solve_closed_form(p)[0]
        cfg = SimConfig(p=p, **extra)
        chosen, tail = sim.choose_N(cfg, fam)
        assert chosen == N
        # the tail is at round-off (m = 0.999999: the profile's own), and half
        # the grid leaves more than ten times as much
        assert tail < 2e-14
        if N > sim.N_MIN:
            coarse = replace(cfg, N=N // 2).grid()
            assert sim.spectral_tail(waves.evaluate(fam, coarse, 0.0)) > 10.0 * tail

    def test_time_dependent_wave_keeps_the_grid_of_its_profile(self):
        # the profile translates rigidly, so the moduli of its spectrum do not
        # depend on t0
        f = waves.parse_coefficient("exp:-0.5")
        cfg = SimConfig(p=PdeParams(0, 1, 1, 0.9), f=f, t0=1.0)
        fam = solve_closed_form(cfg.p)[0]
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v)
        assert sim.choose_N(cfg, fam, law)[0] == sim.choose_N(replace(cfg, t0=0.0), fam)[0] == 128

    def test_unresolvable_profile_stops_at_the_cap(self):
        # a sech of unit width on a window of 4000 is a lone spike on 64
        # points, whose spectrum is flat: the search goes on past it, to the
        # cap, and refuses the grid it ends on
        p = PdeParams(0, 1, 1, 1.0)
        fam = solve_closed_form(p)[0]
        with pytest.raises(sim.UnresolvedGrid, match="no grid up to N=%d" % sim.N_MAX):
            sim.choose_N(SimConfig(p=p, window_length=4000.0), fam)


class TestConservation:
    def test_mass_and_quadratic_invariant(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=2e-4, T=0.5)
        states = run(cfg, init_from_family(cfg, fam))
        dm, dq = conservation_drift(states)
        assert dm < 1e-9
        assert dq < 1e-8

    def test_fourth_order_convergence(self):
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]

        def final_error(dt):
            cfg = SimConfig(p=p, N=128, dt=dt, T=0.5)
            states = run(cfg, init_from_family(cfg, fam), snapshots=2)
            return np.max(np.abs(states[-1].field() - waves.evaluate(fam, cfg.grid(), states[-1].t)))

        factor = final_error(2e-3) / final_error(1e-3)
        assert 12.0 <= factor <= 20.0

    def test_spatial_resolution_reaches_temporal_floor(self):
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]

        def final_error(N):
            cfg = SimConfig(p=p, N=N, dt=1e-3, T=0.25)
            states = run(cfg, init_from_family(cfg, fam), snapshots=2)
            return np.max(np.abs(states[-1].field() - waves.evaluate(fam, cfg.grid(), states[-1].t)))

        e64, e128 = final_error(64), final_error(128)
        # smooth data: both resolutions already sit on the temporal error floor
        assert abs(e64 - e128) < 0.2 * e128 + 1e-12

    def test_shape_preservation_under_best_shift(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=2e-4, T=0.5)
        states = run(cfg, init_from_family(cfg, fam), snapshots=5)
        ts, ps = track_positions(states, cfg)
        k = 2 * np.pi * np.fft.fftfreq(cfg.N, d=cfg.length / cfg.N)
        u0hat = states[0].uhat
        uT = states[-1].field()
        L = cfg.length

        def l2_after_shift(s):
            shifted = np.fft.ifft(u0hat * np.exp(-1j * k * s)).real
            return np.sqrt(np.sum((uT - shifted) ** 2) * L / cfg.N)

        best = min(l2_after_shift(ps[-1] + ds) for ds in np.linspace(-1e-3, 1e-3, 21))
        assert best < 1e-6


class TestMeasurement:
    def test_synthetic_rigid_translation(self, cnoidal):
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=1.0)
        L = cfg.length
        x = cfg.grid()
        prof = lambda s: np.cos(2 * np.pi * (x - s) / L) + 0.3 * np.sin(4 * np.pi * (x - s) / L)
        states = [SimState.from_field(t, prof(0.3 * t), L) for t in np.linspace(0, 1, 11)]
        v, resid = measure_velocity(*track_positions(states, cfg))
        assert v == pytest.approx(0.3, abs=1e-10)
        assert resid < 1e-10

    def test_simulated_family_speed(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=2e-4, T=0.5)
        v = sim.simulate(cfg, fam, waves.VelocityLaw.constant(fam.v)).v_measured
        assert v == pytest.approx(0.75, abs=1e-4)

    def test_constant_field_has_no_signal(self, cnoidal):
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128)
        st = SimState.from_field(0.0, np.full(128, 0.5), cfg.length)
        with pytest.raises(ValueError, match="no traveling signal"):
            dominant_mode(st)

    def test_needs_three_snapshots(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128)
        st = init_from_family(cfg, fam)
        with pytest.raises(ValueError, match="3 snapshots"):
            measure_velocity(*track_positions([st, st], cfg))

    def test_a_law_one_percent_off_is_measured_one_percent_off(self, cnoidal):
        # the speed is fitted per unit pseudo-time, where the wave moves at C
        # for any f, so no position of the law's own dilutes the check
        p, fam = cnoidal
        f = waves.ExponentialCoefficient(0.5)
        law = waves.VelocityLaw.time_dependent(1.01 * fam.v, f, v0=1.01 * fam.v)
        cfg = SimConfig(p=p, N=64, T=0.05, f=f, t0=1.0, adaptive=True)
        result = sim.simulate(cfg, fam, law)
        assert result.velocity_rel_error > VELOCITY_REL_TOL
        assert result.velocity_rel_error == pytest.approx(0.01 / 1.01, rel=1e-6)

    def test_stability_report_is_the_advective_cfl_number(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=1e-3)
        u0 = init_from_family(cfg, fam).field()
        k_max = 2.0 * np.pi * 31 / cfg.length  # the Nyquist mode (32) is zeroed
        cfl = sim.stability_report(cfg, u0)
        assert isinstance(cfl, float)
        assert cfl == pytest.approx(1e-3 * k_max * np.max(np.abs(u0**2)), rel=1e-12)

    def test_time_dependent_speed_curve(self, cnoidal):
        p, fam = cnoidal
        f = waves.ExponentialCoefficient(1.0)
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v, t_ref=1.0)
        cfg = SimConfig(p=p, N=256, dt=5e-4, T=1.0, f=f, t0=1.0)
        _, v_inst, v_law = sim.simulate(cfg, fam, law).velocity_rows.T
        assert np.max(np.abs(v_inst - v_law)) < 1e-3


class TestResidualAndOutput:
    def test_spectral_residual_of_exact_solutions(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            b = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            p = PdeParams(rng.uniform(-2, 2), b, b * rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.95))
            fam = solve_closed_form(p)[rng.integers(0, 4)]
            assert spectral_residual(fam, N=256) < 1e-8

    def test_m_one_windowed_residual(self):
        # the windowed sech needs twice the modes of one elliptic period
        fam = solve_closed_form(PdeParams(0, 1, 1, 1.0))[0]
        assert spectral_residual(fam, N=512) < 1e-8

    def test_deterministic_run_naming_and_files(self, cnoidal, tmp_path):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.02)
        states = run(cfg, init_from_family(cfg, fam), snapshots=3)
        d1 = write_snapshots(states, cfg, tmp_path / "a")
        d2 = write_snapshots(states, cfg, tmp_path / "b")
        assert d1.name == d2.name == "run-%s" % config_hash(cfg)
        f1 = sorted(q.name for q in d1.iterdir())
        assert f1 == sorted(q.name for q in d2.iterdir())
        for name in f1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_snapshot_files_match_a_line_by_line_rendering(self, cnoidal, tmp_path):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=1e-3, T=0.01)
        states = run(cfg, init_from_family(cfg, fam), snapshots=4)
        # magnitudes and signs a wave never takes go through the same template
        u = np.array([-0.0, 1e-300, -1.5e17, np.pi] + [2.0 / 3.0] * (cfg.N - 4))
        states[-1] = SimState.from_field(states[-1].t, u, cfg.length)
        rundir = write_snapshots(states, cfg, tmp_path)
        x = cfg.grid()
        for i, s in enumerate(states):
            lines = ["x,u"] + ["%.17g,%.17g" % (xv, uv) for xv, uv in zip(x, s.field())]
            assert (rundir / ("snapshot-%03d.csv" % i)).read_text() == "\n".join(lines) + "\n"
