"""Tests for the pseudo-spectral integrator."""

from dataclasses import replace

import numpy as np
import pytest

from kdvmkdv import elliptic, sim, waves
from kdvmkdv.ansatz import PdeParams
from kdvmkdv.cli import VELOCITY_REL_TOL
from kdvmkdv.sim import (
    Run,
    SimConfig,
    SimulationBlowUp,
    StabilityError,
    conservation_drift,
    config_hash,
    dominant_mode,
    init_from_family,
    measure_velocity,
    run,
    spectral_residuals,
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
        # a controlled run's dt is only its first trial step
        assert SimConfig(p=p, dt=1e-4, T=1e-5, adaptive=True).T == 1e-5


class TestInit:
    def test_constant_data_is_pure_mode_zero(self, cnoidal):
        # and stays so: constant data is a steady state
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.01)
        uhat = run(cfg, np.fft.fft(np.full(128, 0.7)), snapshots=2).uhat
        assert np.max(np.abs(uhat[:, 0] - 0.7 * 128)) < 1e-12
        assert np.max(np.abs(uhat[:, 1:])) < 1e-12

    def test_round_trip_and_tail(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256)
        uhat = init_from_family(cfg, fam)
        u = np.fft.ifft(uhat).real
        assert np.max(np.abs(u - waves.evaluate(fam, cfg.grid(), 0.0))) < 1e-12
        half = cfg.N // 2
        tail = np.abs(uhat[half - 13 : half + 13]) / cfg.N
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
        uhat = init_from_family(SimConfig(p=p, N=256, window_length=60.0), fam)
        assert np.all(np.isfinite(uhat))


class TestStep:
    def test_pure_dispersion_single_mode_exact(self):
        # a=b=0: mode k rotates by exactly e^{i*d*k^3*t}
        p = PdeParams(0.0, 0.0, 1.0, 0.5)
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.1)
        L = cfg.length
        k1 = 2 * np.pi / L
        u0 = np.cos(3 * k1 * cfg.grid())
        r = run(cfg, np.fft.fft(u0), snapshots=2)
        exact = np.real(np.exp(1j * 3 * k1 * cfg.grid()) * np.exp(1j * (3 * k1) ** 3 * 0.1))
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-12

    def test_zero_initial_data_stays_zero(self, cnoidal):
        p, _ = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.05)
        r = run(cfg, np.fft.fft(np.zeros(128)), snapshots=2)
        assert np.max(np.abs(r.fields()[-1])) == 0.0

    def test_family_translates_rigidly(self):
        # the spec-scale case: a=1, b=1, d=1, m=0.5 over T=1
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]
        cfg = SimConfig(p=p, N=256, dt=1e-4, T=1.0)
        r = run(cfg, init_from_family(cfg, fam), snapshots=11)
        exact = waves.evaluate(fam, cfg.grid(), r.ts[-1])
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-6

    def test_spectrum_stays_conjugate_symmetric(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128, dt=5e-4, T=0.05)
        for uh in run(cfg, init_from_family(cfg, fam), snapshots=3).uhat:
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
            fields.append(run(cfg, init_from_family(cfg, family), snapshots=2).fields()[-1])
        assert np.min(fields[0]) < 0.0 < np.max(fields[0])
        assert np.max(np.abs(fields[0] + fields[1])) < 1e-13


class TestCoefficients:
    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    def test_coefficients_match_an_mpmath_oracle(self, dt):
        # both sides of |z| = 1, where the closed forms take over from the series
        mpmath = pytest.importorskip("mpmath")
        lin = np.array([0, 1e-8j, 0.5j, 0.999j, 1.001j, 50j, 2e5j]) / dt
        got = [c[0] for c in sim._etd_coefficients(lin, np.array([[dt]]))]
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

    def test_each_row_of_a_stacked_build_is_the_build_of_its_step_alone(self, cnoidal):
        # the steps put the modes of N = 128 on both sides of |z| = 1, where
        # the series and the closed forms meet, forward and backward
        p, _ = cnoidal
        lin = sim._Stepper(SimConfig(p=p, N=128)).lin
        dts = np.array([-2e-2, -1e-3, -1e-4, 3e-5, 3e-4, 1e-3, 2e-2, 0.5])
        small = np.abs(dts[:, None] * lin) < 1.0
        assert small.any(axis=1).all() and not small.all(axis=1).any()
        stacked = sim._etd_coefficients(lin, dts[:, None])
        for i in range(len(dts)):
            alone = sim._etd_coefficients(lin, dts[i : i + 1, None])
            for c, c_alone in zip(stacked, alone):
                assert np.array_equal(c[i], c_alone[0])


class TestErrorControl:
    def test_error_estimate_is_fourth_order_in_the_step(self, cnoidal):
        # one step from the exact profile, and from the profile scaled by 1.01,
        # which is not a solution: the gap to the embedded companion is O(dt^4)
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128)
        stepper = sim._Stepper(cfg)
        stepper.plan([2e-3, 1e-3])
        for scale in (1.0, 1.01):
            vh = scale * init_from_family(cfg, fam)[: cfg.N // 2 + 1]
            g1 = stepper.nonlinear(vh)
            coarse, fine = (stepper.embedded_step(vh, dt, g1)[2] for dt in (2e-3, 1e-3))
            assert 12.0 <= coarse / fine <= 20.0

    def test_controlled_run_of_a_state_that_is_no_wave(self, cnoidal):
        # the default wave scaled by 1.01 evolves; a fixed run of 20 000 steps
        # is the reference
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, T=1.0, adaptive=True)
        uhat0 = np.fft.fft(1.01 * waves.evaluate(fam, cfg.grid(), 0.0))
        got = run(cfg, uhat0, snapshots=2).fields()[-1]
        ref = run(replace(cfg, dt=1.0 / 20_000, adaptive=False), uhat0, snapshots=2).fields()[-1]
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_fixed_run_reuses_the_last_stage(self, cnoidal, monkeypatch):
        # first same as last: n steps cost 4n + 1 flux evaluations
        p, fam = cnoidal
        calls = []
        nonlinear = sim._Stepper.nonlinear
        monkeypatch.setattr(sim._Stepper, "nonlinear", lambda self, vh: calls.append(1) or nonlinear(self, vh))
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.02)
        assert run(cfg, init_from_family(cfg, fam), snapshots=3).steps == 20
        assert len(calls) == 4 * 20 + 1

    def test_controlled_run_of_the_criterion_5_wave(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, T=1.0, adaptive=True)
        r = run(cfg, init_from_family(cfg, fam))
        assert r.ts.tolist() == [j / 50 for j in range(51)]
        exact = waves.evaluate(fam, cfg.grid(), 1.0)
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-9
        assert r.steps < 2500

    def test_accuracy_bound_wave_is_not_over_resolved(self):
        # a steep wave (m=0.79, d=2) whose error, not the CFL cap, sets the
        # step: a tolerance tighter than its accuracy needs took 2000 steps
        p = PdeParams(0.5, 1.0, 2.0, 0.79)
        fam = next(f for f in solve_closed_form(p) if (f.sign_A, f.sign_B) == (-1, 1))
        cfg = SimConfig(p=p, N=256, T=0.25, adaptive=True)
        r = run(cfg, init_from_family(cfg, fam))
        exact = waves.evaluate(fam, cfg.grid(), 0.25)
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-9 * np.max(np.abs(exact))
        assert r.steps <= 1000

    def test_controlled_run_recovers_from_a_rejected_step(self, cnoidal):
        # a first trial step of 0.02 on N=64 is too large for RTOL: the run
        # rejects it, shrinks the step, and still measures the speed
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=0.02, T=1.0, adaptive=True)
        result = sim.simulate(cfg, fam, waves.VelocityLaw.constant(fam.v))
        assert result.run.rejected_steps > 0
        assert result.velocity_rel_error < 1e-9

    def test_fixed_step_that_does_not_divide_T_is_evened_out(self, cnoidal):
        # dt = 3e-3 does not divide T = 1: the run takes round(T/dt) = 333
        # equal steps of T/333 and ends on T
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=3e-3, T=1.0)
        r = run(cfg, init_from_family(cfg, fam))
        assert (r.steps, r.rejected_steps) == (333, 0)
        assert r.ts[-1] == 1.0
        assert r.dt_max == pytest.approx(1.0 / 333, rel=1e-15)
        exact = waves.evaluate(fam, cfg.grid(), 1.0)
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-8

    def test_controlled_fine_grid_run_needs_no_rejection(self, cnoidal):
        # a grid finer than the wave needs does not shrink the accurate step
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, T=4.0, adaptive=True)
        r = run(cfg, init_from_family(cfg, fam))
        exact = waves.evaluate(fam, cfg.grid(), 4.0)
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-9
        assert r.rejected_steps == 0 and r.steps <= 6000


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
            uhat0 = init_from_family(cfg, fam, law)
            calls = []
            value = type(f).value
            monkeypatch.setattr(type(f), "value", lambda self, t: calls.append(1) or value(self, t))
            steps = run(cfg, uhat0).steps
            monkeypatch.undo()
            assert steps > 100
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
        uhat0 = init_from_family(cfg, fam, waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v))
        with_f = run(cfg, uhat0, snapshots=2)
        tau = f.integral_h(1.0, 1.5)
        unit = run(SimConfig(p=p, N=128, T=tau, t0=1.0, adaptive=True), uhat0, snapshots=2)
        assert with_f.ts[-1] == 1.5
        assert with_f.steps == unit.steps
        assert np.max(np.abs(with_f.uhat[-1] - unit.uhat[-1])) < 1e-12 * np.max(np.abs(unit.uhat[-1]))

    def test_fixed_run_with_f_plans_its_steps_once(self, cnoidal, monkeypatch):
        # 500 steps in 50 snapshot intervals: each interval is 10 equal
        # tau-steps, and one stacked build before the first step serves them
        p, fam = cnoidal
        f = waves.parse_coefficient("poly:1,0.2")
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v)
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.5, f=f, t0=1.0)
        builds = []
        etd = sim._etd_coefficients
        monkeypatch.setattr(sim, "_etd_coefficients", lambda lin, dts: builds.append(dts.shape) or etd(lin, dts))
        r = sim.simulate(cfg, fam, law).run
        assert r.steps == 500 and builds == [(50, 1)]
        exact = waves.evaluate(fam, cfg.grid(), 1.5, law)
        assert np.max(np.abs(r.fields()[-1] - exact)) < 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("spec,distinct_spans", [("unit", 2), ("poly:1.2,0.25,0.03", 49)])
    def test_a_controlled_run_at_the_snapshot_floor_plans_its_steps_once(
        self, cnoidal, monkeypatch, spec, distinct_spans
    ):
        # T = 0.05 makes each of the 50 snapshot intervals shorter than the
        # step error control allows: two steps of one size each find the step
        # size, then one stacked build of the distinct spans, which differ in
        # their last bits even for unit f, serves every later interval
        p, fam = cnoidal
        f = waves.parse_coefficient(spec)
        law = None if spec == "unit" else waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v)
        cfg = SimConfig(p=p, N=64, T=0.05, f=f, t0=1.0, adaptive=True)
        uhat0 = init_from_family(cfg, fam, law)
        builds = []
        etd = sim._etd_coefficients
        monkeypatch.setattr(sim, "_etd_coefficients", lambda lin, dts: builds.append(dts.shape) or etd(lin, dts))
        assert run(cfg, uhat0).steps == 52
        assert builds == [(1, 1), (1, 1), (distinct_spans, 1)]

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_negative_f_runs_the_unit_equation_backward(self, cnoidal, adaptive):
        # f = -1 gives tau(t) = -t: the wave at t = T is the unit-f wave at -T
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=1e-3, T=0.2, f=waves.parse_coefficient("poly:-1"), adaptive=adaptive)
        r = run(cfg, np.fft.fft(waves.evaluate(fam, cfg.grid(), 0.0)))
        assert r.ts[-1] == pytest.approx(0.2, abs=1e-15)
        assert np.max(np.abs(r.fields()[-1] - waves.evaluate(fam, cfg.grid(), -0.2))) < 1e-9


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

    def test_simulate_records_the_grid_it_chooses(self, cnoidal):
        p, fam = cnoidal
        law = waves.VelocityLaw.constant(fam.v)
        cfg = SimConfig(p, T=0.05, adaptive=True)
        chosen = sim.simulate(cfg, fam, law)
        assert (chosen.cfg.N, chosen.spectral_tail) == sim.choose_N(cfg, fam, law)
        given = sim.simulate(replace(cfg, N=128), fam, law)
        assert given.cfg.N == 128 and given.spectral_tail is None

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
        dm, dq = conservation_drift(run(cfg, init_from_family(cfg, fam)), cfg)
        assert dm < 1e-9
        assert dq < 1e-8

    @pytest.mark.parametrize("step", [{"adaptive": True}, {"dt": 1e-2}], ids=["controlled", "fixed-dt"])
    def test_mass_drift_is_zero_by_construction(self, cnoidal, step):
        # mode 0 has no linear term (lin[0] = 0) and no nonlinear term
        # (dx[0] = 0), so E[0] = 1 carries it bit for bit through every step:
        # the mass gate of status cannot fail
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, T=0.5, **step)
        assert sim.simulate(cfg, fam, waves.VelocityLaw.constant(fam.v)).mass_drift == 0.0

    def test_fourth_order_convergence(self):
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]

        def final_error(dt):
            cfg = SimConfig(p=p, N=128, dt=dt, T=0.5)
            r = run(cfg, init_from_family(cfg, fam), snapshots=2)
            return np.max(np.abs(r.fields()[-1] - waves.evaluate(fam, cfg.grid(), r.ts[-1])))

        factor = final_error(2e-3) / final_error(1e-3)
        assert 12.0 <= factor <= 20.0

    def test_spatial_resolution_reaches_temporal_floor(self):
        p = PdeParams(1.0, 1.0, 1.0, 0.5)
        fam = solve_closed_form(p)[0]

        def final_error(N):
            cfg = SimConfig(p=p, N=N, dt=1e-3, T=0.25)
            r = run(cfg, init_from_family(cfg, fam), snapshots=2)
            return np.max(np.abs(r.fields()[-1] - waves.evaluate(fam, cfg.grid(), r.ts[-1])))

        e64, e128 = final_error(64), final_error(128)
        # smooth data: both resolutions already sit on the temporal error floor
        assert abs(e64 - e128) < 0.2 * e128 + 1e-12

    def test_shape_preservation_under_best_shift(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=2e-4, T=0.5)
        r = run(cfg, init_from_family(cfg, fam), snapshots=5)
        ps = track_positions(r, cfg)
        k = 2 * np.pi * np.fft.fftfreq(cfg.N, d=cfg.length / cfg.N)
        u0hat = r.uhat[0]
        uT = r.fields()[-1]
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
        ts = np.linspace(0, 1, 11)
        r = Run(ts, ts, np.fft.fft([prof(0.3 * t) for t in ts], axis=1), 0, 0, 0.0)
        v, resid = measure_velocity(ts, track_positions(r, cfg))
        assert v == pytest.approx(0.3, abs=1e-10)
        assert resid < 1e-10

    def test_simulated_family_speed(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=256, dt=2e-4, T=0.5)
        v = sim.simulate(cfg, fam, waves.VelocityLaw.constant(fam.v)).v_measured
        assert v == pytest.approx(0.75, abs=1e-4)

    def test_constant_field_has_no_signal(self, cnoidal):
        with pytest.raises(ValueError, match="no traveling signal"):
            dominant_mode(np.fft.fft(np.full(128, 0.5)))

    def test_needs_three_snapshots(self, cnoidal):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128)
        uhat0 = init_from_family(cfg, fam)
        ts = np.zeros(2)
        with pytest.raises(ValueError, match="3 snapshots"):
            measure_velocity(ts, track_positions(Run(ts, ts, np.array([uhat0, uhat0]), 0, 0, 0.0), cfg))

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
        cfg = SimConfig(p=p, N=64)
        u0 = np.fft.ifft(init_from_family(cfg, fam)).real
        k_max = 2.0 * np.pi * 31 / cfg.length  # the Nyquist mode (32) is zeroed
        cfl = sim.stability_report(cfg, u0, 1e-3)
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
            assert spectral_residuals([fam], N=256)[0] < 1e-8

    def test_one_jacobi_evaluation_serves_the_four_families(self, monkeypatch):
        # each residual equals, bit for bit, that of the family's own profile
        # from waves.evaluate
        p = PdeParams(0.5, 1.0, 1.0, 0.6)
        fams = solve_closed_form(p)
        cfg = SimConfig(p, N=256)
        k = sim._wavenumbers(256, cfg.length)
        want = []
        for fam in fams:
            u = waves.evaluate(fam, cfg.grid(), 0.0)
            uhat = np.fft.fft(u)
            ux, uxxx = np.fft.ifft(1j * k * uhat).real, np.fft.ifft(-1j * k**3 * uhat).real
            want.append(float(np.max(np.abs((-fam.v + 0.5 * u + 1.0 * u**2) * ux + 1.0 * uxxx))))
        calls = []
        jacobi = elliptic.jacobi
        monkeypatch.setattr(elliptic, "jacobi", lambda *args: calls.append(args) or jacobi(*args))
        got = spectral_residuals(fams, N=256)
        assert len(calls) == 1
        assert got == want
        with pytest.raises(ValueError, match="share"):
            spectral_residuals([fams[0], solve_closed_form(PdeParams(0.5, 1.0, 1.0, 0.7))[0]])

    def test_m_one_windowed_residual(self):
        # the windowed sech needs twice the modes of one elliptic period
        assert max(spectral_residuals(solve_closed_form(PdeParams(0, 1, 1, 1.0)), N=512)) < 1e-8

    def test_deterministic_run_naming_and_files(self, cnoidal, tmp_path):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=128, dt=1e-3, T=0.02)
        r = run(cfg, init_from_family(cfg, fam), snapshots=3)
        d1 = write_snapshots(r, cfg, tmp_path / "a")
        d2 = write_snapshots(r, cfg, tmp_path / "b")
        assert d1.name == d2.name == "run-%s" % config_hash(cfg)
        f1 = sorted(q.name for q in d1.iterdir())
        assert f1 == sorted(q.name for q in d2.iterdir())
        for name in f1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_snapshot_files_match_a_line_by_line_rendering(self, cnoidal, tmp_path):
        p, fam = cnoidal
        cfg = SimConfig(p=p, N=64, dt=1e-3, T=0.01)
        x = cfg.grid()
        # magnitudes and signs a wave never takes go through the same template
        u = np.array([-0.0, 1e-300, -1.5e17, np.pi] + [2.0 / 3.0] * (cfg.N - 4))
        uhat = np.fft.fft([waves.evaluate(fam, x, 0.0), waves.evaluate(fam, x, 0.01), u], axis=1)
        ts = np.array([0.0, 0.005, 0.01])
        rundir = write_snapshots(Run(ts, ts, uhat, 10, 0, 1e-3), cfg, tmp_path)
        # each row is rendered from its own inverse FFT, one snapshot at a time
        for i, uh in enumerate(uhat):
            lines = ["x,u"] + ["%.17g,%.17g" % (xv, uv) for xv, uv in zip(x, np.fft.ifft(uh).real)]
            assert (rundir / ("snapshot-%03d.csv" % i)).read_text() == "\n".join(lines) + "\n"
