"""Tests for the command-line interface: subcommands, exit codes, golden
output, config precedence, and output determinism."""

import hashlib
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kdvmkdv
from kdvmkdv import sim, solver, waves
from kdvmkdv.ansatz import PdeParams, derive_system
from kdvmkdv.cli import _exact, build_parser, main
from kdvmkdv.elliptic import complete_K
from kdvmkdv.solver import solve_closed_form

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH_GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only by the calls that integrate or interpolate."""
    src = str(Path(kdvmkdv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, kdvmkdv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_timedep_verify_leaves_scipy_integrate_unloaded():
    """The velocity law integrates without scipy.integrate."""
    src = str(Path(kdvmkdv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, kdvmkdv.cli\n"
        "rc = kdvmkdv.cli.main(['verify', '--timedep', '--f', 'poly:1.2,0.25,0.03'])\n"
        "print(rc, 'scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_one_parser_serves_every_call(capsys):
    """Calls that share the cached parser print what a freshly built one prints."""
    calls = [["verify", "--perturb", "v=+0.1"], ["verify"], ["verify", "--perturb", "x=1"],
             ["solve", "-m"], ["--help"], ["derive", "--order", "1"]]
    shared = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 2, 2, 0, 0]
    assert build_parser() is build_parser()


class TestDerive:
    def test_order_one_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--order", "1")
        assert code == 0
        assert out == (GOLDEN / "derive_order1.txt").read_text()

    def test_first_line_is_the_lowest_equation(self, capsys):
        _, out, _ = run_cli(capsys, "derive", "--order", "1")
        assert out.splitlines()[0] == "sn: a + 2*b*D + a*m + 2*b*m*D = 0"
        assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == 7

    def test_timedep_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--order", "1", "--timedep")
        assert code == 0
        assert out == (GOLDEN / "derive_order1_timedep.txt").read_text()
        assert " w " in out or "w =" in out or "-w" in out
        assert "h" in out

    def test_formal_signs_leave_the_printed_order_unchanged(self, capsys):
        # verify and solve use the registered symbols sqrtm, sqrtq, binv, sgnA
        # and sgnB; derivations printed after them must not change
        assert main(["verify", "--perturb", "A=+0.5"]) == 1
        assert main(["solve", "--numeric"]) == 0
        for argv, golden in (([], "derive_order1.txt"), (["--timedep"], "derive_order1_timedep.txt")):
            capsys.readouterr()
            assert main(["derive", "--order", "1", *argv]) == 0
            assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_goldens_hold_in_any_order_of_derivations(self, capsys):
        # the symbol order is fixed, so what one process derived before does
        # not change what it prints next
        goldens = {
            ("2",): PERFBENCH_GOLDEN / "derive_order2.txt",
            ("3",): PERFBENCH_GOLDEN / "derive_order3.txt",
            ("1",): GOLDEN / "derive_order1.txt",
            ("1", "--timedep"): GOLDEN / "derive_order1_timedep.txt",
        }
        for argv in (("2",), ("3",), ("3",), ("2",), ("1",), ("1", "--timedep")):
            code, out, _ = run_cli(capsys, "derive", "--order", *argv)
            assert code == 0
            assert out == goldens[argv].read_text()

    def test_order_four_text_is_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--order", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fe5178157594d11adc00ad3b8cdd0ec4056176b2a78904a05e779566b74b6f72"
        )

    def test_invalid_order_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "derive", "--order", "0")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "system.txt"
        code, out, _ = run_cli(capsys, "derive", "--order", "2", "--output", str(target))
        assert code == 0
        assert target.read_text().strip() == out.strip()


class TestSolve:
    def test_four_records_with_unit_velocity(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-a", "0", "-b", "1", "-d", "1", "-m", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all("v=1" in line for line in lines)

    def test_offset_in_every_record(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-a", "2", "-b", "1", "-d", "1", "-m", "0.5")
        assert code == 0
        assert all("D=-1" in line for line in out.strip().splitlines())

    def test_no_real_solution_exit(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-a", "0", "-b", "1", "-d", "-1", "-m", "0.5")
        assert code == 3
        assert "no real" in err

    def test_degenerate_b_zero(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-b", "0")
        assert code == 3
        assert "KdV" in err

    @pytest.mark.parametrize("seed", range(4))
    def test_numeric_roots_print_in_the_order_of_their_closed_forms(self, capsys, seed):
        # (+,+) and (+,-) share A: B orders them, not the last bits of A
        rng = np.random.default_rng(seed)
        text = [str(rng.integers(-8, 9) / 4), str(rng.integers(2, 9) / 4), str(rng.integers(2, 9) / 4),
                str(rng.integers(5, 96) / 100)]
        code, out, _ = run_cli(capsys, "solve", "--numeric", "-a", text[0], "-b", text[1],
                               "-d", text[2], "-m", text[3])
        assert code == 0
        printed = [
            np.array([float(field.split("=")[1]) for field in line.split()[1:5]])
            for line in out.splitlines() if line.startswith("root ")
        ]
        closed = [np.array([f.A, f.B, f.D, f.v])
                  for f in solve_closed_form(PdeParams(*(float(t) for t in text)))]
        assert len(printed) == 4
        matched = [min(closed, key=lambda c: np.max(np.abs(root - c))) for root in printed]
        assert [tuple(c) for c in matched] == sorted(tuple(c) for c in closed)

    @pytest.mark.parametrize("argv", [
        ["verify", "-a=inf"],
        ["verify", "-a=nan"],
        ["solve", "-d=inf"],
        ["solve", "-b=1e400"],
        ["simulate", "-d=-inf"],
    ])
    def test_non_finite_parameters_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err and err.count("\n") == 1

    def test_numeric_roots_are_tagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5", "--numeric"
        )
        assert code == 0
        root_lines = [l for l in out.strip().splitlines() if l.startswith("root ")]
        assert len(root_lines) == 4
        assert all("tag=matches-closed-form" in l for l in root_lines)


class TestVerify:
    def test_default_parameters_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS symbolic" in out and "PASS exact" in out and "PASS pde-residual" in out

    def test_perturbed_velocity_fails_naming_equations(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb", "v=+0.1")
        assert code == 1
        assert "FAIL" in out
        assert "sn*dn" in out and "sn*cn" in out

    def test_perturbed_residuals_print_term_by_term(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb", "A=+0.5",
                               "-a", "1", "-b", "2", "-d", "3", "-m", "0.5")
        assert code == 1
        lines = out.splitlines()
        symbolic = lines.index("FAIL symbolic signs(-1,+1): nonzero residuals:")
        assert lines[symbolic + 2] == "  equation[sn*cn]: 1/2*b + 1/4*b*m - 2*b*sqrtm*sqrtq - b*m*sqrtm*sqrtq"
        exact = lines.index("FAIL exact family AB>0,D<0 sign_A=-1 sign_B=-1:")
        assert lines[exact + 4] == "  equation[sn**3*cn]: 3/2 - 6*sqrtm*sqrtq"

    def test_one_reduction_serves_all_eight_checks(self, capsys, monkeypatch):
        reduced = []
        reduce = solver._reduce
        monkeypatch.setattr(solver, "_reduce", lambda poly: reduced.append(poly) or reduce(poly))
        code, out, _ = run_cli(capsys, "verify", "-a", "1", "-b", "2", "-d", "3", "-m", "0.5")
        assert code == 0
        assert out.count("PASS symbolic") == 4 and out.count("PASS exact") == 4
        assert len(reduced) == len(derive_system(1))

    def test_fractional_perturbation_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb", "A=+1/2")
        assert code == 1
        assert "FAIL symbolic signs(+1,+1)" in out
        assert main(["verify", "--perturb", "A=+1/0"]) == 2

    @pytest.mark.parametrize("text,value", [
        ("1.", Fraction(1)), (".5", Fraction(1, 2)), ("1E5", Fraction(10**5)), ("+1e+3", Fraction(1000)),
        ("1_000.5", Fraction(2001, 2)), ("-0", Fraction(0)), ("1e400", Fraction(10**400)),
        ("0.1", Fraction(1, 10)), ("-3/4", Fraction(-3, 4)),
    ])
    def test_decimals_and_fractions_are_read_exactly(self, text, value):
        assert _exact(text) == value

    @pytest.mark.parametrize("text", [" 1e-400", "١.٥", "1_0", "1e-1_0000"])
    def test_every_finite_parameter_is_checked_exactly(self, capsys, text):
        code, out, _ = run_cli(capsys, "verify", "-a", text)
        assert code == 0
        assert out.count("PASS exact") == 4

    @pytest.mark.parametrize("argv", [["-a", "1e-10001"], ["-m", "5E-1_0001"], ["--perturb", "v=+1e-10001"]])
    def test_huge_decimal_exponent_is_usage_error(self, capsys, argv):
        # Fraction would build the power of ten first: 0.36 s for 1e-1000000
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1 and "exponent" in err

    def test_perturbing_an_unknown_name_is_usage_error(self, capsys):
        for spec in ("a=+1", "v=+0.1,x=1"):
            code, out, err = run_cli(capsys, "verify", "--perturb", spec)
            assert code == 2
            assert "unknown" in err and out == ""

    def test_timedep_reports_both_forms(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--timedep", "--f", "exp:1")
        assert code == 0
        assert "PASS velocity-constraint" in out
        assert "REPORT velocity-paper-form" in out

    @pytest.mark.parametrize("argv", [
        ["--f", "tab:0.5:0.9,2.25:0.8,4:1.0,6:1.3", "-a=-0.5", "-b=-0.75", "-d=-1", "-m=0.84"],
        ["--f", "tab:0.5:1.424,2.25:1.566,4:1.8,6:2.18"],
        ["--f", "tab:0.5:1.00000,1.02:1.44000,2.2:1.07000,3.4:1.49000,4.7:1.59000,6:0.67000",
         "-a=0.25", "-b=-1", "-d=-1.25", "-m=0.51"],
    ])
    def test_timedep_passes_on_kinked_tables(self, capsys, argv):
        # the quadrature law meets its constraint by construction; a per-time
        # quadrature that ignores the knots made these FAIL at 1.9e-7 to 2.5e-4
        code, out, _ = run_cli(capsys, "verify", "--timedep", *argv)
        assert "PASS velocity-constraint" in out
        assert code == 0

    def test_timedep_near_zero_coefficient_ends_promptly(self, capsys):
        # f = 1 - 2t + 1.0001t^2 has its minimum 1e-4 next to t_ref = 1, where
        # np.polyval loses up to 2.2e-12 of f to cancellation; int h over
        # [1, 5] is finite (155.83), so the law is checked, not refused
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--timedep", "--f", "poly:1,-2,1.0001")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and err == ""
        assert "PASS velocity-constraint" in out

    def test_show_system(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--show-system")
        assert "sn: a + 2*b*D + a*m + 2*b*m*D = 0" in out


class TestSimulate:
    def test_m_one_is_directed_to_smaller_m(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-m", "1")
        assert code == 2
        assert "0.999999" in err

    def test_short_run_passes_criteria(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
            "--N", "128", "--dt", "5e-4", "--T", "0.25", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert "status = ok" in out
        rundirs = list(tmp_path.glob("run-*"))
        assert len(rundirs) == 1
        files = {p.name for p in rundirs[0].iterdir()}
        assert "summary.txt" in files and "velocity.csv" in files
        assert any(name.startswith("snapshot-") for name in files)
        header = (rundirs[0] / "velocity.csv").read_text().splitlines()[0]
        assert header == "t,v_measured,v_predicted"

    def test_outputs_are_bit_identical_across_runs(self, capsys, tmp_path):
        args = ["simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
                "--N", "128", "--dt", "1e-3", "--T", "0.05"]
        code1, _, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "r1"))
        code2, _, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "r2"))
        assert code1 == code2 == 0
        d1 = next((tmp_path / "r1").glob("run-*"))
        d2 = next((tmp_path / "r2").glob("run-*"))
        assert d1.name == d2.name
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_seventeen_digit_round_trip(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
            "--N", "128", "--dt", "1e-3", "--T", "0.05", "--outdir", str(tmp_path),
        )
        assert code == 0
        rundir = next(tmp_path.glob("run-*"))
        line = (rundir / "snapshot-000.csv").read_text().splitlines()[1]
        x, u = (float(v) for v in line.split(","))
        assert "%.17g,%.17g" % (x, u) == line

    def test_timedep_run(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
            "--f", "exp:1", "--N", "128", "--dt", "5e-4", "--T", "0.25",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert "status = ok" in out

    def test_m_one_is_refused_alike_by_simulate_and_sweep(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "-m", "1", "--outdir", str(tmp_path))
        assert (code, out) == (2, "") and len(err.splitlines()) == 1
        sweep_code, sweep_out, _ = run_cli(capsys, "sweep", "--sweep-param", "m", "--sweep-values", "1",
                                           "--outdir", str(tmp_path))
        assert sweep_code == 2 and sweep_out.splitlines()[1:] == err.splitlines()
        assert "0.999999" in err and "window length" in err
        assert not list(tmp_path.iterdir())

    def test_time_dependent_run_with_too_few_snapshots_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--f", "exp:1", "--dt", "1e-3", "--T", "1e-3",
                                 "--outdir", str(tmp_path))
        assert (code, out, err) == (2, "", "error: need at least 3 snapshots\n")
        assert not list(tmp_path.iterdir())

    def test_time_dependent_run_may_start_before_t_ref(self, capsys, tmp_path):
        # h = e^(-t/2), t_ref = 1 and v0 = C: X(t) = C + 2C(e^(-1/2) - e^(-t/2))
        code, out, _ = run_cli(capsys, "simulate", "--f", "exp:0.5", "--t0", "0.5", "--T", "0.2",
                               "--outdir", str(tmp_path))
        assert code == 0 and "status = ok" in out
        fam = solve_closed_form(PdeParams(0.0, 1.0, 1.0, 0.5))[0]
        X = fam.v + 2.0 * fam.v * (math.exp(-0.5) - math.exp(-0.35))
        last = sorted(next(tmp_path.glob("run-*")).glob("snapshot-*.csv"))[-1]
        x, u = np.loadtxt(last, delimiter=",", skiprows=1).T
        assert np.max(np.abs(u - waves.evaluate(fam, x - X, 0.0))) < 1e-8

    def test_negative_f_predicts_the_backward_speed(self, capsys, tmp_path):
        # f = -1 runs the clock backward: the wave moves at -C in t
        code, out, _ = run_cli(capsys, "simulate", "--f", "poly:-1", "--N", "64", "--T", "0.2",
                               "--outdir", str(tmp_path))
        summary = dict(line.split(" = ") for line in out.splitlines())
        assert code == 0 and summary["status"] == "ok"
        assert float(summary["v_predicted"]) == pytest.approx(-0.75, rel=1e-12)
        assert float(summary["v_measured"]) == pytest.approx(-0.75, rel=1e-9)

    def test_unstable_step_is_numerical_failure(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
            "--N", "256", "--dt", "0.05", "--T", "0.2", "--outdir", str(tmp_path),
        )
        assert code == 4
        assert "CFL" in err or "non-finite" in err

    def test_too_few_snapshots_is_usage_error_and_writes_nothing(self, capsys, tmp_path):
        # one step leaves two snapshots, too few to fit a speed to; the run is
        # measured before anything is written
        code, out, err = run_cli(capsys, "simulate", "--dt", "1e-3", "--T", "1e-3", "--outdir", str(tmp_path))
        assert (code, out, err) == (2, "", "error: need at least 3 snapshots\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--dt", "2e-3", "--T", "8"],
        ["--f", "exp:-0.2", "--dt", "1e-3", "--T", "3.3"],
    ], ids=["unit-f", "exp-f"])
    def test_aliased_phase_is_numerical_failure(self, capsys, tmp_path, argv):
        # the wave (C = -24.25) moves 3.88 per snapshot interval with unit f
        # (the unwrapped phase read v = 22.1), and 3.757 in the last interval
        # with h = 1/f = e^(0.2t) (2.77 on average): both beyond half the
        # period of the dominant mode, L/(2n) = 3.708
        code, out, err = run_cli(capsys, "simulate", "-a=-10", "-b", "1", "-d", "1", "-m", "0.5", *argv,
                                 "--outdir", str(tmp_path))
        assert code == 4 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "unwrap" in err
        assert not list(tmp_path.iterdir())

    def test_fast_wave_inside_the_phase_limit_is_measured(self, capsys, tmp_path):
        # 3.395 per interval is inside L/(2n) = 3.708
        code, out, _ = run_cli(capsys, "simulate", "-a=-10", "-b", "1", "-d", "1", "-m", "0.5", "--dt", "2e-3",
                               "--T", "7", "--outdir", str(tmp_path))
        assert code == 0 and "v_measured = -24.249999045206739" in out

    def test_final_time_below_one_step_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--T", "1e-5", "--outdir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:") and "no time step" in err
        assert not list(tmp_path.iterdir())

    def test_time_outside_the_table_is_usage_error(self, capsys, tmp_path):
        # t0 = t_ref = 1, so the run would need f up to t = 1.5
        code, _, err = run_cli(
            capsys, "simulate", "--f", "tab:0:1,1:2", "--T", "0.5", "--outdir", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error:") and "table" in err
        code, _, err = run_cli(capsys, "verify", "--timedep", "--f", "tab:0:1,1:2")
        assert code == 2
        assert "table" in err

    def test_table_entry_without_a_value_is_usage_error(self, capsys, tmp_path):
        for spec in ("tab:1", "tab:0:1,2", "tab:0:1:2,1:2"):
            code, _, err = run_cli(capsys, "simulate", "--f", spec, "--outdir", str(tmp_path))
            assert code == 2
            assert err.startswith("error:") and "t:f" in err
        assert not list(tmp_path.iterdir())

    def test_run_ending_on_the_last_knot_is_accepted(self, capsys, tmp_path):
        # with dt = 2e-3 the last substep time 1 + 64*dt + dt is one ulp past 1.13
        code, out, _ = run_cli(
            capsys, "simulate", "--f", "tab:0.5:1,1.13:1.2", "--N", "64", "--dt", "2e-3",
            "--T", "0.13", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert "status = ok" in out


class TestStepChoice:
    @staticmethod
    def _summary(out: str) -> dict[str, str]:
        return dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)

    @pytest.mark.parametrize("dt", ["1e-3", "2e-3"])
    def test_fixed_step_keeps_a_long_run_within_bounds(self, capsys, tmp_path, dt):
        # both steps pass the advective CFL gate, and the dispersive term,
        # integrated exactly, sets no bound of its own (L-inf 2.6e-11, 4.3e-10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "simulate", "--N", "256", "--dt", dt, "--T", "10",
                                   "--outdir", str(tmp_path))
        assert code == 0
        assert self._summary(out)["status"] == "ok"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        x, u = np.loadtxt(next(tmp_path.glob("run-*")) / "snapshot-050.csv", delimiter=",", skiprows=1, unpack=True)
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        assert np.max(np.abs(u - waves.evaluate(fam, x, 10.0))) < 1e-9

    def test_fixed_step_too_large_for_the_run_is_numerical_failure(self, capsys, tmp_path):
        # inside the CFL bound, but its estimate reads 4.0e-5 per unit time
        code, out, err = run_cli(capsys, "simulate", "--N", "64", "--dt", "0.02", "--T", "1",
                                 "--outdir", str(tmp_path))
        assert code == 4 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "too large for this run" in err

    def test_default_step_keeps_a_long_run_within_bounds(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--N", "256", "--T", "10", "--outdir", str(tmp_path))
        assert code == 0
        assert "status = ok" in out
        rundir = next(tmp_path.glob("run-*"))
        x, u = np.loadtxt(rundir / "snapshot-050.csv", delimiter=",", skiprows=1, unpack=True)
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        assert np.max(np.abs(u - waves.evaluate(fam, x, 10.0))) < 1e-9

    def test_fine_grid_long_run_takes_the_steps_of_the_chosen_grid(self, capsys, tmp_path):
        # the dispersive term is integrated exactly, so a grid finer than the
        # wave needs does not shrink the step (5 401 steps at N = 64 and 512)
        code, out, _ = run_cli(capsys, "simulate", "--N", "512", "--T", "10", "--outdir", str(tmp_path))
        assert code == 0
        summary = self._summary(out)
        assert summary["status"] == "ok" and summary["rejected_steps"] == "0"
        assert int(summary["steps"]) <= 6000
        x, u = np.loadtxt(next(tmp_path.glob("run-*")) / "snapshot-050.csv", delimiter=",", skiprows=1, unpack=True)
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        assert np.max(np.abs(u - waves.evaluate(fam, x, 10.0))) < 1e-9

    def test_chosen_grid_keeps_a_long_run_within_bounds(self, capsys, tmp_path):
        # the default wave is resolved to round-off on 64 points (5 401 steps)
        code, out, _ = run_cli(capsys, "simulate", "--T", "10", "--outdir", str(tmp_path))
        assert code == 0
        summary = self._summary(out)
        assert summary["status"] == "ok" and summary["N"] == "64"
        assert int(summary["steps"]) <= 10_000
        rundir = next(tmp_path.glob("run-*"))
        x, u = np.loadtxt(rundir / "snapshot-050.csv", delimiter=",", skiprows=1, unpack=True)
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        assert x.size == 64
        assert np.max(np.abs(u - waves.evaluate(fam, x, 10.0))) < 1e-9

    def test_fixed_step_reports_the_stability_numbers_of_its_largest_step(self, capsys, tmp_path):
        # h = 1/f = e^{t/2}: the largest tau-step is the last one, over [1.199, 1.2]
        out = run_cli(capsys, "simulate", "--f", "exp:-0.5", "--T", "0.2", "--N", "128", "--dt", "1e-3",
                      "--outdir", str(tmp_path))[1]
        summary = self._summary(out)
        dt_max = 2.0 * (math.exp(0.6) - math.exp(0.5995))
        k_max = 63 * 2.0 * math.pi / (4.0 * complete_K(0.5))
        f = waves.parse_coefficient("exp:-0.5")
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=fam.v)
        u0 = waves.evaluate(fam, sim.SimConfig(p=fam.params, N=128).grid(), 1.0, law)
        speed = float(np.max(u0**2))  # |a*u + b*u^2| with a = 0, b = 1
        assert float(summary["advective_cfl"]) == pytest.approx(dt_max * k_max * speed, rel=1e-9)
        assert float(summary["advective_cfl"]) > 1.8 * 1e-3 * k_max * speed  # at dt itself

    def test_controlled_and_fixed_runs_write_separate_directories(self, capsys, tmp_path):
        base = ["simulate", "--N", "128", "--T", "0.05", "--outdir", str(tmp_path)]
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text("dt = 1e-4\n")
        for extra in ([], ["--dt", "1e-4"], ["--config", str(cfg)]):
            assert run_cli(capsys, *base, *extra)[0] == 0
        names = {p.name for p in tmp_path.glob("run-*")}
        assert len(names) == 2 and "run-7eb48cd2ee84" in names  # fixed-step name kept

    def test_summary_reports_steps_and_the_largest_step(self, capsys, tmp_path):
        base = ["simulate", "--N", "128", "--T", "0.05", "--outdir", str(tmp_path)]
        fixed = self._summary(run_cli(capsys, *base, "--dt", "1e-4")[1])
        ctrl = self._summary(run_cli(capsys, *base)[1])
        assert (fixed["steps"], fixed["rejected_steps"]) == ("500", "0")
        steps = int(ctrl["steps"])
        assert 0 < steps < 500 and int(ctrl["rejected_steps"]) >= 0
        # the stability numbers scale with the step: the controlled run reports
        # them at its largest step, at least the mean step T/steps
        scale = float(ctrl["advective_cfl"]) / float(fixed["advective_cfl"])
        assert scale * 1e-4 >= 0.05 / steps * (1 - 1e-12)


class TestGridChoice:
    _summary = staticmethod(TestStepChoice._summary)

    def test_chosen_grid_is_recorded_in_the_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--T", "0.05", "--outdir", str(tmp_path))
        assert code == 0
        lines = (next(tmp_path.glob("run-*")) / "summary.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines[-3:]] == ["N", "spectral_tail", "status"]
        summary = self._summary(out)
        assert summary["N"] == "64" and float(summary["spectral_tail"]) < 1e-15

    @pytest.mark.parametrize("argv,name,digest", [
        (["--N", "128", "--T", "0.05"], "run-6aac0514c16e",
         "642140979b7f2a7899d04ac41b6f3d737f878fe8d760512df3fc4cfbb0e04bd6"),
        (["--N", "128", "--dt", "1e-3", "--T", "0.05"], "run-c10dac445bd1",
         "05ffeb7bf2fdddb1d24e39d2f2ec5a652b71ed41c71e001b7ab5576d299f0d98"),
        (["--N", "128", "--f", "exp:0.5", "--T", "0.05"], "run-284174158d48",
         "cf7dbe1d76aaa039f7783a6ef9301ab80351c294e6b45a280d6072850a3acbad"),
        (["--N", "128", "--dt", "1e-3", "--f", "poly:1,0.2", "--T", "0.05"], "run-9f64f0b92598",
         "9248937dca0da5a0250b14a782427dd444bbba0e2033d5f61a43a67824bbf7f2"),
        (["-m", "1", "--window-length", "60", "--T", "0.02"], "run-5536f228013c",
         "85cf99f634473a8d7755f5534754a4ac8bd9b641131738cc61221403fc80b61d"),
        (["--t0", "0.3", "--N", "128"], "run-df775545b4af",
         "b4e0043c36307fe09fcb20f419b239e108e330bfe88086ae43746fdc20779729"),
    ], ids=["controlled", "fixed", "exp-controlled", "poly-fixed", "windowed-m1", "t0-controlled"])
    def test_explicit_grid_writes_the_same_directory_as_before(self, capsys, tmp_path, argv, name, digest):
        # the directory name written before N was chosen from the spectrum,
        # and the sha256 of its files in name order, as the ETDRK4 step writes
        # them; the windowed m=1 run chooses its grid (N=1024)
        code, out, _ = run_cli(capsys, "simulate", *argv, "--outdir", str(tmp_path))
        assert code == 0
        rundir = next(tmp_path.glob("run-*"))
        assert rundir.name == name
        assert ("N" in self._summary(out)) == ("--N" not in argv)
        body = b"".join(f.read_bytes() for f in sorted(rundir.iterdir()))
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--sweep-param", "a", "--sweep-values", "0"]])
    def test_unresolved_chosen_grid_is_numerical_failure(self, capsys, tmp_path, command):
        # a unit-width sech on a window of 4000 is not resolved by N_MAX = 4096
        # points; stepping it on that grid took more than a minute
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *command, "-m", "1", "--window-length", "4000", "--T", "0.01",
                                 "--outdir", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 4
        message = err if command == ["simulate"] else out
        assert "spectral tail 0.049" in message and "pass --N" in message
        assert not list(tmp_path.iterdir())

    def test_explicit_grid_runs_an_unresolved_profile(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "-m", "1", "--window-length", "4000", "--N", "64",
                               "--dt", "1e-3", "--T", "0.002", "--outdir", str(tmp_path))
        assert code != 4 and "steps = 2" in out

    def test_periods_scale_the_chosen_grid(self, capsys, tmp_path):
        Ns = []
        for periods in ("1", "2"):
            code, out, _ = run_cli(capsys, "simulate", "--periods", periods, "--T", "0.02",
                                   "--outdir", str(tmp_path))
            assert code == 0
            Ns.append(int(self._summary(out)["N"]))
        assert Ns == [64, 128]


class TestSweep:
    def test_sweep_over_m_chooses_each_grid(self, capsys, tmp_path):
        # the gain is the cheaper step at the same accuracy: N=256 took 4 305 steps
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep-param", "m", "--sweep-values", "0.3,0.5,0.7,0.9",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert out.count("status = ok") == 4
        records = [dict(line.split(" = ", 1) for line in block.splitlines() if " = " in line)
                   for block in out.split("--- m = ")[1:]]
        assert [r["N"] for r in records] == ["64", "64", "128", "128"]
        assert sum(int(r["steps"]) for r in records) <= 4305

    def test_sweep_over_m(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep-param", "m", "--sweep-values", "0.3,0.6",
            "-a", "0", "-b", "1", "-d", "1",
            "--N", "128", "--dt", "1e-3", "--T", "0.1", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert out.count("status = ok") == 2
        assert len(list(tmp_path.glob("run-*"))) == 2

    def test_bad_value_is_reported_in_place(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--sweep-param", "m", "--sweep-values", "0.3,1.5,nan,0.5",
            "--T", "0.02", "--outdir", str(tmp_path),
        )
        assert code == 2
        assert err == ""
        blocks = out.split("--- m = ")[1:]
        assert [b.splitlines()[0] for b in blocks] == ["0.3 ---", "1.5 ---", "nan ---", "0.5 ---"]
        assert blocks[1].splitlines()[1:] == ["error: elliptic parameter m=1.5 outside [0, 1]"]
        assert blocks[2].splitlines()[1:] == ["error: elliptic parameter m=nan outside [0, 1]"]
        assert "status = ok" in blocks[0] and "status = ok" in blocks[3]
        assert len(list(tmp_path.glob("run-*"))) == 2


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample config\nm = 0.25\na = 2\nb = 1\nd = 1\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert all("D=-1" in line for line in out.strip().splitlines())
        # flag overrides the file: a=0 makes D=0
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "-a", "0")
        assert code == 0
        assert all("D=0" in line or "D=-0" in line for line in out.strip().splitlines())

    @pytest.mark.parametrize("line", ["sign-a = -1", "Tt = 5"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 0.05\n%s\n" % (line,))
        outdir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--outdir", str(outdir))
        key = line.split(" = ")[0]
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown config key %r" % (key,)) and len(err.splitlines()) == 1
        assert not outdir.exists()

    def test_bad_config_line_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m 0.25\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err
