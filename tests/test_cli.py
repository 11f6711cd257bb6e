"""Tests for the command-line interface: subcommands, exit codes, golden
output, config precedence, and output determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kdvmkdv
from kdvmkdv import waves
from kdvmkdv.ansatz import PdeParams
from kdvmkdv.cli import main
from kdvmkdv.solver import solve_closed_form

GOLDEN = Path(__file__).parent / "golden"


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

    def test_unstable_step_is_numerical_failure(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "-a", "0", "-b", "1", "-d", "1", "-m", "0.5",
            "--N", "256", "--dt", "0.05", "--T", "0.2", "--outdir", str(tmp_path),
        )
        assert code == 4
        assert "CFL" in err or "non-finite" in err

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
    def test_fixed_step_that_turns_unstable_is_numerical_failure(self, capsys, tmp_path, dt):
        # both steps pass the advective CFL gate; the Lawson step then goes
        # unstable (1e-3 drifted out of bounds, 2e-3 overflowed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "simulate", "--N", "256", "--dt", dt, "--T", "10",
                                   "--outdir", str(tmp_path))
        assert code == 4
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_default_step_keeps_a_long_run_within_bounds(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--N", "256", "--T", "10", "--outdir", str(tmp_path))
        assert code == 0
        assert "status = ok" in out
        rundir = next(tmp_path.glob("run-*"))
        x, u = np.loadtxt(rundir / "snapshot-050.csv", delimiter=",", skiprows=1, unpack=True)
        fam = solve_closed_form(PdeParams(0, 1, 1, 0.5))[0]
        assert np.max(np.abs(u - waves.evaluate(fam, x, 10.0))) < 1e-9

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
        assert scale == pytest.approx(float(ctrl["linear_rotation"]) / float(fixed["linear_rotation"]))
        assert scale * 1e-4 >= 0.05 / steps * (1 - 1e-12)


class TestSweep:
    def test_sweep_over_m(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep-param", "m", "--sweep-values", "0.3,0.6",
            "-a", "0", "-b", "1", "-d", "1",
            "--N", "128", "--dt", "1e-3", "--T", "0.1", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert out.count("status = ok") == 2
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

    def test_bad_config_line_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m 0.25\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err
