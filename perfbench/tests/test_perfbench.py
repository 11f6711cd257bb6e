"""Tests of the benchmark itself: generator determinism, the oracle, span
self time and a smoke run of every workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from scipy.special import ellipj  # noqa: E402


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def _tables(argv) -> tuple[list[float], list[float]]:
    pairs = [p.split(":") for p in oracle.parse_flags(argv)["f"][len("tab:"):].split(",")]
    return [float(t) for t, _ in pairs], [float(v) for _, v in pairs]


def test_seeds_draw_valid_parameters():
    for seed in range(200):
        calls = sum((workloads.generate(w, seed) for w in ("simulate", "timedep", "symbolic")), [])
        for _, argv in calls:
            if argv[0] == "derive":
                continue
            flags = oracle.parse_flags(argv)
            assert float(flags["b"]) * float(flags["d"]) > 0
            if "m" in flags:
                assert 0.1 <= float(flags["m"]) <= 0.95
            if flags.get("f", "unit").startswith("tab:"):
                times, values = _tables(argv)
                assert times[0] <= 0.5 and times[-1] >= 6.0 and min(values) > 0.0


def test_simulated_table_is_kinked_and_verified_table_is_straight():
    for seed in range(20):
        calls = dict(workloads.generate("timedep", seed))
        times, values = _tables(calls["verify-timedep-tab"])
        slopes = np.diff(values) / np.diff(times)
        assert np.ptp(slopes) < 1e-12
        times, values = _tables(calls["simulate-tab"])
        assert any(1.0 < t < 1.0 + float(workloads.SHORT_T) for t in times)
    kinked = [_tables(dict(workloads.generate("timedep", s))["simulate-tab"])[1] for s in range(20)]
    assert sum(np.ptp(np.diff(v)) > 0.05 for v in kinked) >= 15


def test_symbolic_sets_cover_the_grids_every_seed():
    for seed in range(50):
        sets = [oracle.parse_flags(argv) for label, argv in workloads.generate("symbolic", seed) if label == "verify"]
        assert len(sets) == workloads.SYMBOLIC_SETS
        for key in ("b", "d"):
            assert sorted(f[key].lstrip("-") for f in sets) == sorted(workloads._MAGNITUDES)
        assert sum(f["b"].startswith("-") for f in sets) == workloads.SYMBOLIC_SETS // 2
        assert set(workloads._A_VALUES) <= {f["a"] for f in sets}
        bins = [(0.10, 0.23), (0.24, 0.37), (0.38, 0.52), (0.53, 0.66), (0.67, 0.80), (0.81, 0.95)]
        ms = sorted(float(f["m"]) for f in sets)
        assert all(lo <= m <= hi for m, (lo, hi) in zip(ms, bins))


def test_simulate_op_holds_a_wave_and_its_negative():
    for seed in range(20):
        fams = []
        for _, argv in workloads.generate("simulate", seed):
            f = oracle.parse_flags(argv)
            fams.append(oracle.family(*(float(f[k]) for k in "abdm"), int(f["sign-a"]), int(f["sign-b"])))
        for key in "ABD":
            assert fams[1][key] == -fams[0][key]
        assert fams[1]["v"] == fams[0]["v"]


def test_timedep_draws_waves_positive_everywhere():
    xi = np.linspace(-20.0, 20.0, 2001)
    for seed in range(50):
        for _, argv in workloads.generate("timedep", seed):
            if argv[0] == "verify":
                continue
            f = oracle.parse_flags(argv)
            fam = oracle.family(float(f["a"]), float(f["b"]), float(f["d"]), float(f["m"]), 1, 1)
            _, cn, dn, _ = ellipj(xi, float(f["m"]))
            assert np.min(fam["A"] * cn + fam["B"] * dn + fam["D"]) > 0.0


# -- oracle ------------------------------------------------------------------


def _fake_run(tmp_path: Path, flags: dict, perturb: float = 0.0, status: str = "ok") -> Path:
    rundir = tmp_path / "run-test"
    rundir.mkdir()
    a, b, d, m = (float(flags[k]) for k in ("a", "b", "d", "m"))
    fam = oracle.family(a, b, d, m, 1, 1)
    L = 4.0 * 1.8540746773013719  # 4 K(0.5)
    x = -L / 2 + L * np.arange(64) / 64
    _, cn, dn, _ = ellipj(x - fam["v"] * 1.0, m)
    u = fam["A"] * cn + fam["B"] * dn + fam["D"]
    u[10] += perturb
    rows = "\n".join("%.17g,%.17g" % (xv, uv) for xv, uv in zip(x, u))
    (rundir / "snapshot-000.csv").write_text("x,u\n" + rows + "\n")
    (rundir / "snapshot-001.csv").write_text("x,u\n" + rows + "\n")
    (rundir / "summary.txt").write_text("mass_drift = 0\nquad_drift = 1e-14\nstatus = %s\n" % (status,))
    return rundir


FLAGS = {"a": "0", "b": "1", "d": "1", "m": "0.5"}


def test_oracle_accepts_exact_snapshot(tmp_path):
    reasons, acc = oracle.check_run(_fake_run(tmp_path, FLAGS), FLAGS, 0.5)
    assert reasons == []
    assert acc["linf_rel_error"] < 1e-14


def test_oracle_rejects_perturbed_snapshot(tmp_path):
    reasons, acc = oracle.check_run(_fake_run(tmp_path, FLAGS, perturb=1e-6), FLAGS, 0.5)
    assert reasons and "L-inf" in reasons[0]
    assert acc["linf_rel_error"] > 1e-8


def test_oracle_rejects_bad_status(tmp_path):
    reasons, _ = oracle.check_run(_fake_run(tmp_path, FLAGS, status="velocity-or-drift-out-of-bounds"), FLAGS, 0.5)
    assert any("status" in r for r in reasons)


def test_recorded_calls_are_checked_after_the_run(tmp_path):
    argv = ["verify", "-a=0.5", "-b=1", "-d=1.5", "-m=0.3"]
    rc, out = _cli(argv)
    records = [{"op": 1, "call": "verify", "argv": argv, "rc": code, "out": out, "error": "",
                "wall": 0.1, "outdir": None} for code in (rc, 1)]
    records.append(dict(records[0], rc=None, error="Traceback\nZeroDivisionError: boom"))
    (tmp_path / "calls.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    result: dict = {}
    run.check_calls(ROOT, tmp_path, result)
    assert result["attempted"] == 3 and result["failed"] == 2
    assert "expected 0" in result["failures"][0]["reasons"][0]
    assert result["failures"][1]["reasons"] == ["raised: ZeroDivisionError: boom"]


def _cli(argv):
    import kdvmkdv.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_oracle_rejects_wrong_exit_codes(tmp_path):
    goldens = oracle.Goldens(ROOT)
    argv = ["verify", "-a=0.5", "-b=1", "-d=1.5", "-m=0.3"]
    rc, out = _cli(argv)
    assert rc == 0 and oracle.check(argv, rc, out, tmp_path, goldens, {}) == []
    assert oracle.check(argv, 1, out, tmp_path, goldens, {})
    perturbed = argv + ["--perturb", "v=+0.1"]
    rc, out = _cli(perturbed)
    assert rc == 1 and oracle.check(perturbed, rc, out, tmp_path, goldens, {}) == []
    assert oracle.check(perturbed, 0, out, tmp_path, goldens, {})
    derive = ["derive", "--order", "1"]
    rc, out = _cli(derive)
    assert oracle.check(derive, rc, out, tmp_path, goldens, {}) == []
    assert oracle.check(derive, 2, out, tmp_path, goldens, {})
    assert oracle.check(derive, rc, out.replace("a + 2*b*D", "a + 3*b*D"), tmp_path, goldens, {})


def test_oracle_rejects_a_wrong_root(tmp_path):
    goldens = oracle.Goldens(ROOT)
    argv = ["solve", "-a=0", "-b=1", "-d=1", "-m=0.5", "--numeric"]
    rc, out = _cli(argv)
    assert oracle.check(argv, rc, out, tmp_path, goldens, {}) == []
    wrong = out.replace("tag=matches-closed-form", "tag=outside paper classes", 1)
    assert oracle.check(argv, rc, wrong, tmp_path, goldens, {})


def test_canonical_derivation_ignores_term_order_only():
    text = "sn: a*b + 2*b*A**2 - d = 0\n"
    assert oracle.canonical(text) == oracle.canonical("sn: 2*A**2*b - d + b*a = 0\n")
    assert oracle.canonical(text) != oracle.canonical("sn: a*b + 2*b*A**2 + d = 0\n")
    assert oracle.canonical(text) != oracle.canonical("sn: a*b + 2*b*A**3 - d = 0\n")


# -- spans -------------------------------------------------------------------


def _span(sid, parent, name, start, end, thread=1):
    return (sid, parent, name, 1, thread, start, end, 0, 0.0, 0.0)


def test_self_time_with_overlapping_threaded_children():
    spans = [
        _span(1, 0, "cli.main", 0.0, 10.0),
        _span(2, 1, "sim.run", 1.0, 5.0, thread=2),   # worker thread A
        _span(3, 1, "sim.run", 3.0, 8.0, thread=3),   # worker thread B, overlaps A
        _span(4, 2, "fft", 2.0, 3.0, thread=2),
        _span(5, 1, "sim.write_snapshots", 9.0, 11.0),  # runs past its parent's end
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)  # union [1,8] plus [9,10]
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(1.0)
    assert tracer.busy(spans, "sim.run") == pytest.approx(9.0)
    assert tracer.busy(spans, "sim.run", "fft") == pytest.approx(9.0)
    assert tracer.layer_metrics(spans, {})["cli.self_s"] == pytest.approx(2.0)


def test_worker_thread_spans_parent_to_the_open_main_span():
    t = tracer.Tracer()
    t.on = True
    leaf = t.span(lambda: None, "leaf")

    def pool_work():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.span(pool_work, "cli.main")()
    spans, _ = t.take()
    by_name = {s[tracer.NAME]: s for s in spans}
    assert by_name["leaf"][tracer.PARENT] == by_name["cli.main"][tracer.ID]
    assert by_name["leaf"][tracer.THREAD] != by_name["cli.main"][tracer.THREAD]


def test_counter_times_outermost_calls_only():
    t = tracer.Tracer()
    t.on = True
    inner = t.counter(lambda: None, "symexpr.poly_add")
    outer = t.counter(lambda: [inner() for _ in range(3)], "symexpr.poly_mul")
    outer()
    _, counts = t.take()
    assert counts["symexpr.poly_add"] == 3 and counts["symexpr.poly_mul"] == 1
    assert counts["symexpr.s"] > 0.0


# -- reference units ---------------------------------------------------------


def test_each_call_is_divided_by_the_reference_samples_around_it():
    timeline = [
        ("ref", 2.0, 1.0),
        ("call", 1, 4.0, 4.0),
        ("call", 1, 2.0, 2.0),  # no sample between the two calls: same pair
        ("ref", 4.0, 3.0),
        ("call", 2, 6.0, 6.0),
        ("ref", 2.0, 3.0),
    ]
    ops = child.normalize(timeline)
    assert ops[1] == pytest.approx([6.0 / 3.0, 6.0 / 2.0])
    assert ops[2] == pytest.approx([6.0 / 3.0, 6.0 / 3.0])


def test_normalize_needs_samples_at_both_ends():
    with pytest.raises(ValueError):
        child.normalize([("ref", 1.0, 1.0), ("call", 1, 1.0, 1.0)])
    with pytest.raises(ValueError):
        child.normalize([("call", 1, 1.0, 1.0), ("ref", 1.0, 1.0)])


# -- smoke -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_each_workload(workload, tmp_path):
    """One op of each workload through the CLI and the oracle, with
    simulations shortened to a few steps."""
    goldens = oracle.Goldens(ROOT)
    accuracy: dict = {}
    for _, argv in workloads.generate(workload, 1):
        if argv[0] == "simulate":
            argv = argv + ["--T", "0.005", "--outdir", str(tmp_path)]
        rc, out = _cli(argv)
        assert oracle.check(argv, rc, out, tmp_path, goldens, accuracy) == []
    if workload != "symbolic":
        assert 0.0 <= accuracy["linf_rel_error"] < oracle.LINF_REL_TOL


_COUNT_FFT = """
import contextlib, io, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
t = tracer.Tracer()
tracer.install_external(t)
import kdvmkdv, kdvmkdv.cli as cli
tracer.install_package(t, kdvmkdv)
t.on = True
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--outdir", sys.argv[3]]) == 0
spans, _ = t.take()
print(sum(s[tracer.NAME] == "fft" for s in spans), sum(s[tracer.N] for s in spans if s[tracer.NAME] == "sim.run"))
"""


def test_default_simulate_call_counts(tmp_path):
    """A default simulate call makes 80 054 FFT calls for 10 000 steps."""
    proc = subprocess.run([sys.executable, "-c", _COUNT_FFT, str(BENCH), str(ROOT / "src"), str(tmp_path)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["80054", "10000"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_listed_metric(trace):
    proc = _run(ROOT, "--workload", "symbolic", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    if trace == "0":
        assert "cold_op_s" in proc.stdout and "failure_rate" in proc.stdout


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = _run(tmp_path, "--workload", "symbolic", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
