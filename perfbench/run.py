"""Benchmark of the kdvmkdv command line: derive, solve, verify, simulate.

Run from the root of a checkout that holds ``src/kdvmkdv``:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads: simulate, timedep, symbolic (see workloads.py).  With
``--trace 0`` it prints the end-to-end metrics: set-up time as the median of
several fresh interpreters, then one fresh interpreter that runs a cold op
and repeats the op for ``--seconds``.  The op's wall and CPU time are
reported in seconds and, for comparing commits, in units of a reference
kernel timed between its calls (``child.reference``, ``child.normalize``):
the machine's own speed changes by up to 1.4x within seconds, and the ratio
cancels most of that.  With ``--trace 1`` it runs the
workload untraced and then traced for half the time each, and prints the
per-layer metrics.  Every call is checked by the oracle in this process,
after the measuring interpreter has exited; failed calls are listed with
their reasons.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  Metric units are read from
``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, the measuring one included
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    """A measuring interpreter exited abnormally or printed no result."""


def _child(root: Path, work: Path, args, *extra: str, seconds: float = 0.0, started: float) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--work", str(work), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    budget = max(10.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget, env=env, cwd=root)
    except subprocess.TimeoutExpired:
        raise ChildFailed("measuring interpreter exceeded %.0f s" % (budget,)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("measuring interpreter exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_calls(root: Path, work: Path, result: dict) -> None:
    """Check every call the measuring interpreter recorded; adds attempted,
    failed, failures, per-call wall times and simulation accuracy (maxima)
    to `result`."""
    import oracle

    goldens = oracle.Goldens(root)
    result.update(attempted=0, failed=0, failures=[], calls={}, accuracy={})
    with open(work / "calls.jsonl") as fh:
        for line in fh:
            call = json.loads(line)
            result["attempted"] += 1
            result["calls"].setdefault(call["call"], []).append(call["wall"])
            if call["rc"] is None:
                reasons = ["raised: " + call["error"].splitlines()[-1]]
            else:
                outdir = Path(call["outdir"]) if call["outdir"] else work / "out"
                try:
                    reasons = oracle.check(call["argv"], call["rc"], call["out"], outdir, goldens, result["accuracy"])
                except Exception as exc:  # unreadable output fails the call, not the run
                    reasons = ["oracle could not read the output: %r" % (exc,)]
            if reasons:
                result["failed"] += 1
                result["failures"].append(dict(call, reasons=reasons))


def _failures(result: dict) -> list[str]:
    lines = []
    for f in result["failures"]:
        lines.append("FAILED op %d call %s: %s  argv=%s" % (f["op"], f["call"], "; ".join(f["reasons"]), " ".join(f["argv"])))
        if f["error"]:
            lines.append("  stderr: " + f["error"][-400:].replace("\n", "\n  stderr: "))
    return lines


def _call_medians(result: dict) -> list[str]:
    return ["  call %-22s median %.4f s over %d" % (label, statistics.median(ws), len(ws))
            for label, ws in result["calls"].items()]


def measure(root: Path, work: Path, args, started: float) -> tuple[dict, list[str], dict]:
    """End-to-end metrics, untraced."""
    def setup_only() -> float:
        return _child(root, work, args, "--setup-only", started=started)["setup_s"]

    # set-up samples before and after the measuring interpreter, so that a
    # burst of load on the machine does not hit all of them
    extra = SETUP_SAMPLES - 1
    setups = [setup_only() for _ in range(extra // 2)]
    main = _child(root, work, args, seconds=args.seconds, started=started)
    check_calls(root, work, main)
    setups += [main["setup_s"]] + [setup_only() for _ in range(extra - extra // 2)]
    walls = [op[0] for op in main["warm"]]
    q1, med, q3 = _quartiles(walls)
    n1, solution_norm, n3 = _quartiles([op[2] for op in main["warm"]])
    cpu_norm = statistics.median(op[3] for op in main["warm"])
    # solution_s, cpu_s and cold_op_s are printed but not returned as
    # metrics: the machine's speed swings them by more than any usable bound
    # between runs of the same code (README.md)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solution_norm": (solution_norm, "ref"),
        "cpu_norm": (cpu_norm, "ref"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }
    rate = main["failed"] / main["attempted"]
    lines = [
        "  setup_s       %.4f s   median of %d fresh interpreters" % (metrics["setup_s"][0], len(setups)),
        "  cold_op_s     %.4f s   first op in a fresh interpreter" % (main["cold_s"],),
        "  solution_s    %.4f s   median warm op, n=%d, q1=%.4f, q3=%.4f" % (med, len(walls), q1, q3),
        "  cpu_s         %.4f s   median process CPU per warm op (all threads)"
        % (statistics.median(op[1] for op in main["warm"]),),
        "  solution_norm %.4f ref median warm op in reference units, q1=%.4f, q3=%.4f, %d reference samples"
        % (solution_norm, n1, n3, main["references"]),
        "  cpu_norm      %.4f ref median process CPU per warm op in reference units" % (cpu_norm,),
        "  peak_rss_mb   %.1f MB" % (main["rss_mb"],),
        "  failure_rate  %.4g      %d of %d calls failed" % (rate, main["failed"], main["attempted"]),
    ] + _call_medians(main) + _failures(main)
    return metrics, lines, main


def measure_layers(root: Path, work: Path, args, started: float, units: dict[str, str]) -> tuple[dict, list[str], list[dict]]:
    """Per-layer metrics from a traced run, and the tracing overhead."""
    half = args.seconds / 2.0
    plain = _child(root, work, args, seconds=half, started=started)
    check_calls(root, work, plain)
    traced = _child(root, work, args, "--traced", seconds=half, started=started)
    check_calls(root, work, traced)
    values = {name: statistics.median(op[name] for op in traced["layers"]) for name in traced["layers"][0]}
    for key in ("linf_rel_error", "mass_drift", "quad_drift"):
        values["sim." + key] = max(r["accuracy"].get(key, 0.0) for r in (plain, traced))
    values["trace.overhead"] = (statistics.median(op[2] for op in traced["warm"])
                                / statistics.median(op[2] for op in plain["warm"]))
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    lines = ["  per-layer values are medians over %d traced warm ops (%d untraced for trace.overhead);"
             % (len(traced["warm"]), len(plain["warm"])),
             "  counts repeat exactly, times are for reading and not for comparison"]
    lines += ["  %-36s %.6g %s" % (name, value, unit) for name, (value, unit) in metrics.items()]
    lines.append("  spans of the first traced op: %s" % (child.spans_path(root, args.workload).relative_to(root),))
    lines += _failures(plain) + _failures(traced)
    return metrics, lines, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="warm measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd().resolve()
    if not (root / "src" / "kdvmkdv" / "cli.py").is_file():
        print("error: %s holds no src/kdvmkdv; run from the root of a kdvmkdv checkout" % (root,),
              file=sys.stderr)
        return 2
    bench = root / "BENCHMARK.json"
    if not bench.is_file():
        print("error: %s holds no BENCHMARK.json" % (root,), file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in json.loads(bench.read_text())["per_layer"]}
    work = root / ".perfbench-work" / ("run-%d" % (os.getpid(),))
    try:
        if args.trace:
            metrics, lines, results = measure_layers(root, work, args, started, units)
        else:
            metrics, lines, main_result = measure(root, work, args, started)
            results = [main_result]
    except ChildFailed as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
