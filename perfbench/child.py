"""One fresh interpreter of the benchmark: a closed-loop, single-client load
generator that calls ``kdvmkdv.cli.main(argv)`` in-process.

It times the import of ``kdvmkdv.cli`` plus building the parser (set-up),
then the first op (cold), then repeats the op with no pause while another op
still fits in ``--seconds``, and at least once.  Between the calls of the
warm ops it times a fixed reference kernel (``reference``) at least every
``REFERENCE_EVERY_S``, so that each call's time can also be given in units of
the machine's speed around it (``normalize``).  It does not check outputs:
each call's exit code, output and error are appended to ``calls.jsonl`` in
the work directory, and a simulation's summary and last snapshot are kept
under ``keep/<call>/``, for ``run.py`` to check after this interpreter has
exited.  So the oracle's imports and memory stay out of this process.  With
``--traced`` the span wrappers are installed before the package is imported
and per-layer numbers are computed for each warm op.  The timings are one
JSON object on the last line of standard output.

Run by ``run.py``; by hand, from the root of a checkout:
    python3 perfbench/child.py --workload simulate --seed 1 --seconds 5 --work .perfbench-work/w

With ``--traced`` the first warm op's spans are written to
``.perfbench-work/spans-<workload>.csv`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

REFERENCE_EVERY_S = 0.2


def _call(cli, argv: list[str]):
    """Run one CLI call; returns (wall_s, cpu_s, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except Exception:  # the op fails; the load generator keeps running
            rc = None
            error = traceback.format_exc(limit=-3)
        c1, w1 = time.process_time(), time.perf_counter()
    return w1 - w0, c1 - c0, rc, out.getvalue(), error or err.getvalue()


def reference() -> tuple[float, float]:
    """Time a fixed kernel that mixes the kinds of work the package does:
    interpreted integer arithmetic, exact fractions and NumPy arithmetic on
    256-point arrays (no FFT, which the tracer wraps).  It takes about 10 ms
    and shares no code or state with the package; the collector is paused so
    that the package's heap cannot lengthen it.  Returns (wall_s, cpu_s)."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 256)
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        s = 0
        for i in range(30000):
            s += i * i % 7
        f = Fraction(0)
        for i in range(1, 750):
            f += Fraction(1, i)
        y = x
        for _ in range(750):
            y = 0.5 * (y + x * x * x) - np.abs(y) * 1e-3
        c1, w1 = time.process_time(), time.perf_counter()
    finally:
        gc.enable()
    return w1 - w0, c1 - c0


def normalize(timeline: list[tuple]) -> dict[int, list[float]]:
    """Per-op wall and CPU time in reference units.

    `timeline` holds, in the order they ran, ``("ref", wall, cpu)`` samples of
    `reference` and ``("call", op, wall, cpu)`` entries; it starts and ends
    with a sample.  Each call is divided by the mean of the samples just
    before and just after it, and an op's value is the sum over its calls.
    Returns {op: [wall_ref, cpu_ref]}."""
    refs = [i for i, entry in enumerate(timeline) if entry[0] == "ref"]
    if not refs or refs[0] != 0 or refs[-1] != len(timeline) - 1:
        raise ValueError("the timeline must start and end with a reference sample")
    ops: dict[int, list[float]] = {}
    for before, after in zip(refs, refs[1:]):
        ref_wall = (timeline[before][1] + timeline[after][1]) / 2.0
        ref_cpu = (timeline[before][2] + timeline[after][2]) / 2.0
        for _, op, wall, cpu in timeline[before + 1:after]:
            total = ops.setdefault(op, [0.0, 0.0])
            total[0] += wall / ref_wall
            total[1] += cpu / ref_cpu
    return ops


def spans_path(root: Path, workload: str) -> Path:
    return root / ".perfbench-work" / ("spans-%s.csv" % (workload,))


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _keep_last_snapshots(outdir: Path, kept: Path) -> None:
    """Move the run directories under `outdir` to `kept`, each with its
    summary and only its last snapshot: all that the oracle reads."""
    outdir.rename(kept)
    for rundir in kept.iterdir():
        snapshots = sorted(rundir.glob("snapshot-*.csv"))
        for path in snapshots[:-1]:
            path.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="warm measuring time")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    ap.add_argument("--work", required=True, help="scratch directory for run outputs")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_external(tracer)

    t0 = time.perf_counter()
    import kdvmkdv.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import kdvmkdv

    if not Path(kdvmkdv.__file__).resolve().is_relative_to(src):
        print("kdvmkdv was imported from %s, not from %s" % (kdvmkdv.__file__, src), file=sys.stderr)
        return 2
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0
    if tracer is not None:
        tracing.install_package(tracer, kdvmkdv)

    calls = workloads.generate(args.workload, args.seed)
    work = Path(args.work)
    outdir, keep = work / "out", work / "keep"
    keep.mkdir(parents=True, exist_ok=True)
    result = {"setup_s": setup_s, "warm": [], "layers": []}
    records = open(work / "calls.jsonl", "w")
    call_id = 0
    timeline: list[tuple] = []  # reference samples and warm calls, in order
    last_reference = -float("inf")

    def sample_reference() -> None:
        nonlocal last_reference
        timeline.append(("ref", *reference()))
        last_reference = time.perf_counter()

    def run_op(op_id: int, warm: bool) -> tuple[float, float, int]:
        """Run the calls as op `op_id`; returns (wall, cpu, bytes written when traced)."""
        nonlocal call_id
        wall = cpu = 0.0
        written = 0
        for label, call_argv in calls:
            if warm and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                sample_reference()
            simulation = call_argv[0] == "simulate"
            if simulation:
                call_argv = call_argv + ["--outdir", str(outdir)]
            shutil.rmtree(outdir, ignore_errors=True)
            if tracer is not None:
                tracer.op, tracer.on = op_id, True
            w, c, rc, out, error = _call(cli, call_argv)
            if tracer is not None:
                tracer.on = False
            wall, cpu = wall + w, cpu + c
            if warm:
                timeline.append(("call", op_id, w, c))
            call_id += 1
            kept = None
            if simulation and outdir.is_dir():
                if tracer is not None:
                    written += _bytes_under(outdir)
                kept = keep / str(call_id)
                _keep_last_snapshots(outdir, kept)
            records.write(json.dumps({"op": op_id, "call": label, "argv": call_argv, "rc": rc, "out": out,
                                      "error": error.strip()[-2000:], "wall": w,
                                      "outdir": str(kept) if kept else None}) + "\n")
        return wall, cpu, written

    result["cold_s"], _, _ = run_op(0, warm=False)
    if tracer is not None:
        tracer.take()
    start = time.perf_counter()
    op_id = 1
    # another op starts only if one of median length still ends within --seconds
    while not result["warm"] or (time.perf_counter() - start
                                 + statistics.median(op[0] for op in result["warm"]) <= args.seconds):
        wall, cpu, written = run_op(op_id, warm=True)
        result["warm"].append([wall, cpu])
        if tracer is not None:
            spans, counts = tracer.take()
            layers = tracing.layer_metrics(spans, counts)
            layers["sim.write.bytes"] = written
            result["layers"].append(layers)
            if op_id == 1:
                tracing.write_spans(spans_path(root, args.workload), spans)
            del spans
        op_id += 1
    sample_reference()
    for op, in_reference_units in normalize(timeline).items():
        result["warm"][op - 1] += in_reference_units
    result["references"] = sum(entry[0] == "ref" for entry in timeline)
    records.close()
    shutil.rmtree(outdir, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
