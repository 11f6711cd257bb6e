"""Span recorder for the traced run.

Wrappers are installed from the benchmark's own files, around the calls into
each layer; the package itself is not modified.  `install_external` patches
the numpy.fft / scipy.fft transforms, `scipy.interpolate.PchipInterpolator`
construction and `scipy.integrate.quad`, and must run before `kdvmkdv` is
imported so that names the package binds at import time are the wrapped ones.
`install_package` then wraps the public functions in every kdvmkdv module
namespace that binds them (for example `cli.derive_system`) and the methods
of the time-coefficient classes.

Each span is a tuple (id, parent, name, op, thread, start, end, n, cpu0, cpu1):
`n` is a work count (FFT points, Jacobi points, simulation steps) and the cpu
fields are the thread's CPU clock.  A span opened in a worker thread with no
open span of its own is parented to the innermost open span of the main
thread.  Spans stay in memory until `take` hands them out.

The exact-arithmetic layer (`symexpr`) makes tens of thousands of calls per
op, so it is counted instead of spanned: per-thread call counts, and the wall
time spent inside outermost symexpr calls.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2",
             "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
PACKAGE_MODULES = ("cli", "sim", "waves", "elliptic", "ansatz", "solver", "symexpr")
_SYMEXPR_NAMES = {
    ("ParamPoly", "__add__"): "symexpr.poly_add",
    ("ParamPoly", "__radd__"): "symexpr.poly_add",
    ("ParamPoly", "__mul__"): "symexpr.poly_mul",
    ("ParamPoly", "__rmul__"): "symexpr.poly_mul",
    ("ParamPoly", "eval"): "symexpr.poly_eval",
    ("EllipticExpr", "__mul__"): "symexpr.expr_mul",
}
_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")

ID, PARENT, NAME, OP, THREAD, START, END, N, CPU0, CPU1 = range(10)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.on = False
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._main_stack = self._stack()
        self._thread_counts: list[dict] = []

    def _stack(self) -> list[int]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _counts(self) -> dict:
        try:
            return self._tls.counts
        except AttributeError:
            self._tls.counts = {}
            self._tls.depth = 0
            self._thread_counts.append(self._tls.counts)
            return self._tls.counts

    def span(self, fn, name: str, meter=None):
        """Wrap fn so that each call records a span named `name`; `meter`
        maps the call's arguments to the span's work count."""
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack()
            main = self._main_stack
            sid = next(self._ids)
            parent = stack[-1] if stack else (main[-1] if main else 0)
            n = meter(args, kwargs) if meter is not None else 0
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                self.spans.append((sid, parent, name, self.op, ident(), t0, t1, n, c0, c1))

        return wrapper

    def counter(self, fn, name: str):
        """Wrap fn so that each call is counted under `name`, and the time of
        outermost counted calls is added to 'symexpr.s'."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            counts = self._counts()
            counts[name] = counts.get(name, 0) + 1
            tls = self._tls
            if tls.depth:
                tls.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tls.depth -= 1
            tls.depth = 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["symexpr.s"] = counts.get("symexpr.s", 0.0) + perf() - t0
                tls.depth = 0

        return wrapper

    def take(self) -> tuple[list[tuple], dict]:
        """Hand out the spans and counts recorded so far, and reset them.
        Call only between ops, when no worker thread is running."""
        spans, self.spans = self.spans, []
        counts: dict = {}
        for per_thread in self._thread_counts:
            for key, val in per_thread.items():
                counts[key] = counts.get(key, 0) + val
            per_thread.clear()
        return spans, counts


def _size(args, kwargs) -> int:
    return int(np.size(args[0] if args else kwargs.get("a", kwargs.get("x"))))


def _steps(args, kwargs) -> int:
    cfg = args[0] if args else kwargs["cfg"]
    return int(round(cfg.T / cfg.dt))


def install_external(tracer: Tracer) -> None:
    import numpy.fft
    import scipy.fft
    import scipy.integrate
    import scipy.interpolate

    for module in (numpy.fft, scipy.fft):
        for name in FFT_NAMES:
            if hasattr(module, name):
                setattr(module, name, tracer.span(getattr(module, name), "fft", meter=_size))
    scipy.integrate.quad = tracer.span(scipy.integrate.quad, "quad")

    base = scipy.interpolate.PchipInterpolator
    record = tracer.span(base.__init__, "pchip")

    class PchipInterpolator(base):
        __doc__ = base.__doc__

        def __init__(self, *args, **kwargs):
            record(self, *args, **kwargs)

    PchipInterpolator.__module__ = base.__module__
    scipy.interpolate.PchipInterpolator = PchipInterpolator


_METERS = {"sim.run": _steps, "elliptic.jacobi": _size}


def install_package(tracer: Tracer, package) -> None:
    """Wrap the package's public functions where each module binds them,
    the time-coefficient methods and the symexpr arithmetic."""
    import importlib

    modules = [package]
    for name in PACKAGE_MODULES:
        try:
            modules.append(importlib.import_module(package.__name__ + "." + name))
        except ModuleNotFoundError:
            pass  # a layer that no longer exists reports zeros
    wrappers: dict[int, object] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            origin = getattr(obj, "__module__", "") or ""
            if not origin.startswith(package.__name__ + "."):
                continue
            if id(obj) not in wrappers:
                layer = origin.rsplit(".", 1)[1]
                name = "%s.%s" % (layer, obj.__name__)
                if layer == "symexpr":
                    wrappers[id(obj)] = tracer.counter(obj, name)
                else:
                    wrappers[id(obj)] = tracer.span(obj, name, meter=_METERS.get(name))
            setattr(module, attr, wrappers[id(obj)])

    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    waves = by_name.get("waves")
    for cls in list(vars(waves).values()) if waves else ():
        if isinstance(cls, type) and cls.__module__ == waves.__name__ and "value" in vars(cls):
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    setattr(cls, attr, tracer.span(fn, "waves.coef"))

    symexpr = by_name.get("symexpr")
    for cls_name in ("ParamPoly", "EllipticExpr") if symexpr else ():
        cls = getattr(symexpr, cls_name, None)
        if cls is None:
            continue
        for attr, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and (attr in _ARITHMETIC or not attr.startswith("_")):
                name = _SYMEXPR_NAMES.get((cls_name, attr), "symexpr.%s.%s" % (cls_name, attr))
                setattr(cls, attr, tracer.counter(fn, name))


# ---------------------------------------------------------------------------
# analysis (pure functions of a span list)
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.
    Children in other threads may overlap each other; their union counts once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered(children.get(s[ID], []), s[START], s[END])
        for s in spans
    }


def outermost(spans: list[tuple], names: set[str], by_id: dict | None = None) -> list[tuple]:
    """Spans named in `names` with no ancestor named in `names`."""
    if by_id is None:
        by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] not in names:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out.append(s)
    return out


def busy(spans: list[tuple], *names: str, by_id: dict | None = None) -> float:
    """Summed duration of the outermost spans named in `names`."""
    return sum(s[END] - s[START] for s in outermost(spans, set(names), by_id))


def layer_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer numbers of one op from its spans and counters."""
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    by_id = {s[ID]: s for s in spans}

    def busy_s(*names: str) -> float:
        return busy(spans, *names, by_id=by_id)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def work(name: str) -> int:
        return sum(s[N] for s in by_name.get(name, ()))

    runs = by_name.get("sim.run", [])
    run_s = busy_s("sim.run")
    steps = work("sim.run")
    own = self_times(spans)
    return {
        "sim.run.s": run_s,
        "sim.run.wait_s": sum((s[END] - s[START]) - (s[CPU1] - s[CPU0]) for s in runs),
        "sim.steps": steps,
        "sim.step_us": 1e6 * run_s / steps if steps else 0.0,
        "sim.fft.calls": calls("fft"),
        "sim.fft.points": work("fft"),
        "sim.init.s": busy_s("sim.init_from_family", "sim.stability_report"),
        "sim.measure.s": busy_s("sim.conservation_drift", "sim.track_positions", "sim.measure_velocity"),
        "sim.write.s": busy_s("sim.write_snapshots"),
        "waves.velocity_at.calls": calls("waves.velocity_at"),
        "waves.velocity_at.s": busy_s("waves.velocity_at"),
        "waves.velocity_paper_form.s": busy_s("waves.velocity_paper_form"),
        "waves.coef.calls": calls("waves.coef"),
        "waves.coef.s": busy_s("waves.coef"),
        "waves.spline_builds": calls("pchip"),
        "waves.quad_calls": calls("quad"),
        "waves.evaluate.s": busy_s("waves.evaluate"),
        "elliptic.jacobi.calls": calls("elliptic.jacobi"),
        "elliptic.jacobi.points": work("elliptic.jacobi"),
        "elliptic.jacobi.s": busy_s("elliptic.jacobi"),
        "ansatz.derive_system.calls": calls("ansatz.derive_system"),
        "ansatz.derive_system.s": busy_s("ansatz.derive_system"),
        "solver.back_substitute_exact.calls": calls("solver.back_substitute_exact"),
        "solver.back_substitute_exact.s": busy_s("solver.back_substitute_exact"),
        "solver.solve_numeric.s": busy_s("solver.solve_numeric"),
        "symexpr.poly_mul.calls": counts.get("symexpr.poly_mul", 0),
        "symexpr.poly_add.calls": counts.get("symexpr.poly_add", 0),
        "symexpr.expr_mul.calls": counts.get("symexpr.expr_mul", 0),
        "symexpr.poly_eval.calls": counts.get("symexpr.poly_eval", 0),
        "symexpr.s": counts.get("symexpr.s", 0.0),
        "cli.self_s": sum(own[s[ID]] for s in spans if s[NAME].startswith("cli.")),
    }


def write_spans(path, spans: list[tuple]) -> None:
    """Write spans as CSV, times relative to the first start."""
    base = min((s[START] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,parent,name,op,thread,start_s,end_s,n,thread_cpu_s\n")
        for s in spans:
            fh.write("%d,%d,%s,%d,%d,%.9f,%.9f,%d,%.9f\n" % (
                s[ID], s[PARENT], s[NAME], s[OP], s[THREAD], s[START] - base, s[END] - base,
                s[N], s[CPU1] - s[CPU0]))
