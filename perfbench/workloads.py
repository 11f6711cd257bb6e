"""Seeded workload generator: the argv lists the benchmark hands to
``kdvmkdv.cli.main``.

The seed draws only the arguments the program receives.  Identical seeds give
identical call lists.  One *op* is one pass over a workload's call list; the
same list is repeated for every op of a run, so per-op work counts repeat
exactly.

Stepping costs more the more of the field is negative (NumPy's cube of a
negative number takes a slow path), so a single draw would make a run's cost
depend on the seed.  The simulate op therefore runs the drawn wave u and its
mirror image -u (a and both amplitude signs flipped; the speed is even in a),
so every op cubes the same number of negative values.  The timedep workload
is about another layer and draws positive waves: both amplitude signs +1
(the CLI default) and a*b <= 0, so that D = -a/(2b) >= 0 and
u >= B*(1 - sqrt(m)) + D > 0 everywhere.

This module uses the standard library only, so importing it costs nothing
inside the timed set-up window of a fresh interpreter.
"""

from __future__ import annotations

import random

WORKLOADS = ("simulate", "timedep", "symbolic")

# Parameter grids.  b and d share a sign (real waves need b*d > 0); |a| <= 0.5
# keeps the constant speed C = (2bd(1+m) - a^2)/(4b) away from zero, where the
# CLI's relative velocity check has no scale.
_MAGNITUDES = ("0.5", "0.75", "1", "1.25", "1.5", "2")
_A_VALUES = ("-0.5", "-0.25", "0", "0.25", "0.5")
M_RANGE = (10, 95)  # m in hundredths
# Final times.  The simulate workload keeps the default N and dt; its T and
# the others are short enough that one run holds several warm ops, so that
# its median is a median (README.md, how it measures).
SIMULATE_T = "0.25"
SHORT_T = "0.05"  # final time of the timedep simulations
# Tables cover t in [0.5, 6]: verify evaluates the velocity law on [1, 5] and
# simulate runs t in [1, 1 + SHORT_T], so no call needs f outside its table.
# A knot at 1.02 lies inside the simulated window.  The table handed to
# simulate has seeded kinks, so the quadrature in its velocity law subdivides.
# The table handed to `verify --timedep` lies on a straight line: a kinked one
# makes it report a false FAIL (its central-difference check amplifies
# quadrature error past the 1e-7 limit; README.md, finding 1).
TAB_TIMES = ("0.5", "1.02", "2.2", "3.4", "4.7", "6")
# Parameter sets per symbolic op.  The sets of one op are stratified: b and d
# each take every magnitude once, a every value once, m one value from each
# of six equal bins, and half the sets are negative; only the pairing and the
# values inside the m bins are drawn.  So every seed does the same mix of
# exact rational work, and the op lasts about a second.
SYMBOLIC_SETS = 6


def _neg(text: str) -> str:
    return text if text == "0" else "-" + text


def draw_params(rng: random.Random) -> dict[str, str]:
    """Rational a, b, d (as exact decimals) with b*d > 0, m in [0.1, 0.95]
    and a sign pair."""
    sign = rng.choice((1, -1))
    b, d = rng.choice(_MAGNITUDES), rng.choice(_MAGNITUDES)
    if sign < 0:
        b, d = _neg(b), _neg(d)
    return {
        "a": rng.choice(_A_VALUES),
        "b": b,
        "d": d,
        "m": _draw_m(rng),
        "sign_a": rng.choice(("1", "-1")),
        "sign_b": rng.choice(("1", "-1")),
    }


def _draw_m(rng: random.Random, lo: int = M_RANGE[0], hi: int = M_RANGE[1]) -> str:
    return "%.2f" % (rng.randint(lo, hi) / 100.0)


def stratified_params(rng: random.Random, count: int = SYMBOLIC_SETS) -> list[dict[str, str]]:
    """`count` parameter sets that together cover the grids evenly (see
    SYMBOLIC_SETS); each set is valid on its own, as from draw_params."""
    def cover(values) -> list[str]:
        picks = []
        while len(picks) < count:
            picks += rng.sample(values, len(values))
        return picks[:count]

    bs, ds, a_values = cover(_MAGNITUDES), cover(_MAGNITUDES), cover(_A_VALUES)
    signs = rng.sample([1] * (count // 2) + [-1] * (count - count // 2), count)
    lo, hi = M_RANGE
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    ms = rng.sample([_draw_m(rng, edges[i], edges[i + 1] - 1) for i in range(count)], count)
    return [{"a": a, "b": b if sign > 0 else _neg(b), "d": d if sign > 0 else _neg(d), "m": m,
             "sign_a": "1", "sign_b": "1"}
            for a, b, d, sign, m in zip(a_values, bs, ds, signs, ms)]


def _pde_flags(p: dict[str, str]) -> list[str]:
    return ["-a=" + p["a"], "-b=" + p["b"], "-d=" + p["d"], "-m=" + p["m"]]


def _sign_flags(p: dict[str, str]) -> list[str]:
    return ["--sign-a=" + p["sign_a"], "--sign-b=" + p["sign_b"]]


def _flip(text: str) -> str:
    return text[1:] if text.startswith("-") else _neg(text)


def mirror(p: dict[str, str]) -> dict[str, str]:
    """Parameters of -u: D = -a/(2b), A and B change sign, v is unchanged."""
    return dict(p, a=_flip(p["a"]), sign_a=_flip(p["sign_a"]), sign_b=_flip(p["sign_b"]))


def positive(p: dict[str, str]) -> dict[str, str]:
    """Parameters of a wave that is positive everywhere (module docstring)."""
    a = p["a"].lstrip("-")
    return dict(p, a=_neg(a) if not p["b"].startswith("-") else a, sign_a="1", sign_b="1")


def _table(values) -> str:
    return "tab:" + ",".join("%s:%.5f" % (t, v) for t, v in zip(TAB_TIMES, values))


def draw_coefficients(rng: random.Random) -> dict[str, str]:
    """One nonvanishing descriptor of each kind: exp:R, poly:c0,c1,c2, and two
    tables, 'tab' on a straight line and 'tab-kinked' with a seeded value at
    every knot."""
    rate = rng.choice([r for r in range(-10, 11) if r]) * 0.05
    c0 = rng.randint(5, 15) / 10.0
    c1 = rng.randint(0, 6) * 0.05
    c2 = rng.randint(0, 10) * 0.01
    base, slope = rng.randint(6, 14) / 10.0, rng.randint(-2, 6) * 0.025
    return {
        "exp": "exp:%.2f" % (rate,),
        "poly": "poly:%.1f,%.2f,%.2f" % (c0, c1, c2),
        "tab": _table(base + slope * float(t) for t in TAB_TIMES),
        "tab-kinked": _table(rng.randint(60, 160) / 100.0 for _ in TAB_TIMES),
    }


def generate(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (label, argv) calls of one op of `workload`, drawn from `seed`.

    Simulation calls get no --outdir here; the caller appends its own.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "symbolic":
        return [
            ("derive-1", ["derive", "--order", "1"]),
            ("derive-2", ["derive", "--order", "2"]),
            ("derive-3", ["derive", "--order", "3"]),
            ("derive-1-timedep", ["derive", "--order", "1", "--timedep"]),
        ] + [call for q in stratified_params(rng) for call in (
            ("verify", ["verify", *_pde_flags(q)]),
            ("verify-perturbed", ["verify", *_pde_flags(q), "--perturb", "v=+0.1"]),
            ("solve-numeric", ["solve", *_pde_flags(q), "--numeric"]),
        )]
    p = draw_params(rng)
    if workload == "simulate":
        return [(label, ["simulate", "--T", SIMULATE_T, *_pde_flags(q), *_sign_flags(q)])
                for label, q in (("simulate", p), ("simulate-mirror", mirror(p)))]
    p = positive(p)  # timedep
    coefs = draw_coefficients(rng)
    calls = []
    for kind in ("exp", "poly", "tab"):
        simulated = coefs["tab-kinked" if kind == "tab" else kind]
        calls.append(("verify-timedep-" + kind, ["verify", "--timedep", "--f", coefs[kind], *_pde_flags(p)]))
        calls.append(("simulate-" + kind, ["simulate", "--f", simulated, "--T", SHORT_T, *_pde_flags(p)]))
    return calls
