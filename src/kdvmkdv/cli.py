"""Command-line entry point: derive | solve | verify | simulate | sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 no-solution
domain, 4 numerical failure.  Options follow the precedence flags > config
file > defaults; the config file is a flat "key = value" text format with
'#' comments.  All floating output uses 17 significant digits so records
round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import sim, waves
from .ansatz import PdeParams, derive_system
from .solver import (
    PERTURBABLE,
    SIGN_PAIRS,
    DegenerateEquation,
    NonFiniteSolution,
    NoRealSolution,
    back_substitute_generic,
    solve_closed_form,
    solve_numeric,
    specialize,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3
EXIT_NUMERICAL = 4

VELOCITY_REL_TOL = 1e-3
QUAD_DRIFT_TOL = 1e-8
CONSTRAINT_TOL = 1e-7
# Largest decimal exponent read exactly: Fraction builds the power of ten first
# (0.36 s for 1e-1000000), and float reads such a number as 0 or inf anyway.
EXPONENT_LIMIT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*$")
# The keys a config file may set, each read as the flag of the same name.
CONFIG_KEYS = ("a", "b", "d", "m", "timedep", "N", "dt", "T", "periods", "window-length", "f", "t-ref", "t0")

# The exit code of each error class a command may end with; any other
# ValueError is a usage error (EXIT_USAGE).
ERROR_EXITS = {
    NoRealSolution: EXIT_NO_SOLUTION,
    DegenerateEquation: EXIT_NO_SOLUTION,
    NonFiniteSolution: EXIT_NUMERICAL,
    sim.SimulationBlowUp: EXIT_NUMERICAL,
    sim.StabilityError: EXIT_NUMERICAL,
    sim.UnresolvedGrid: EXIT_NUMERICAL,
    sim.PhaseAliasing: EXIT_NUMERICAL,
    waves.CoefficientSingularity: EXIT_NUMERICAL,
}


def _exit_code(exc: Exception) -> int:
    return next((code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls)), EXIT_USAGE)


def _fmt(x: float) -> str:
    val = float(x)
    if val == 0.0:
        val = 0.0  # collapse negative zero
    return "%.17g" % (val,)


def _positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,))
    if val < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %d" % (val,))
    return val


def _config_flags(path: str) -> list[str]:
    """The config file at path as command-line flags, one "flag=value" token
    per key: a, b, d and m are short options (-a), every other key a long one
    (--N, --T and --f too); "timedep = true" is the bare --timedep, "timedep =
    false" no flag, in any case, and any other timedep value is refused."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError("cannot read config file %r: %s" % (path, exc.strerror or exc))
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad config line (expected key = value): %r" % (raw,))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError("unknown config key %r (expected one of %s)" % (key, ", ".join(CONFIG_KEYS)))
        if key != "timedep":
            flags.append("%s=%s" % ("-" + key if key in ("a", "b", "d", "m") else "--" + key, val))
        elif val.lower() == "true":
            flags.append("--timedep")
        elif val.lower() != "false":
            raise ValueError("bad config value timedep = %r (expected true or false)" % (val,))
    return flags


def _exact(text: str) -> Fraction:
    """Fraction(text); a decimal exponent beyond EXPONENT_LIMIT is refused first."""
    match = _EXPONENT.search(text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > len(str(EXPONENT_LIMIT)) or int(digits or 0) > EXPONENT_LIMIT:
        raise ValueError("decimal exponent of %r is beyond +-%d" % (text.strip(), EXPONENT_LIMIT))
    return Fraction(text)


class _Params:
    """Parameter set retaining both float values and exact rationals.

    Every text that float reads as a finite number Fraction reads too, and the
    float values are checked first, so exact holds all four (or _exact refuses)."""

    def __init__(self, a: str, b: str, d: str, m: str):
        text = {"a": a, "b": b, "d": d, "m": m}
        self.floats = PdeParams(**{k: float(v) for k, v in text.items()})
        self.exact = {k: _exact(v) for k, v in text.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_derive(args) -> int:
    system = derive_system(args.order, timedep=args.timedep)
    body = system.text()
    if system.time_constant:
        body += "\n# time-constant coefficients: %s" % (", ".join(system.time_constant),)
    print(body)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(body + "\n")
    return EXIT_OK


def _family_record(fam) -> str:
    return (
        "family class=%s sign_A=%+d sign_B=%+d A=%s B=%s D=%s v=%s"
        % (fam.class_label, fam.sign_A, fam.sign_B, _fmt(fam.A), _fmt(fam.B), _fmt(fam.D), _fmt(fam.v))
    )


def cmd_solve(args) -> int:
    params = _Params(args.a, args.b, args.d, args.m)
    fams = solve_closed_form(params.floats)
    for fam in fams:
        print(_family_record(fam))
    if getattr(args, "numeric", False):
        roots = solve_numeric(derive_system(1), params.floats, seeds=32)
        targets = np.array([[f.A, f.B, f.D, f.v] for f in fams])
        gap = np.reshape(roots, (-1, 1, 4)) - targets
        matches = (np.sqrt((gap * gap).sum(axis=2)) < 1e-7).any(axis=1)
        for root, matched in zip(roots, matches):
            tag = "matches-closed-form" if matched else "outside paper classes"
            print(
                "root A=%s B=%s D=%s v=%s tag=%s"
                % (_fmt(root[0]), _fmt(root[1]), _fmt(root[2]), _fmt(root[3]), tag)
            )
    return EXIT_OK


def _parse_perturb(spec: str) -> dict[str, Fraction]:
    out = {}
    for piece in spec.split(","):
        name, _, delta = piece.partition("=")
        name = name.strip()
        try:
            val = _exact(delta)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError("bad perturbation %r (expected name=+delta): %s" % (piece, exc))
        if name not in PERTURBABLE:
            raise argparse.ArgumentTypeError(
                "unknown perturbation name %r (expected one of %s)" % (name, ", ".join(PERTURBABLE))
            )
        out[name] = val
    return out


def _velocity_law_check(args, p: PdeParams) -> tuple[int, list[str]]:
    """The failure count and the lines of `verify --timedep`: the quadrature
    law against its constraint v + t*dv/dt = C*h on [t_ref, t_ref + 4], and
    the published form beside it, reported but not asserted."""
    f = waves.parse_coefficient(args.f)
    C = solve_closed_form(p)[0].v
    v0 = C if args.v0 is None else args.v0
    law = waves.VelocityLaw.time_dependent(C, f, v0=v0, t_ref=args.t_ref)
    ts = np.linspace(args.t_ref, args.t_ref + 4.0, 50)
    rc = np.max(np.abs(waves.constraint_residual(law, ts, form="constraint")))
    rp = np.max(np.abs(waves.constraint_residual(law, ts, form="paper")))
    status = "PASS" if rc < CONSTRAINT_TOL else "FAIL"  # a NaN fails
    return int(status == "FAIL"), [
        "%s velocity-constraint: max |v + t*dv/dt - C*h| = %s (quadrature law)" % (status, _fmt(rc)),
        "REPORT velocity-paper-form: max |v + t*dv/dt - C*h| = %s (reported, not asserted)" % (_fmt(rp),),
    ]


def _zero_check(passed: str, failed: str, system, residuals) -> int:
    """Print passed when every residual of system's equations is the zero
    polynomial, else failed and each nonzero equation; the failure count."""
    bad = [(mono, r) for mono, r in zip(system.monomials, residuals) if not r.is_zero]
    print(failed if bad else passed)
    for mono, r in bad:
        print("  equation[%s]: %s" % (mono.text(), r.text()))
    return int(bool(bad))


def cmd_verify(args) -> int:
    params = _Params(args.a, args.b, args.d, args.m)
    # checked first, so that an f the check cannot use is refused before anything is printed
    failures, velocity_lines = _velocity_law_check(args, params.floats) if args.timedep else (0, [])
    system = derive_system(1)
    if args.show_system:
        print(system.text())
    perturb = args.perturb or None

    # one substitution with formal signs serves the symbolic and exact checks
    # of all four families; the unperturbed one is made once per process
    generic = back_substitute_generic(system, perturb)
    # symbolic identity: the closed forms annihilate the system for any a,b,d,m
    for sa, sb in SIGN_PAIRS:
        tag = "signs(%+d,%+d)" % (sa, sb)
        failures += _zero_check("PASS symbolic %s: all equations reduce to the zero polynomial" % (tag,),
                                "FAIL symbolic %s: nonzero residuals:" % (tag,),
                                system, specialize(generic, sa, sb))

    fams = solve_closed_form(params.floats)
    pde_residuals = [] if perturb else sim.spectral_residuals(fams, N=256)
    for i, fam in enumerate(fams):
        label = "family %s sign_A=%+d sign_B=%+d" % (fam.class_label, fam.sign_A, fam.sign_B)
        failures += _zero_check("PASS exact %s" % (label,), "FAIL exact %s:" % (label,),
                                system, specialize(generic, fam.sign_A, fam.sign_B, params.exact))
        if not perturb:
            res = pde_residuals[i]
            if not res <= 1e-8:  # a NaN fails
                failures += 1
                print("FAIL pde-residual %s: L-inf %s" % (label, _fmt(res)))
            else:
                print("PASS pde-residual %s: L-inf %s" % (label, _fmt(res)))

    for line in velocity_lines:
        print(line)
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def _run_simulation(args) -> tuple[int, list[str]]:
    p = _Params(args.a, args.b, args.d, args.m).floats
    f = waves.parse_coefficient(args.f)
    timedep = not isinstance(f, waves.UnitCoefficient)
    t0 = args.t0 if args.t0 is not None else (args.t_ref if timedep else 0.0)

    fams = solve_closed_form(p)
    fam = next(
        fam for fam in fams if (fam.sign_A, fam.sign_B) == (args.sign_a, args.sign_b)
    )
    if timedep:
        v0 = fam.v if args.v0 is None else float(args.v0)
        law = waves.VelocityLaw.time_dependent(fam.v, f, v0=v0, t_ref=args.t_ref)
    else:
        law = waves.VelocityLaw.constant(fam.v)

    cfg = sim.SimConfig(
        p=p, N=args.N, T=args.T, periods=args.periods, f=f, t0=t0, window_length=args.window_length,
        **({"adaptive": True} if args.dt is None else {"dt": args.dt}),
    )
    result = sim.simulate(cfg, fam, law)
    rundir = sim.write_snapshots(result.run, result.cfg, args.outdir)
    vel_lines = ["t,v_measured,v_predicted"] + ["%s,%s,%s" % tuple(map(_fmt, row)) for row in result.velocity_rows]
    (rundir / "velocity.csv").write_text("\n".join(vel_lines) + "\n")

    # mass_drift is reported, not gated: the stepper keeps mode 0 exactly, so it is 0
    ok = result.velocity_rel_error < VELOCITY_REL_TOL and result.quad_drift < QUAD_DRIFT_TOL
    summary = [
        "run = %s" % (rundir.name,),
        "family = %s" % (fam.class_label,),
        "v_predicted = %s" % (_fmt(result.velocity_rows[-1, 2]),),
        "v_measured = %s" % (_fmt(result.v_measured),),
        "velocity_rel_error = %s" % (_fmt(result.velocity_rel_error),),
        "fit_residual = %s" % (_fmt(result.fit_residual),),
        "mass_drift = %s" % (_fmt(result.mass_drift),),
        "quad_drift = %s" % (_fmt(result.quad_drift),),
        "steps = %d" % (result.run.steps,),
        "rejected_steps = %d" % (result.run.rejected_steps,),
        "advective_cfl = %s" % (_fmt(result.advective_cfl),),
    ]
    if result.spectral_tail is not None:
        summary += ["N = %d" % (result.cfg.N,), "spectral_tail = %s" % (_fmt(result.spectral_tail),)]
    summary.append("status = %s" % ("ok" if ok else "velocity-or-drift-out-of-bounds",))
    (rundir / "summary.txt").write_text("\n".join(summary) + "\n")
    return (EXIT_OK if ok else EXIT_VERIFY_FAIL), summary


def cmd_simulate(args) -> int:
    code, lines = _run_simulation(args)
    for line in lines:
        print(line)
    return code


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.sweep_values.split(",") if v.strip()]
    if not values:
        print("error: empty sweep value list", file=sys.stderr)
        return EXIT_USAGE

    worst = EXIT_OK
    for value in values:
        sub_args = argparse.Namespace(**vars(args))
        setattr(sub_args, args.sweep_param.replace("-", "_"), value)
        try:
            code, lines = _run_simulation(sub_args)
        except (*ERROR_EXITS, ValueError) as exc:  # the other values still run
            code, lines = _exit_code(exc), ["error: %s" % (exc,)]
        print("--- %s = %s ---" % (args.sweep_param, value))
        for line in lines:
            print(line)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_param_flags(sub):
    sub.add_argument("-a", type=str, default="0", help="quadratic nonlinearity coefficient")
    sub.add_argument("-b", type=str, default="1", help="cubic nonlinearity coefficient")
    sub.add_argument("-d", type=str, default="1", help="dispersion coefficient")
    sub.add_argument("-m", type=str, default="0.5", help="elliptic parameter in (0, 1]")
    sub.add_argument("--config", type=str, default=None, help="flat key=value config file")


def _add_sim_flags(sub):
    sub.add_argument("--N", type=int, default=None, help="grid points (power of two); default: chosen from the spectrum")
    sub.add_argument("--dt", type=float, default=None, help="time step; default: error-controlled")
    sub.add_argument("--T", type=float, default=1.0, help="final time")
    sub.add_argument("--periods", type=int, default=1, help="elliptic periods in the domain")
    sub.add_argument("--window-length", type=float, default=None, help="explicit domain for m=1 runs")
    sub.add_argument("--f", type=str, default="unit", help="time coefficient: unit|exp:R|poly:c0,c1,..|tab:t:f,..")
    sub.add_argument("--t0", type=float, default=None, help="start time; default: t-ref for a time-dependent f, else 0")
    sub.add_argument("--t-ref", type=float, default=1.0, help="reference time of the velocity law")
    sub.add_argument("--v0", type=float, default=None, help="velocity at t_ref")
    sub.add_argument("--sign-a", type=int, choices=(1, -1), default=1, help="sign of the cn amplitude")
    sub.add_argument("--sign-b", type=int, choices=(1, -1), default=1, help="sign of the dn amplitude")
    sub.add_argument("--outdir", type=str, default="out", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process.  Every caller gets the
    same object: parsing leaves it unchanged, and callers must not alter it."""
    parser = argparse.ArgumentParser(
        prog="kdvmkdv",
        description="Jacobi-elliptic solitary waves of the combined KdV-mKdV equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_derive = subs.add_parser("derive", help="derive the algebraic system for an ansatz order")
    p_derive.add_argument("--order", type=_positive_int, required=True)
    p_derive.add_argument("--timedep", action="store_true")
    p_derive.add_argument("--output", type=str, default=None, help="also save the system to a file")
    p_derive.add_argument("--config", type=str, default=None)
    p_derive.set_defaults(func=cmd_derive)

    p_solve = subs.add_parser("solve", help="emit the four closed-form families")
    _add_param_flags(p_solve)
    p_solve.add_argument(
        "--numeric", action="store_true",
        help="also run the multi-start root search and tag roots against the closed forms",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = subs.add_parser("verify", help="exact and numeric verification of the closed forms")
    _add_param_flags(p_verify)
    p_verify.add_argument("--perturb", type=_parse_perturb, default=None, help="e.g. v=+0.1")
    p_verify.add_argument("--show-system", action="store_true")
    p_verify.add_argument("--timedep", action="store_true")
    p_verify.add_argument("--f", type=str, default="exp:1")
    p_verify.add_argument("--v0", type=float, default=None)
    p_verify.add_argument("--t-ref", type=float, default=1.0)
    p_verify.set_defaults(func=cmd_verify)

    p_simulate = subs.add_parser("simulate", help="pseudo-spectral run comparing measured speed")
    _add_param_flags(p_simulate)
    _add_sim_flags(p_simulate)
    p_simulate.set_defaults(func=cmd_simulate)

    p_sweep = subs.add_parser("sweep", help="simulate across a parameter sweep")
    _add_param_flags(p_sweep)
    _add_sim_flags(p_sweep)
    p_sweep.add_argument("--sweep-param", type=str, required=True, choices=("a", "b", "d", "m"))
    p_sweep.add_argument("--sweep-values", type=str, required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one command.  A --config file is read as flags placed between the
    command and the rest of the line, so the line's own flags win and the
    parser supplies every default; keys the command has no flag for are left
    over from that parse and ignored."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_known_args([argv[0], *_config_flags(args.config), *argv[1:]])[0]
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (*ERROR_EXITS, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
