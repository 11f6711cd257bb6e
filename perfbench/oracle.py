"""Per-call oracle: checks one CLI call's exit code and output.

The references are independent of the package under test: the closed-form
families are recomputed here from the argv, Jacobi functions come from
``scipy.special.ellipj`` and the wave position of a time-dependent run from
Gauss-Legendre quadrature of h = 1/f.  Derivation output is compared byte for
byte with golden files.  Nothing here runs inside a timed or traced window.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ellipj

LINF_REL_TOL = 1e-8
FAMILY_REL_TOL = 1e-12
ROOT_ABS_TOL = 1e-7
SIGN_PAIRS = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
_BOOLEAN_FLAGS = {"--numeric", "--timedep"}
_ROOT = re.compile(r"root A=(\S+) B=(\S+) D=(\S+) v=(\S+) tag=(.*)$")
_SIGNS = re.compile(r"sign_A=([+-]\d) sign_B=([+-]\d)")
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


class Goldens:
    """Golden derivation texts, read once: order 1 from the repository's
    tests, orders 2 and 3 from the benchmark's own directory.

    Order 1 must match byte for byte.  Orders 2 and 3 are compared up to the
    order of terms and of factors within a term: the package orders symbols
    by a process-wide registry, so an order-3 system derived after an
    order-2 one in the same process prints the same equations with terms in
    another order (see README.md, findings).
    """

    def __init__(self, root: Path):
        here = Path(__file__).resolve().parent / "golden"
        tests = root / "tests" / "golden"
        self.texts = {
            ("1", False): (tests / "derive_order1.txt").read_text(),
            ("1", True): (tests / "derive_order1_timedep.txt").read_text(),
            ("2", False): (here / "derive_order2.txt").read_text(),
            ("3", False): (here / "derive_order3.txt").read_text(),
        }


_FACTOR_SPLIT = re.compile(r"(?<!\*)\*(?!\*)")


def canonical(text: str) -> dict[str, list[tuple[str, ...]]]:
    """Derivation output as {basis monomial: sorted terms}, each term a
    sorted tuple of its factors (sign included), so that reordering terms or
    factors does not change it."""
    out = {}
    for line in text.splitlines():
        mono, sep, rest = line.partition(": ")
        if not sep or line.startswith("#"):
            out[line] = []
            continue
        lhs = rest.rsplit(" = 0", 1)[0].replace(" - ", " + -")
        terms = []
        for term in lhs.split(" + "):
            sign = "-" if term.startswith("-") else "+"
            terms.append((sign,) + tuple(sorted(_FACTOR_SPLIT.split(term.lstrip("-")))))
        out[mono] = sorted(terms)
    return out


def parse_flags(argv: list[str]) -> dict[str, str | bool]:
    """Flags of an argv as a dict; '--x=v', '-x=v' and '--x v' forms."""
    out: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if "=" in arg:
            key, _, val = arg.partition("=")
            out[key.lstrip("-")] = val
        elif arg in _BOOLEAN_FLAGS:
            out[arg.lstrip("-")] = True
        else:
            out[arg.lstrip("-")] = argv[i + 1]
            i += 1
        i += 1
    return out


def family(a: float, b: float, d: float, m: float, sa: int, sb: int) -> dict[str, float]:
    """Closed-form family: A, B, D and the constant speed C."""
    return {
        "A": sa * math.sqrt(3.0 * d * m / (2.0 * b)),
        "B": sb * math.sqrt(3.0 * d / (2.0 * b)),
        "D": -a / (2.0 * b),
        "v": (2.0 * b * d * (1.0 + m) - a * a) / (4.0 * b),
    }


def _params(flags: dict) -> tuple[float, float, float, float]:
    return tuple(float(flags.get(k, default)) for k, default in
                 (("a", "0"), ("b", "1"), ("d", "1"), ("m", "0.5")))


def _h_function(spec: str):
    """h = 1/f for a coefficient descriptor, and the knots where it kinks."""
    kind, _, rest = spec.partition(":")
    if kind == "exp":
        rate = float(rest)
        return (lambda t: np.exp(-rate * t)), []
    if kind == "poly":
        coeffs = [float(c) for c in rest.split(",")][::-1]
        return (lambda t: 1.0 / np.polyval(coeffs, t)), []
    if kind == "tab":
        pairs = [p.split(":") for p in rest.split(",")]
        times = [float(p[0]) for p in pairs]
        spline = PchipInterpolator(times, [float(p[1]) for p in pairs])
        return (lambda t: 1.0 / spline(t)), times
    raise ValueError("unknown coefficient descriptor %r" % (spec,))


def integral_h(spec: str, t0: float, t1: float) -> float:
    """Integral of 1/f over [t0, t1], piecewise Gauss-Legendre between knots."""
    h, knots = _h_function(spec)
    edges = [t0] + [k for k in knots if t0 < k < t1] + [t1]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(_GL_WEIGHTS * h(mid + half * _GL_NODES)))
    return total


def _summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def check_run(rundir: Path, flags: dict, m: float) -> tuple[list[str], dict[str, float]]:
    """status = ok, and the last snapshot within LINF_REL_TOL of the exact
    profile at its final time.  Returns (reasons, accuracy)."""
    summary_path = rundir / "summary.txt"
    if not summary_path.is_file():
        return ["no summary.txt in %s" % (rundir.name,)], {}
    summary = _summary(summary_path)
    reasons = []
    if summary.get("status") != "ok":
        reasons.append("%s: status = %s" % (rundir.name, summary.get("status")))
    a, b, d, _ = _params(flags)
    fam = family(a, b, d, m, int(flags.get("sign-a", "1")), int(flags.get("sign-b", "1")))
    T = float(flags.get("T", "1"))
    spec = flags.get("f", "unit")
    if spec == "unit":
        t_final = T
        position = fam["v"] * t_final
    else:
        t_ref = 1.0
        t_final = t_ref + T
        position = fam["v"] * (t_ref + integral_h(spec, t_ref, t_final))
    snapshots = sorted(rundir.glob("snapshot-*.csv"))
    if not snapshots:
        return reasons + ["%s: no snapshots" % (rundir.name,)], {}
    x, u = np.loadtxt(snapshots[-1], delimiter=",", skiprows=1, unpack=True)
    _, cn, dn, _ = ellipj(x - position, m)
    exact = fam["A"] * cn + fam["B"] * dn + fam["D"]
    err = float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
    if not err <= LINF_REL_TOL:
        reasons.append("%s: L-inf error %.3g of the last snapshot exceeds %.0e" % (rundir.name, err, LINF_REL_TOL))
    accuracy = {"linf_rel_error": err}
    for key in ("mass_drift", "quad_drift"):
        if key in summary:
            accuracy[key] = float(summary[key])
    return reasons, accuracy


def _merge_accuracy(into: dict[str, float], new: dict[str, float]) -> None:
    for key, val in new.items():
        into[key] = max(into.get(key, 0.0), val)


def _run_name(lines: list[str]) -> str | None:
    for line in lines:
        if line.startswith("run = "):
            return line[len("run = "):].strip()
    return None


def _check_verify(flags: dict, rc: int, lines: list[str]) -> list[str]:
    if "perturb" in flags:
        if rc != 1:
            return ["perturbed verify exited %s, expected 1" % (rc,)]
        if not any(line.startswith("FAIL") for line in lines):
            return ["perturbed verify printed no FAIL line"]
        return []
    reasons = [] if rc == 0 else ["exit code %s, expected 0" % (rc,)]
    reasons += ["unexpected line: %s" % (line,) for line in lines if line.startswith("FAIL")]
    passed = set()
    for line in lines:
        match = _SIGNS.search(line)
        if line.startswith("PASS") and match:
            passed.add((int(match.group(1)), int(match.group(2))))
    if passed != SIGN_PAIRS:
        reasons.append("PASS lines cover sign pairs %s, expected all four" % (sorted(passed),))
    if flags.get("timedep") and not any(line.startswith("PASS velocity-constraint") for line in lines):
        reasons.append("no PASS velocity-constraint line")
    return reasons


def _check_solve(flags: dict, rc: int, lines: list[str]) -> list[str]:
    if rc != 0:
        return ["exit code %s, expected 0" % (rc,)]
    a, b, d, m = _params(flags)
    expected = {(sa, sb): family(a, b, d, m, sa, sb) for sa, sb in SIGN_PAIRS}
    reasons = []
    fams = [line for line in lines if line.startswith("family ")]
    roots = [line for line in lines if line.startswith("root ")]
    if len(fams) != 4:
        reasons.append("%d family lines, expected 4" % (len(fams),))
    for line in fams:
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        ref = expected[(int(fields["sign_A"]), int(fields["sign_B"]))]
        for key in ("A", "B", "D", "v"):
            got = float(fields[key])
            if abs(got - ref[key]) > FAMILY_REL_TOL * max(1.0, abs(ref[key])):
                reasons.append("family %s: %s = %r, closed form %r" % (fields["class"], key, got, ref[key]))
    if "numeric" in flags:
        if len(roots) != 4:
            reasons.append("%d roots, expected 4" % (len(roots),))
        for line in roots:
            match = _ROOT.match(line)
            if match is None:
                reasons.append("unreadable root line: %s" % (line,))
                continue
            if match.group(5) != "matches-closed-form":
                reasons.append("root tagged %r: %s" % (match.group(5), line))
            vec = np.array([float(match.group(i)) for i in range(1, 5)])
            if not any(np.linalg.norm(vec - [r[k] for k in ("A", "B", "D", "v")]) < ROOT_ABS_TOL
                       for r in expected.values()):
                reasons.append("root matches no closed form: %s" % (line,))
    return reasons


def check(argv: list[str], rc, out: str, outdir: Path, goldens: Goldens,
          accuracy: dict[str, float]) -> list[str]:
    """Reasons the call failed (empty when it passed).  Simulation accuracy
    is merged into `accuracy` as maxima."""
    command, flags = argv[0], parse_flags(argv)
    lines = out.splitlines()
    if command == "derive":
        if rc != 0:
            return ["exit code %s, expected 0" % (rc,)]
        key = (flags["order"], bool(flags.get("timedep")))
        golden = goldens.texts[key]
        same = out == golden if key[0] == "1" else canonical(out) == canonical(golden)
        return [] if same else ["derive output differs from its golden file"]
    if command == "verify":
        return _check_verify(flags, rc, lines)
    if command == "solve":
        return _check_solve(flags, rc, lines)
    if rc != 0:
        return ["exit code %s, expected 0" % (rc,)]
    if command == "simulate":
        name = _run_name(lines)
        if name is None:
            return ["no 'run = ' line in the output"]
        reasons, acc = check_run(outdir / name, flags, float(flags.get("m", "0.5")))
        _merge_accuracy(accuracy, acc)
        return reasons
    return ["no oracle for command %r" % (command,)]
