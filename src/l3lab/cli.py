"""Command-line surface: reproduction commands and result persistence.

Numeric payloads go to stdout (or ``--out`` files) with 17 significant
digits so that identical runs are byte-identical; wall-clock timings and
other run metadata go to stderr or into the ``meta`` block of JSON records.

Exit codes: 0 ok; 1 any :class:`~l3lab.numerics.L3labError` (a numerical
failure, reported as ``error: <message>`` on stderr); 2 a bad argument, a
bad or unreadable ``--config`` file, an unwritable ``--out`` path, or a
:class:`ValueError`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import __version__, acceptance, inner, rpc3bp, separatrix, splitting
from .numerics import L3labError, _check_s_end, linspace

__all__ = ["main", "ResultRecord"]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@dataclasses.dataclass
class ResultRecord:
    command: str
    inputs: dict
    outputs: dict
    diagnostics: dict
    meta: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        return cls(**json.loads(text))


def _record(command, inputs, outputs, diagnostics, t0) -> ResultRecord:
    return ResultRecord(
        command=command, inputs=inputs, outputs=outputs,
        diagnostics=diagnostics,
        meta={"wall_time_s": time.perf_counter() - t0,
              "library_version": __version__},
    )


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_record(rec: ResultRecord, out: str | None):
    """Full record (with run metadata) to files; metadata-free copy to stdout
    so identical runs print identical bytes."""
    if out is None:
        payload = dataclasses.asdict(rec)
        payload.pop("meta")
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(rec.to_json() + "\n")


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_a(args) -> int:
    t0 = time.perf_counter()
    res = separatrix.compute_A_quad(tol=args.tol)
    if args.format == "json":
        rec = _record("a", {"tol": args.tol},
                      {"value": res.value, "err": res.err, "evals": res.evals},
                      {"quadrature_evals": res.evals}, t0)
        _write_record(rec, args.out)
    else:
        _write(f"A = {_fmt(res.value)}\nerr_estimate = {_fmt(res.err)}\n",
               args.out)
    return 0


# the most rows one stokes table may ask for; each row is one vertical
# leg, and every 7 in rho one horizontal anchor shooting
_MAX_STOKES_ROWS = 1000


def _cmd_stokes(args) -> int:
    lo, hi, step = args.rho_min, args.rho_max, args.rho_step
    # written so that a NaN fails it
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi
            and 0.0 < step < math.inf):
        raise ValueError(f"empty rho range: {lo} to {hi} in steps of {step}")
    if not (8.0 <= lo and hi <= 30.0):
        raise ValueError(f"rho range {lo} to {hi} leaves [8, 30]")
    # rows lo, lo + step, ... up to hi, counted before any list is built
    count = (hi + step / 2 - lo) / step
    if not count <= _MAX_STOKES_ROWS:
        raise ValueError(f"rho step {step} asks for more than "
                         f"{_MAX_STOKES_ROWS} rows")
    rhos = [min(lo + k * step, hi) for k in range(math.ceil(count))]
    rows = []
    failed = False
    for rho, rec in zip(rhos, inner.theta_table(rhos, re_start=args.re_start,
                                                rtol=args.tol)):
        if isinstance(rec, inner.PrecisionLoss):
            failed = True
            rows.append([rho, math.nan, math.exp(rho), math.nan, math.inf])
        else:
            rows.append([rec.rho, abs(rec.delta_y), math.exp(rec.rho),
                         rec.theta, rec.digits_lost])
    text = _csv(["rho", "abs_deltaY", "exp_rho", "theta", "digits_lost"], rows)
    _write(text, args.out)
    return 1 if failed else 0


def _cmd_singularities(args) -> int:
    A = separatrix.compute_A(tol=1e-12)
    t_up = separatrix.t_star("zero_upper")
    t_dn = separatrix.t_star("zero_lower")
    t2_up = separatrix.t_star("infinity_upper")
    t2_dn = separatrix.t_star("infinity_lower")
    ref2 = acceptance._REF_T2
    lines = [
        f"t*_1,+ = {_fmt(t_up.real)} {_fmt(t_up.imag)}i"
        f"  [reference -iA, A = {_fmt(A)}]",
        f"t*_1,- = {_fmt(t_dn.real)} {_fmt(t_dn.imag)}i  [reference +iA]",
        f"t*_2,+ = {_fmt(t2_up.real)} {_fmt(t2_up.imag)}i"
        f"  [reference {ref2.real} {ref2.imag}i]",
        f"t*_2,- = {_fmt(t2_dn.real)} {_fmt(t2_dn.imag)}i"
        f"  [reference {ref2.real} {-ref2.imag}i]",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


# the most samples --n may ask for, 50 times the largest default
_MAX_SAMPLES = 100_000


def _check_samples(args):
    """Refuse a sample grid other than n >= 2 points up to a finite t_max > 0,
    or of more than ``_MAX_SAMPLES`` points, before any list is built."""
    # written so that a NaN fails it
    if not (0.0 < args.t_max < math.inf and args.n >= 2):
        raise ValueError(f"need a finite --t-max > 0 and --n >= 2, got "
                         f"--t-max {args.t_max} and --n {args.n}")
    if args.n > _MAX_SAMPLES:
        raise ValueError(f"--n {args.n} asks for more than {_MAX_SAMPLES} "
                         f"samples")


def _cmd_separatrix(args) -> int:
    _check_samples(args)
    if args.t_max > separatrix.RE_REACH:
        raise ValueError(f"--t-max {args.t_max} reaches beyond "
                         f"{separatrix.RE_REACH:g}, where the saddle "
                         f"amplifies the integration error")
    n = args.n
    half = linspace(-args.t_max, args.t_max, n)[(n + 1) // 2:]
    zero = [0.0] if n % 2 else []
    # two chains out from the turning point t = 0: a chain through it would
    # carry the error it gathered toward the saddle into the other half.
    # The negative half is the positive one negated, so the two chains take
    # mirrored legs and lambda(-t) = lambda(t) holds bit for bit.
    ts = [-t for t in reversed(half)] + zero + half
    states = (separatrix.sigma_sweep([-t for t in half])[::-1]
              + separatrix.sigma_sweep(zero + half))
    rows = []
    for t, st in zip(ts, states):
        lam = st.lam.real
        Lam = st.Lam.real
        rows.append([t, lam, Lam, math.cos(lam / 2.0)])
    _write(_csv(["t", "lambda", "Lambda", "q"], rows), args.out)
    return 0


def _cmd_l3(args) -> int:
    eq = rpc3bp.locate_L3(args.mu)
    ev = sorted(eq.eigenvalues, key=lambda z: (-abs(z.real), z.imag))
    lines = [f"d_mu = {_fmt(eq.d_mu)}"]
    for k, z in enumerate(ev):
        lines.append(f"eigenvalue_{k} = {_fmt(z.real)} {_fmt(z.imag)}i")
    lines.append(
        f"hyperbolic_over_sqrt_mu = {_fmt(eq.hyperbolic_rate / math.sqrt(args.mu))}"
        f"  [sqrt(21/8) = {_fmt(math.sqrt(21.0 / 8.0))}]"
    )
    lines.append(f"elliptic_frequency = {_fmt(eq.elliptic_frequency)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_manifolds(args) -> int:
    _check_samples(args)
    _check_s_end(args.t_max, "--t-max")
    rows = []
    for branch in ("unstable_plus", "stable_plus"):
        ts, states = splitting.manifold_trajectory(
            args.mu, branch, t_max=args.t_max, n_points=args.n)
        for t, y in zip(ts, states):
            r = math.hypot(y[0], y[1])
            rows.append([branch, t, y[0], y[1], r, math.atan2(y[1], y[0])])
    _write(_csv(["branch", "t", "q1", "q2", "r", "theta"], rows), args.out)
    return 0


def _cmd_distance(args) -> int:
    t0 = time.perf_counter()
    theta_abs = args.theta_abs
    # checked before any tracing
    _check_s_end(args.t_max, "--t-max")
    if theta_abs is not None and not 0.0 < theta_abs < math.inf:
        raise ValueError(
            f"theta_abs must be finite and positive, got {theta_abs}")
    A = separatrix.compute_A()
    if theta_abs is None:
        theta_abs = inner.theta(15.0).theta
    # the ratio below divides by it, so a subnormal or zero one is refused
    asymptotic = splitting.asymptotic_distance(args.mu, A, theta_abs)
    if not asymptotic >= sys.float_info.min:
        raise ValueError(
            f"theta_abs = {theta_abs} gives the asymptotic distance "
            f"{asymptotic!r}, not a positive normal float")
    sample = splitting.section_gap(args.mu, t_max=args.t_max, A=A,
                                   theta_abs=theta_abs)
    lines = [
        f"asymptotic = {_fmt(sample.dist_asymptotic)}",
        f"measured = {_fmt(sample.dist_measured)}",
        f"ratio = {_fmt(sample.dist_measured / sample.dist_asymptotic)}",
        f"gap_r = {_fmt(sample.gap_r)}",
        f"gap_R = {_fmt(sample.gap_R)}",
        f"gap_G = {_fmt(sample.gap_G)}",
        f"gap_eta = {_fmt(sample.gap_eta)}",
    ]
    if args.format == "json":
        rec = _record("distance", {"mu": args.mu, "theta_abs": theta_abs},
                      dataclasses.asdict(sample), {}, t0)
        _write_record(rec, args.out)
    else:
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all()
    all_ok = True
    out = []
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        all_ok = all_ok and res.ok
        out.append(f"[{status}] criterion {res.number}: {res.name}")
        for line in res.lines:
            out.append(f"    {line}")
    out.append("verify: ALL PASS" if all_ok else "verify: FAILURES PRESENT")
    _write("\n".join(out) + "\n", args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="l3lab",
        description="Separatrix-splitting numerics for the L3 point of the "
                    "restricted planar circular three-body problem.",
    )
    p.add_argument("--config", default=None,
                   help="flat key=value file with defaults (flags override)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("a", help="the analyticity-strip constant A")
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_a)

    q = sub.add_parser("stokes", help="Stokes-constant table over a rho grid")
    q.add_argument("--rho-min", type=float, default=13.0)
    q.add_argument("--rho-max", type=float, default=20.0)
    q.add_argument("--rho-step", type=float, default=1.0)
    q.add_argument("--tol", type=float, default=1e-12)
    q.add_argument("--re-start", type=float, default=inner.RE_START)
    q.add_argument("--out", default=None,
                   help="CSV output path (default stdout)")
    q.set_defaults(fn=_cmd_stokes)

    q = sub.add_parser("singularities",
                       help="the four separatrix singularity positions")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_singularities)

    q = sub.add_parser("separatrix",
                       help="plot-ready samples of the real separatrix "
                            "(CSV columns: t, lambda, Lambda, q)")
    q.add_argument("--t-max", type=float, default=separatrix.RE_REACH)
    q.add_argument("--n", type=int, default=401)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_separatrix)

    q = sub.add_parser("l3", help="collinear equilibrium and spectrum")
    q.add_argument("--mu", type=float, default=0.003)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_l3)

    q = sub.add_parser("manifolds",
                       help="plot-ready manifold trajectories to the section "
                            "(CSV columns: branch, t, q1, q2, r, theta)")
    q.add_argument("--mu", type=float, default=0.003)
    q.add_argument("--t-max", type=float, default=1000.0)
    q.add_argument("--n", type=int, default=2000)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_manifolds)

    q = sub.add_parser("distance",
                       help="asymptotic vs measured splitting at one mu")
    q.add_argument("--mu", type=float, default=1e-3)
    q.add_argument("--t-max", type=float, default=1000.0)
    q.add_argument("--theta-abs", type=float, default=None,
                   help="prefactor modulus; computed at rho = 15 if omitted")
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_distance)

    q = sub.add_parser("verify", help="run the acceptance/property suite")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_verify)
    return p


# a config file is a few lines; reading stops past this many characters, so
# a device such as /dev/full, which reads as endless zero bytes, is refused
# instead of filling memory
_MAX_CONFIG_CHARS = 2 ** 16


def _parse_config(text: str, known: set) -> dict:
    """``key = value`` lines; ``ValueError`` names the first bad line."""
    if len(text) > _MAX_CONFIG_CHARS:
        raise ValueError(f"longer than {_MAX_CONFIG_CHARS} characters")
    out = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not (eq and key):
            raise ValueError(f"line {number}: {line!r} is not key = value")
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError(f"line {number}: no subcommand has {key!r}")
        out[dest] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, path: str):
    """Make the file's values the defaults of every subcommand that has them.

    A key that no subcommand has, or a line that is not ``key = value``,
    is refused.  The values stay strings: argparse converts a string
    default through the option's ``type`` and exits 2 on a bad value, so
    explicit flags still win.  It does not check a default against the
    option's ``choices``, so that is done here.
    """
    try:
        with open(path) as fh:
            text = fh.read(_MAX_CONFIG_CHARS + 1)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --config {path}: {exc}")
    subparsers = [sp for action in parser._subparsers._group_actions
                  for sp in action.choices.values()]
    known = {a.dest for sp in subparsers for a in sp._actions} - {"help"}
    try:
        cfg = _parse_config(text, known)
    except ValueError as exc:
        parser.error(f"--config {path}: {exc}")
    for sp in subparsers:
        found = {a.dest: a for a in sp._actions if a.dest in cfg}
        for dest, a in found.items():
            if a.choices is not None and cfg[dest] not in a.choices:
                parser.error(f"--config {path}: invalid choice "
                             f"{dest} = {cfg[dest]!r} (choose from "
                             f"{', '.join(a.choices)})")
        sp.set_defaults(**{dest: cfg[dest] for dest in found})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        code = args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except L3labError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[{args.command}] wall time {time.perf_counter() - t0:.2f} s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
