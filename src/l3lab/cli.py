"""Command-line surface: reproduction commands and result persistence.

Each command returns its payload, the text it prints or a JSON record as a
dict, and :func:`main` writes it to stdout or to the ``--out`` file.
Numbers carry 17 significant digits so that identical runs are
byte-identical; the wall time goes to stderr, and only a JSON record
written to an ``--out`` file carries a ``meta`` block (wall time and
library version).

Options are checked before any work; ``a`` runs the quadrature at tol
1e-10, ``stokes`` shoots at rtol 1e-12 from Re U = -40, and ``distance``
takes |Theta| from the Stokes shooting at rho = 15
(:func:`l3lab.inner.theta`).

Exit codes: 0 ok; 1 any :class:`~l3lab.numerics.L3labError` (a numerical
failure, reported as ``error: <message>`` on stderr); 2 a bad argument, an
unwritable ``--out`` path, or a :class:`ValueError`.
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

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


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

def _cmd_a(args):
    res = separatrix.compute_A_quad(tol=1e-10)
    if args.format == "json":
        return {"command": "a", "inputs": {"tol": 1e-10},
                "outputs": {"value": res.value, "err": res.err,
                            "evals": res.evals},
                "diagnostics": {"quadrature_evals": res.evals}}, 0
    return f"A = {_fmt(res.value)}\nerr_estimate = {_fmt(res.err)}\n", 0


# the most rows one stokes table may ask for; each row is one vertical
# leg, and every 7 in rho one horizontal anchor shooting
_MAX_STOKES_ROWS = 1000


def _cmd_stokes(args):
    lo, hi, step = args.rho_min, args.rho_max, args.rho_step
    # written so that a NaN fails it
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi
            and 0.0 < step < math.inf):
        raise ValueError(f"empty rho range: {lo} to {hi} in steps of {step}")
    # rows lo, lo + step, ... up to hi, counted before any list is built
    count = (hi + step / 2 - lo) / step
    if not count <= _MAX_STOKES_ROWS:
        raise ValueError(f"rho {lo} to {hi} in steps of {step} asks for "
                         f"more than {_MAX_STOKES_ROWS} rows")
    rhos = [min(lo + k * step, hi) for k in range(math.ceil(count))]
    rows = []
    failed = False
    for rho, rec in zip(rhos, inner.theta_table(rhos)):
        if isinstance(rec, inner.PrecisionLoss):
            failed = True
            rows.append([rho, math.nan, math.exp(rho), math.nan, math.inf])
        else:
            rows.append([rec.rho, abs(rec.delta_y), math.exp(rec.rho),
                         rec.theta, rec.digits_lost])
    text = _csv(["rho", "abs_deltaY", "exp_rho", "theta", "digits_lost"], rows)
    return text, 1 if failed else 0


def _cmd_singularities(args):
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
    return "\n".join(lines) + "\n", 0


# the most samples --n may ask for, 50 times the largest default
_MAX_SAMPLES = 100_000


def _check_samples(n):
    """Refuse a sample grid of fewer than 2 or more than ``_MAX_SAMPLES``
    points, before any list is built."""
    if n < 2:
        raise ValueError(f"need --n >= 2, got --n {n}")
    if n > _MAX_SAMPLES:
        raise ValueError(f"--n {n} asks for more than {_MAX_SAMPLES} samples")


def _cmd_separatrix(args):
    _check_samples(args.n)
    _check_s_end(args.t_max, "--t-max")
    if args.t_max > separatrix.RE_REACH:
        raise ValueError(f"--t-max {args.t_max} reaches beyond "
                         f"{separatrix.RE_REACH:g}, where the saddle "
                         f"amplifies the integration error")
    n = args.n
    half = linspace(-args.t_max, args.t_max, n)[(n + 1) // 2:]
    zero = [0.0] if n % 2 else []
    # one chain out from the turning point t = 0, over t >= 0 only: a chain
    # through it would carry the error it gathered toward the saddle into
    # the other half.  The pendulum is reversible, sigma(-t) = (lambda(t),
    # -Lambda(t)), so the rows at t < 0 are those at t > 0 mirrored, and
    # lambda(-t) = lambda(t) holds bit for bit.
    pos = [(t, st.lam.real, st.Lam.real)
           for t, st in zip(zero + half, separatrix.sigma_sweep(zero + half))]
    neg = [(-t, lam, -Lam) for t, lam, Lam in reversed(pos[len(zero):])]
    rows = [[t, lam, Lam, math.cos(lam / 2.0)] for t, lam, Lam in neg + pos]
    return _csv(["t", "lambda", "Lambda", "q"], rows), 0


def _cmd_l3(args):
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
    return "\n".join(lines) + "\n", 0


def _cmd_manifolds(args):
    _check_samples(args.n)
    rows = []
    for branch in ("unstable_plus", "stable_plus"):
        ts, states = splitting.manifold_trajectory(args.mu, branch,
                                                   n_points=args.n)
        for t, y in zip(ts, states):
            r = math.hypot(y[0], y[1])
            rows.append([branch, t, y[0], y[1], r, math.atan2(y[1], y[0])])
    return _csv(["branch", "t", "q1", "q2", "r", "theta"], rows), 0


def _cmd_distance(args):
    # checked before A and the shooting
    splitting._check_mu(args.mu)
    A = separatrix.compute_A()
    theta_abs = inner.theta(15.0).theta
    sample = splitting.section_gap(args.mu, A=A, theta_abs=theta_abs)
    if args.format == "json":
        return {"command": "distance",
                "inputs": {"mu": args.mu, "theta_abs": theta_abs},
                "outputs": dataclasses.asdict(sample), "diagnostics": {}}, 0
    lines = [
        f"asymptotic = {_fmt(sample.dist_asymptotic)}",
        f"measured = {_fmt(sample.dist_measured)}",
        f"ratio = {_fmt(sample.dist_measured / sample.dist_asymptotic)}",
        f"gap_r = {_fmt(sample.gap_r)}",
        f"gap_R = {_fmt(sample.gap_R)}",
        f"gap_G = {_fmt(sample.gap_G)}",
        f"gap_eta = {_fmt(sample.gap_eta)}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args):
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
    return "\n".join(out) + "\n", 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="l3lab",
        description="Separatrix-splitting numerics for the L3 point of the "
                    "restricted planar circular three-body problem.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("a", help="the analyticity-strip constant A")
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_a)

    q = sub.add_parser("stokes", help="Stokes-constant table over a rho grid")
    q.add_argument("--rho-min", type=float, default=13.0)
    q.add_argument("--rho-max", type=float, default=20.0)
    q.add_argument("--rho-step", type=float, default=1.0)
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
    q.add_argument("--n", type=int, default=2000)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_manifolds)

    q = sub.add_parser("distance",
                       help="asymptotic vs measured splitting at one mu; "
                            "|Theta| from the rho = 15 shooting")
    q.add_argument("--mu", type=float, default=1e-3)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_distance)

    q = sub.add_parser("verify", help="run the acceptance/property suite")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        payload, code = args.fn(args)
        if isinstance(payload, dict):
            # run metadata only in files, so identical runs print
            # identical bytes
            if args.out is not None:
                payload["meta"] = {"wall_time_s": time.perf_counter() - t0,
                                   "library_version": __version__}
            payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(payload)
        else:
            with open(args.out, "w") as fh:
                fh.write(payload)
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
