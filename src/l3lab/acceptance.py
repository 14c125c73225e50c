"""Acceptance checks tying the implementation to its published targets.

Each check returns an :class:`AcceptanceResult` whose ``lines`` are fully
deterministic (no timings, no environment data), so two identical runs print
identical bytes.  The checks are shared between the ``l3lab verify`` command
and the test suite.

:func:`run_all` runs check 13 (manifold tracing, about as long as checks
1-12 together) beside checks 1-12: the fan-out worker, an ``os.fork`` child
forked once per process, traces all but the first ``_CALLER_MUS`` mass
ratios of its grid, and the caller traces those after checks 1-12, so that
neither process waits long for the other.  The split is fixed, with no
option, and the printed results do not depend on it.  The fan-out is one
level deep, so check 13's ``section_gap`` calls trace both branches in the
process that makes them, one by one.
"""
from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass, field

from . import inner, rpc3bp, separatrix, splitting
from .numerics import fit_line, geomspace

__all__ = ["AcceptanceResult", "CHECKS", "run_all"]

_REF_A = 0.177744
_REF_T2 = -0.086697 - 0.969516j
_REF_RESIDUE = 0.3086067
_REF_THETA_TABLE = {
    13.0: 1.6373, 14.0: 1.6361, 15.0: 1.6351, 16.0: 1.6341,
    17.0: 1.6333, 18.0: 1.6326, 19.0: 1.6320, 20.0: 1.6315,
}


@dataclass
class AcceptanceResult:
    number: int
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{x:.17g}"


def check_01_constant_A() -> AcceptanceResult:
    t0 = time.perf_counter()
    value = separatrix.compute_A(tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = (abs(value - _REF_A) <= 1e-5
          and 3.0 / 50.0 <= value <= 3.0 / 10.0
          and elapsed < 1.0)
    return AcceptanceResult(1, "analyticity constant A", ok, [
        f"A = {_fmt(value)} (reference {_REF_A}, tol 1e-5)",
        f"inside [3/50, 3/10]: {3/50 <= value <= 3/10}",
        f"runtime under 1 s: {elapsed < 1.0}",
    ])


def check_02_two_forms_of_A() -> AcceptanceResult:
    a1 = separatrix.compute_A(tol=1e-12)
    a2 = separatrix.compute_A_rescaled(tol=1e-12)
    diff = abs(a1 - a2)
    return AcceptanceResult(2, "two printed forms of A agree", diff <= 1e-9, [
        f"|A1 - A2| = {_fmt(diff)} (tol 1e-9)",
    ])


def check_03_pole_residue() -> AcceptanceResult:
    analytic = separatrix.residue_pole()
    numeric = separatrix.residue_pole_numeric(radius=1e-3)
    d_num = abs(numeric - analytic)
    d_ref = abs(analytic - _REF_RESIDUE)
    d_imag = abs(math.pi * analytic - 0.969516)
    ok = d_num <= 1e-8 and d_ref <= 1e-7 and d_imag <= 1e-6
    return AcceptanceResult(3, "pole residue at q = 1", ok, [
        f"analytic residue = {_fmt(analytic)} (sqrt(2/21))",
        f"|numeric - analytic| = {_fmt(d_num)} (tol 1e-8)",
        f"|pi*residue - 0.969516| = {_fmt(d_imag)} (tol 1e-6)",
    ])


def check_04_visible_singularities() -> AcceptanceResult:
    A = separatrix.compute_A(tol=1e-12)
    t1 = separatrix.t_star("zero_upper")
    t2 = separatrix.t_star("infinity_upper")
    d1_re = abs(t1.real)
    d1_im = abs(t1.imag + A)
    d2 = abs(t2 - _REF_T2)
    ok = d1_re <= 1e-6 and d1_im <= 1e-6 and d2 <= 1e-4
    return AcceptanceResult(4, "visible singularity positions", ok, [
        f"t*(zero, upper) = {_fmt(t1)} vs -iA (tol 1e-6 per component)",
        f"t*(infinity, upper) = {_fmt(t2)} vs {_fmt(_REF_T2)} (tol 1e-4)",
    ])


def check_05_branch_structure() -> AcceptanceResult:
    rep = separatrix.fit_branch()
    coef_target = 3.0 * 2.0 ** (-1.0 / 3.0)
    ok = (abs(rep.fitted_exponent - 2.0 / 3.0) <= 0.02
          and abs(abs(rep.fitted_coefficient) - coef_target) <= 0.02 * coef_target
          and abs(rep.momentum_exponent + 1.0 / 3.0) <= 0.02)
    return AcceptanceResult(5, "branch structure at iA", ok, [
        f"lambda exponent = {_fmt(rep.fitted_exponent)} (2/3 +- 0.02)",
        f"|coefficient| = {_fmt(abs(rep.fitted_coefficient))}"
        f" ({_fmt(coef_target)} +- 2%)",
        f"Lambda exponent = {_fmt(rep.momentum_exponent)} (-1/3 +- 0.02)",
    ])


def check_06_l3_expansion() -> AcceptanceResult:
    eq6 = rpc3bp.locate_L3(1e-6)
    slope = (eq6.d_mu - 1.0) / 1e-6
    eq4 = rpc3bp.locate_L3(1e-4)
    hyp = eq4.hyperbolic_rate / math.sqrt(1e-4)
    ell = eq4.elliptic_frequency
    ok = (abs(slope - 5.0 / 12.0) <= 1e-3
          and abs(hyp - math.sqrt(21.0 / 8.0)) <= 2e-3
          and abs(ell - (1.0 + 7.0 / 8.0 * 1e-4)) <= 1e-3)
    return AcceptanceResult(6, "collinear point expansion and spectrum", ok, [
        f"(d_mu - 1)/mu = {_fmt(slope)} (5/12 +- 1e-3 at mu = 1e-6)",
        f"|Re lambda_h|/sqrt(mu) = {_fmt(hyp)} (sqrt(21/8) +- 2e-3 at mu = 1e-4)",
        f"|Im lambda_e| = {_fmt(ell)} (1 + 7mu/8 +- 1e-3)",
    ])


def check_07_D_expansion() -> AcceptanceResult:
    rems = []
    for eps in (1e-2, 5e-3):
        s = rpc3bp.PoincareState(lam=1.0, L=1.0, eta=eps, xi=eps)
        d0, d1, d2 = rpc3bp.D_series(-1.0, s)
        rems.append(abs(rpc3bp.D_exact(-1.0, s) - (d0 + d1 + d2)))
    ratio = rems[0] / rems[1]
    return AcceptanceResult(7, "quadratic truncation of D", ratio >= 7.0, [
        f"remainder ratio under (eta,xi) halving = {_fmt(ratio)} (>= 7)",
    ])


def check_08_gradient_gate() -> AcceptanceResult:
    rng = random.Random(42)
    worst = 0.0
    for _ in range(50):
        U = rng.uniform(3.0, 100.0) * cmath.exp(
            1j * rng.uniform(-1.4 * math.pi, 0.45 * math.pi))
        Z = tuple(0.05 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                  for _ in range(3))
        exact = inner.grad_K(U, Z)
        approx = inner.grad_K_fd(U, Z)
        for a, b in zip(exact, approx):
            denom = max(abs(a), abs(b), 1e-12)
            worst = max(worst, abs(a - b) / denom)
    return AcceptanceResult(8, "closed-form gradient gate", worst <= 1e-6, [
        f"max relative deviation over 50 points = {_fmt(worst)} (<= 1e-6)",
    ])


def check_09_series_residual_order() -> AcceptanceResult:
    # above |U| = 100 the residual sinks into the round-off floor
    us = geomspace(30.0, 100.0, 7)
    slope = fit_line([math.log(u) for u in us],
                     [math.log(inner.series_residual(u)) for u in us])[0]
    ok = abs(slope + 43.0 / 3.0) <= 0.25
    return AcceptanceResult(9, "asymptotic series residual order", ok, [
        f"fitted decay order = {_fmt(-slope)} (43/3 +- 0.25)",
    ])


def check_10_stokes_table() -> AcceptanceResult:
    t0 = time.perf_counter()
    records = inner.theta_table(sorted(_REF_THETA_TABLE))
    elapsed = time.perf_counter() - t0
    lines = []
    ok = elapsed < 300.0
    for rec in records:
        target = _REF_THETA_TABLE[rec.rho]
        good = abs(rec.theta - target) <= 5e-3
        ok = ok and good
        lines.append(
            f"rho = {rec.rho:g}: theta = {_fmt(rec.theta)} "
            f"(reference {target}, tol 5e-3, within: {good})"
        )
    lines.append(f"runtime under 300 s: {elapsed < 300.0}")
    return AcceptanceResult(10, "Stokes constant table", ok, lines)


def check_11_difference_structure() -> AcceptanceResult:
    rep = inner.diff_structure()
    ok = (rep.rel_spread_y <= 0.2 and rep.xy_suppression <= 0.1
          and rep.arg_spread_y <= 0.3)
    return AcceptanceResult(11, "difference structure at rho = 15", ok, [
        f"relative spread of e^(iU) dY = {_fmt(rep.rel_spread_y)} (<= 0.2)",
        f"max |dX|/|dY| = {_fmt(rep.xy_suppression)} (<= 0.1)",
        f"arg spread of e^(iU) dY = {_fmt(rep.arg_spread_y)} rad (<= 0.3)",
    ])


def check_12_inner_limit() -> AcceptanceResult:
    fit = inner.verify_inner_limit()
    ok = fit.exponent >= 1.2
    lines = [
        f"residual at delta = {d:g}: {_fmt(r)}"
        for d, r in zip(fit.deltas, fit.residuals)
    ]
    lines.append(f"fitted order = {_fmt(fit.exponent)} (>= 1.2, target 4/3)")
    return AcceptanceResult(12, "inner-limit residual order", ok, lines)


def check_13_splitting_cross_validation() -> AcceptanceResult:
    return _check_13(splitting.fit_splitting_exponent())


def _check_13(fit) -> AcceptanceResult:
    A = separatrix.compute_A()
    rel = abs(fit.slope + A) / A
    positive = all(s.dist_measured > 0.0 for s in fit.samples)
    ok = rel <= 0.10 and positive
    return AcceptanceResult(13, "splitting exponent cross-validation", ok, [
        f"fitted slope = {_fmt(fit.slope)} vs -A = {_fmt(-A)}"
        f" (relative error {_fmt(rel)}, <= 0.10)",
        f"all measured distances positive: {positive}",
        f"effective prefactor |Theta_eff| = {_fmt(fit.theta_effective)}",
    ])


CHECKS = (
    check_01_constant_A,
    check_02_two_forms_of_A,
    check_03_pole_residue,
    check_04_visible_singularities,
    check_05_branch_structure,
    check_06_l3_expansion,
    check_07_D_expansion,
    check_08_gradient_gate,
    check_09_series_residual_order,
    check_10_stokes_table,
    check_11_difference_structure,
    check_12_inner_limit,
    check_13_splitting_cross_validation,
)


# how many of check 13's mass ratios, the first of its grid, run_all's caller
# traces after checks 1-12 while the worker traces the rest, so that the two
# sides take about as long
_CALLER_MUS = 2


def run_all() -> list[AcceptanceResult]:
    """Run every check; the results come back in check order.

    The entries of ``CHECKS`` are read at call time, so a replaced tuple is
    honoured.  All but the last run here in order, while the last runs in
    the worker of :func:`~l3lab._fanout._fork_pair`, so it must be
    picklable by reference.  Check 13, when it is the last, is split
    instead: the worker traces its grid past the first ``_CALLER_MUS`` mass
    ratios, which are traced here after the other checks, and the fit is
    made here from all the samples in grid order.  Each sample has the same
    bits in either process.  Exceptions come in check order.
    """
    from ._fanout import _fork_pair
    *here, last = CHECKS
    if last is not check_13_splitting_cross_validation:
        results, result = _fork_pair(lambda: [fn() for fn in here], last)
        return results + [result]
    grid = splitting._MU_GRID
    (results, mine), theirs = _fork_pair(
        lambda: ([fn() for fn in here],
                 splitting._gap_samples(grid[:_CALLER_MUS])),
        splitting._gap_samples, grid[_CALLER_MUS:])
    return results + [_check_13(splitting._fit_samples(mine + theirs))]
