"""Full-model measurement of the manifold splitting at the quarter section.

The one-dimensional stable/unstable manifolds of the collinear point beyond
the heavy primary are grown from eigenvector seeds 1e-7 from it and followed
to their first intersection with the section theta = pi/2, r > 1.  For small
mass ratios the gap between the two intersection points shrinks like
4^(1/3) mu^(1/3) exp(-A/sqrt(mu)) |Theta|, which cross-validates the
analyticity constant A obtained from the separatrix integrals: the slope of
log(gap mu^(-1/3)) against 1/sqrt(mu) over 12 mass ratios in [1e-3, 2e-3]
estimates -A (:func:`fit_splitting_exponent`).

Trajectories are integrated by stepping the package's DOP853
(:func:`~l3lab.numerics.ode_steps`) in time units on real states; each sign
change of theta - section is refined by :func:`~l3lab.numerics.find_root`
on the step's seventh-order dense output, and integration stops at the
first crossing with r > 1.  Plot samples of a trajectory come from the dense
output of those same steps.  A single section point is traced at rtol 1e-12;
the two traces of :func:`section_gap` at a tolerance that follows the size
of the gap, between 1e-13 and 1e-9 (its docstring gives the rule).

:func:`section_gap` sends the stable branch to the fan-out worker of
:func:`~l3lab._fanout._fork_pair`, an ``os.fork`` child forked once per
process, while the caller traces the unstable one, which takes about 1.3
times the steps (2,388 against 1,793 over the grid of
:func:`fit_splitting_exponent`): it crosses the section first on the inner
leg of its loop, r < 1, swings out to theta ~ 157 degrees and only then
crosses with r > 1, where the stable branch's first crossing is already the
kept one.  The states are floats, so both step on the float form of the
generated DOP853 attempt's error norm.  The fan-out is one level deep:
where ``verify`` traces check 13's samples, in the worker and, for the
first mass ratios of the grid, in the caller while the worker is busy, the
two are traced one after the other, with the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (L3labError, Line, NonFinite, StepUnderflow,
                       _check_s_end, _sample_steps, find_root, fit_line,
                       geomspace, linspace, ode_steps)
from .rpc3bp import (CartesianState, cart_flow, hess_h_cart, locate_L3,
                     polar_from_cart, poincare_from_polar)
from .separatrix import compute_A

__all__ = [
    "SectionPoint",
    "SplittingSample",
    "SplittingFit",
    "asymptotic_distance",
    "manifold_section_point",
    "manifold_trajectory",
    "section_gap",
    "fit_splitting_exponent",
    "NoCrossing",
    "EventDegenerate",
]


class NoCrossing(L3labError):
    """No section crossing found within the time budget."""


class EventDegenerate(L3labError):
    """theta' vanished at the located crossing; the section is tangent."""


@dataclass
class SectionPoint:
    r: float
    R: float
    G: float
    theta: float
    t_hit: float
    state: tuple[float, float, float, float]
    mu: float
    branch: str

    @property
    def eta(self) -> complex:
        return poincare_from_polar(polar_from_cart(
            CartesianState.from_array(self.state))).eta


@dataclass
class SplittingSample:
    mu: float
    dist_measured: float
    dist_asymptotic: float
    gap_r: float
    gap_R: float
    gap_G: float
    gap_eta: float
    # the DOP853 rtol and atol of both traces
    rtol: float


@dataclass
class SplittingFit:
    slope: float
    intercept: float
    samples: list[SplittingSample]

    @property
    def theta_effective(self) -> float:
        return math.exp(self.intercept) / 4.0 ** (1.0 / 3.0)


def asymptotic_distance(mu: float, A: float, theta_abs: float) -> float:
    """Leading term 4^(1/3) mu^(1/3) exp(-A/sqrt(mu)) * theta_abs."""
    if not 0.0 < mu <= 0.05:
        raise ValueError("mu must lie in (0, 0.05]")
    # written so that a NaN fails it
    if not 0.0 <= theta_abs < math.inf:
        raise ValueError(
            f"theta_abs must be finite and non-negative, got {theta_abs}")
    return 4.0 ** (1.0 / 3.0) * mu ** (1.0 / 3.0) * math.exp(
        -A / math.sqrt(mu)) * theta_abs


_BRANCHES = ("unstable_plus", "stable_plus", "unstable_minus", "stable_minus")
# seed offset, DOP853 tolerance and default time budget of every trace
_SEED_EPS = 1e-7
_RTOL = 1e-12
_T_MAX = 1000.0
# section_gap traces at _GAP_RTOL_FACTOR times the gap's asymptotic size
# (at the quoted |Theta|), clamped to [_GAP_RTOL_MIN, _GAP_RTOL_MAX]
_GAP_RTOL_FACTOR = 2e-7
_GAP_RTOL_MIN = 1e-13
_GAP_RTOL_MAX = 1e-9
# the quoted Stokes constant |Theta| of the inner equation
_THETA_ABS = 1.63
# |theta - section| at which the root search on the dense output stops
_EVENT_TOL = 1e-14


def _seed(mu, branch, seed_eps):
    eq = locate_L3(mu)
    stable = branch.startswith("stable")
    lam = -eq.hyperbolic_rate if stable else eq.hyperbolic_rate
    # the eigenvector of the linearization M = J @ hess_h_cart for lam: the
    # kernel of M - lam I, with H01 = 0 on the axis
    y = (lam * lam - 1.0 + hess_h_cart(eq.cartesian, mu)[0][0]) / (2.0 * lam)
    v = (1.0, y, lam - y, 1.0 + lam * y)
    norm = math.hypot(*v)
    # orient so the trajectory leaves toward positive q2 along the direction
    # in which it is actually integrated (forward for unstable, backward for
    # stable); the minus branches take the mirror orientation.  q2' along v
    # is lam * v[1].
    want = 1.0 if branch.endswith("plus") else -1.0
    tdir = -1.0 if stable else 1.0
    if want * tdir * lam * y < 0.0:
        norm = -norm
    return [q + seed_eps * (x / norm)
            for q, x in zip(eq.cartesian.as_tuple(), v)], tdir


def manifold_section_point(mu: float, branch: str = "unstable_plus",
                           t_max: float = _T_MAX,
                           _rtol: float = _RTOL) -> SectionPoint:
    """First crossing of the section theta = pi/2 with r > 1.

    The seed sits at 1e-7 along the hyperbolic eigenvector of the
    equilibrium; unstable branches integrate forward, stable ones backward.
    Crossings with r <= 1 (the inner leg of the loop) are not on the section
    and are skipped.  Integration stops at the first crossing that is kept,
    so ``t_max`` is only a time budget: :class:`NoCrossing` is raised if it
    runs out first; the default holds every first crossing for mu in
    [3e-4, 1e-2], the slowest at |t| ~ 672 (mu = 3e-4).  ``_rtol`` is
    private: only :func:`section_gap` sets it, to its own tolerance.
    """
    return _trace(mu, branch, _SEED_EPS, t_max, math.pi / 2, 0.0,
                  rtol=_rtol)[0]


def _check_mu(mu):
    """Refuse a mass ratio outside the tracing range, NaN included."""
    if not 3e-4 <= mu <= 1e-2:
        raise ValueError("manifold tracing expects mu in [3e-4, 1e-2]")


def _gap_rtol(mu, A):
    """The rtol and atol of :func:`section_gap`'s traces at ``mu``."""
    return min(max(_GAP_RTOL_FACTOR * asymptotic_distance(mu, A, _THETA_ABS),
                   _GAP_RTOL_MIN), _GAP_RTOL_MAX)


def _trace(mu, branch, seed_eps, t_max, section, skip_time, keep_steps=False,
           rtol=_RTOL):
    """Step DOP853 from the seed to the first kept section crossing.

    The seed sits at ``seed_eps`` along the hyperbolic eigenvector, and the
    crossings of theta = ``section`` at or before |t| = ``skip_time`` are
    skipped too; ``rtol`` is the DOP853 rtol and atol.  Returns the
    :class:`SectionPoint` and, with ``keep_steps``, the list of every
    :class:`~l3lab.numerics.OdeStep` up to the hit, whose dense output gives
    the trajectory; otherwise ``None``.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}")
    _check_mu(mu)
    _check_s_end(t_max, "t_max")
    z0, tdir = _seed(mu, branch, seed_eps)

    def event(y):
        return math.atan2(y[1], y[0]) - section

    # the segment parameter is |t|, so the steps, and with them a hit, do not
    # depend on how far past it t_max reaches
    steps = ode_steps(cart_flow(mu), Line(0.0, tdir), z0, rtol=rtol,
                      atol=rtol, s_end=t_max)
    kept = []
    g_new = event(z0)
    try:
        for step in steps:
            if keep_steps:
                kept.append(step)
            g, g_new = g_new, event(step.y_new)
            if not ((g <= 0 <= g_new) or (g >= 0 >= g_new)):
                continue
            s_ev = find_root(lambda s: event(step(s)),
                             (step.s_old, step.s_new), tol=_EVENT_TOL)
            if s_ev <= skip_time:
                continue
            y_ev = step(s_ev)
            pol = polar_from_cart(CartesianState.from_array(y_ev))
            if abs(pol.theta - section) > 1e-6:
                continue  # atan2 branch jump flagged as a sign change
            if pol.r <= 1.0:
                continue
            # d/dt atan2(q2, q1) with qdot = (p1 + q2, p2 - q1)
            thdot = pol.G / pol.r**2 - 1.0
            if abs(thdot) < 1e-8:
                raise EventDegenerate(f"theta' = {thdot:.2e} at the crossing")
            if abs(pol.theta - section) > 1e-10:
                raise EventDegenerate(
                    f"event refinement left |theta - section| = "
                    f"{abs(pol.theta - section):.2e}"
                )
            hit = SectionPoint(r=pol.r, R=pol.R, G=pol.G, theta=pol.theta,
                               t_hit=tdir * s_ev, state=tuple(y_ev),
                               mu=mu, branch=branch)
            return hit, kept if keep_steps else None
    except (StepUnderflow, NonFinite) as exc:
        raise NoCrossing(f"integration failed: {exc}") from exc
    raise NoCrossing(f"no r > 1 crossing of theta = {section} within "
                     f"t_max = {t_max} for mu = {mu}, branch = {branch}")


def section_gap(mu: float, t_max: float = _T_MAX, A: float | None = None,
                theta_abs: float = _THETA_ABS) -> SplittingSample:
    """Gap between the first section hits of the two plus branches.

    Both branches are traced at rtol = atol = 2e-7 times the gap's
    asymptotic size, clamped to [1e-13, 1e-9] (:func:`_gap_rtol`, recorded
    as ``rtol``): over [3e-4, 2e-3] the gap spans three decades, and so
    does the tolerance.  Each hit lands within about 10 rtol of its place at
    rtol 1e-13, and the measured gap is 2-3 times the asymptotic one, so the
    gap is held to about 1e-6 relative (at most 6.2e-7 over the grid of
    :func:`fit_splitting_exponent`, 1.5e-7 at mu = 3e-4).  The rule reads
    mu and A only, with the quoted |Theta| = 1.63, never ``theta_abs``, so
    ``verify`` and ``l3lab distance`` (which passes the shot |Theta|)
    trace a given mu alike.  A single point, as
    :func:`manifold_section_point` and :func:`manifold_trajectory` return
    it, keeps rtol 1e-12: the rule bounds the gap relative to its size,
    not where each hit lies, and at mu = 1.5e-3 its 6.0e-10 moves the
    unstable hit by 2.2e-9.
    """
    from ._fanout import _fork_pair
    _check_mu(mu)
    if A is None:
        A = compute_A()
    rtol = _gap_rtol(mu, A)
    pu, ps = _fork_pair(
        lambda: manifold_section_point(mu, "unstable_plus", t_max, rtol),
        manifold_section_point, mu, "stable_plus", t_max, rtol)
    gr, gR, gG = pu.r - ps.r, pu.R - ps.R, pu.G - ps.G
    dist = math.sqrt(gr * gr + gR * gR + gG * gG)
    return SplittingSample(
        mu=mu, dist_measured=dist,
        dist_asymptotic=asymptotic_distance(mu, A, theta_abs),
        gap_r=gr, gap_R=gR, gap_G=gG, gap_eta=abs(pu.eta - ps.eta),
        rtol=rtol,
    )


def manifold_trajectory(mu: float, branch: str = "unstable_plus",
                        n_points: int = 2000):
    """Sampled manifold trajectory up to its section hit, for plotting.

    Returns ``(ts, states)``: ``n_points`` times from 0 to the first crossing
    of theta = pi/2 with r > 1, and the Cartesian state [q1, q2, p1, p2] at
    each.  The samples come from the dense output of the steps that found
    the hit, so the trajectory is integrated once.
    """
    hit, steps = _trace(mu, branch, _SEED_EPS, _T_MAX, math.pi / 2, 0.0,
                        keep_steps=True)
    ts = linspace(0.0, hit.t_hit, n_points)
    return ts, _sample_steps(steps, [abs(t) for t in ts])


# the mass ratios of fit_splitting_exponent, 12 log-spaced in [1e-3, 2e-3]
_MU_GRID = tuple(geomspace(1e-3, 2e-3, 12))


def fit_splitting_exponent() -> SplittingFit:
    """Linear fit of log(dist * mu^(-1/3)) against 1/sqrt(mu).

    The slope estimates -A.  The grid, 12 mass ratios log-spaced in
    [1e-3, 2e-3], stays below mu ~ 2e-3: beyond roughly mu = 4e-3 the
    manifolds overshoot the turning point of the reduced pendulum and
    slingshot past the light primary, so the first section hit leaves the
    single-round regime.
    """
    return _fit_samples(_gap_samples(_MU_GRID))


def _gap_samples(mus) -> list[SplittingSample]:
    # the section_gap sample at each mu, in order
    A = compute_A()
    return [section_gap(m, A=A) for m in mus]


def _fit_samples(samples) -> SplittingFit:
    # the fit of fit_splitting_exponent over the given samples
    slope, intercept = fit_line(
        [1.0 / math.sqrt(s.mu) for s in samples],
        [math.log(s.dist_measured * s.mu ** (-1.0 / 3.0)) for s in samples])
    return SplittingFit(slope=slope, intercept=intercept, samples=samples)
