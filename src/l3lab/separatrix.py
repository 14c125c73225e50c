"""The reduced pendulum-like system and its separatrix in complex time.

The one-degree-of-freedom Hamiltonian -(3/2) Lambda^2 + V(lambda) with
V(lambda) = 1 - cos(lambda) - 1/sqrt(2 + 2 cos(lambda)) has a saddle at the
origin and a homoclinic loop at energy -1/2.  This module provides

* the time parametrization sigma(t) of that loop continued into complex
  time along a polyline from t = 0 (:func:`sigma_sweep`, one state per
  corner, each leg integrated once),
* the half-width A of its maximal analyticity strip as an explicit integral
  (:func:`compute_A`) together with the equivalent rescaled form,
* the location of the singularities of the continuation reachable through
  integrals of the multivalued function fhat over paths in the q-plane,
  q = cos(lambda/2), with explicit branch bookkeeping (:func:`t_star`,
  whose paths pass a+ or q = 1 on an arc of radius 1e-3; it integrates the
  upper paths and conjugates them for the lower ones),
* local structure fits at the strip-boundary singularity (:func:`fit_branch`)
  and a zero scan of Lambda from the boundary (:func:`check_zero_of_Lambda`):
  one walk around the upper halves of a rectangle in the strip and a circle
  around t = 0 counts the zeros inside each and gives min |Lambda| between
  them; the lower halves are the image under sigma(conj t) = conj sigma(t).

Along the real axis sigma(t) tends to the saddle, which amplifies the
integration error as fast as lambda decays, so the command line's samples and
the zero scan reach at most |Re t| = ``RE_REACH`` = 6.

Branch tracking never applies a fixed-branch square root to the product
under fhat; instead the four linear factors q, q+1, q-a+, q-a- carry
individually accumulated arguments along each path.  A path is a tuple of
:class:`Line`/:class:`Arc` segments joined end to start, and each segment is
integrated in w = q - a from its start a, so a factor vanishing there is
exactly w.  Along a segment a factor's argument is its value at a plus the
principal phase of (q - c)/(a - c), exact because no segment subtends pi or
more at a factor point c; the half-turn around a+ on the paths to zero adds
its own signed angle at its end.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import (Arc, L3labError, Line, QuadResult, fit_line,
                       geomspace, integrate_chain, quad_path)

__all__ = [
    "A_PLUS",
    "A_MINUS",
    "ALPHA_PLUS",
    "V",
    "pend_rhs",
    "pend_energy",
    "lambda0",
    "PendulumState",
    "compute_A",
    "compute_A_rescaled",
    "residue_pole",
    "residue_pole_numeric",
    "t_star",
    "sigma_sweep",
    "fit_branch",
    "SingularityReport",
    "check_zero_of_Lambda",
    "RE_REACH",
    "CollisionSingularity",
    "FitRejected",
    "ZeroCountRejected",
]

SQRT2 = math.sqrt(2.0)
A_PLUS = (-1.0 + SQRT2) / 2.0
A_MINUS = (-1.0 - SQRT2) / 2.0

# cube root of 1/2 selected by the strip-boundary expansion on the sector
# arg(t - iA) in (-3pi/2, pi/2): lambda - pi is real negative on the ray
# approaching iA from below.
ALPHA_PLUS = 2.0 ** (-1.0 / 3.0) * cmath.exp(-2j * math.pi / 3.0)


class CollisionSingularity(L3labError):
    """Evaluation at the collision lambda = pi (cos(lambda/2) = 0)."""


class FitRejected(L3labError):
    """Singularity-structure regression residual exceeded its gate."""


class ZeroCountRejected(L3labError):
    """A zero-scan contour did not count exactly one zero of Lambda."""


@dataclass(frozen=True)
class PendulumState:
    lam: complex
    Lam: complex


def V(lam):
    """Pendulum potential; the square root is taken as 2 cos(lambda/2).

    That choice is the analytic continuation along the separatrix (where
    cos(lambda/2) > 0) and makes V a single-valued meromorphic function.
    """
    half = cmath.cos(lam / 2.0)
    if abs(half) < 1e-8:
        raise CollisionSingularity(f"lambda = {lam} too close to collision")
    val = 1.0 - cmath.cos(lam) - 1.0 / (2.0 * half)
    if isinstance(lam, float) or (isinstance(lam, complex) and lam.imag == 0.0):
        return val.real if abs(val.imag) < 1e-15 * (1 + abs(val)) else val
    return val


def pend_rhs(lam, Lam):
    """Right-hand side (dlambda/dt, dLambda/dt) of the reduced system."""
    half = cmath.cos(lam / 2.0)
    if abs(half) < 1e-8:
        raise CollisionSingularity(f"lambda = {lam} too close to collision")
    dLam = -cmath.sin(lam) + cmath.sin(lam / 2.0) / (4.0 * half * half)
    return -3.0 * Lam, dLam


def pend_energy(lam, Lam):
    return -1.5 * Lam * Lam + 1.0 - cmath.cos(lam) - 1.0 / (2.0 * cmath.cos(lam / 2.0))


def lambda0() -> float:
    """Turning point of the loop: the solution of V = -1/2 in (2pi/3, pi)."""
    return 2.0 * math.acos(A_PLUS)


# ---------------------------------------------------------------------------
# fhat on its Riemann surface
# ---------------------------------------------------------------------------

_FACTOR_POINTS = (0.0, -1.0, A_PLUS, A_MINUS)


def _fhat(w, offsets, args) -> complex:
    """fhat = sqrt(q/(3(q+1)(q-a+)(q-a-)))/(q-1) at q = a + w.

    ``offsets`` are a - c for the factor points c = 0, -1, a+, a- and then
    a - 1 for the pole; ``args`` are the arguments of the four factors
    q - c at q = a.  Each factor is w + (a - c), exact when a = c, and its
    argument moves by the principal phase of (q - c)/(a - c): exact while the
    segment from a subtends less than pi at c.  A factor that vanishes at a
    keeps its argument, which is right on a Line leaving c.
    """
    z = [w + d for d in offsets]
    turns = [g + (cmath.phase(f / d) if d else 0.0)
             for f, d, g in zip(z, offsets, args)]
    mod = math.sqrt(abs(z[0]) / (3.0 * abs(z[1]) * abs(z[2]) * abs(z[3])))
    phase = 0.5 * (turns[0] - turns[1] - turns[2] - turns[3])
    return mod * cmath.exp(1j * phase) / z[4]


def _shifted(seg):
    """The segment in w = q - a, where a is its start."""
    a = seg.start
    if isinstance(seg, Line):
        return Line(0.0, seg.b - a)
    return Arc(seg.center - a, seg.radius, seg.phi_start, seg.phi_end)


def _end_args(seg, offsets, args):
    """The factor arguments at the end of ``seg`` from those at its start.

    The one arc centred on a factor point is the half-turn around a+ of the
    paths to zero: that factor turns by the arc's own signed angle.
    t_star's detour and the bound on residue_pole_numeric's radius keep the
    factor points outside every other arc's disk.
    """
    out = []
    for c, d, arg in zip(_FACTOR_POINTS, offsets, args):
        if isinstance(seg, Arc) and seg.center == c:
            arg += seg.phi_end - seg.phi_start
        elif d:
            arg += cmath.phase((seg.end - c) / d)
        out.append(arg)
    return tuple(out)


def _integrate_fhat(path, tol: float) -> QuadResult:
    """Integral of fhat along a chain of segments that join end to start.

    The path starts on the real interval [a+, 1) of the first sheet, where
    every factor argument is 0.  Each segment is one quadrature in
    w = q - a from its start a.
    """
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    args = (0.0, 0.0, 0.0, 0.0)
    for seg in path:
        a = seg.start
        offsets = tuple(a - c for c in _FACTOR_POINTS) + (a - 1.0,)
        res = quad_path(lambda w: _fhat(w, offsets, args), _shifted(seg),
                        tol=tol)
        total += res.value
        err += res.err
        evals += res.evals
        args = _end_args(seg, offsets, args)
    return QuadResult(value=total, err=err, evals=evals)


# ---------------------------------------------------------------------------
# the constant A and the pole residue
# ---------------------------------------------------------------------------

def _quad_shifted(g, tol: float) -> QuadResult:
    # integral of g over xi = a+ - x in [0, a+]: the inverse-square-root
    # endpoint x = a+ sits at coordinate zero and keeps full double precision
    if not tol >= 1e-13:
        raise ValueError("tol must be >= 1e-13")
    res = quad_path(lambda z: g(z.real), Line(0.0, A_PLUS), tol=tol)
    return QuadResult(value=res.value.real, err=res.err, evals=res.evals)


def compute_A(tol: float = 1e-12) -> float:
    """Half-width of the separatrix analyticity strip, A ~ 0.177744."""
    return compute_A_quad(tol).value


def compute_A_quad(tol: float = 1e-12) -> QuadResult:
    """A as the integral of sqrt(x/(3(x+1)(a+-x)(x-a-)))/(1-x) on [0, a+]."""
    def g(xi):
        x = A_PLUS - xi
        return (1.0 / (1.0 - x)) * math.sqrt(
            x / (3.0 * (x + 1.0) * xi * (x - A_MINUS))
        )

    return _quad_shifted(g, tol)


def compute_A_rescaled(tol: float = 1e-12) -> float:
    """Same constant from the rescaled integral with 2/(1-x) and 1-4x-4x^2.

    Shifting x = a+ - xi turns the polynomial 1 - 4x - 4x^2 into
    4 xi (sqrt(2) - xi) exactly, which is how it is evaluated here.
    """
    def g(xi):
        x = A_PLUS - xi
        poly = 4.0 * xi * (SQRT2 - xi)
        return (2.0 / (1.0 - x)) * math.sqrt(x / (3.0 * (x + 1.0) * poly))

    return _quad_shifted(g, tol).value


def residue_pole() -> float:
    """Residue of fhat at q = 1 on the first sheet: sqrt(2/21)."""
    return math.sqrt(1.0 / (6.0 * (1.0 - A_PLUS) * (1.0 - A_MINUS)))


def residue_pole_numeric(radius: float = 1e-3) -> complex:
    """(1/2 pi i) times the contour integral of fhat around q = 1."""
    if not 1e-6 < radius <= 0.2:
        raise ValueError("radius must lie in (1e-6, 0.2]")
    res = _integrate_fhat((Arc(1.0, radius, -math.pi, math.pi),), 1e-12)
    return res.value / (2j * math.pi)


# ---------------------------------------------------------------------------
# singularities of the continued separatrix
# ---------------------------------------------------------------------------

def _zero_path(detour: float):
    return (
        Line(A_PLUS, A_PLUS + detour),
        Arc(A_PLUS, detour, 0.0, math.pi),
        Line(A_PLUS - detour, 0.0),
    )


# where the paths to infinity are truncated
_R_MAX = 1e4


def _infinity_path(detour: float):
    return (
        Line(A_PLUS, 1.0 - detour),
        Arc(1.0, detour, math.pi, 0.0),
        Line(1.0 + detour, _R_MAX),
    )


_T_STAR_KINDS = ("zero_upper", "zero_lower", "infinity_upper", "infinity_lower")
# the radius of t_star's arc around a+ or q = 1, and its quadrature
# tolerance; the arc must stay under a+, or from 1 - a+ on the arc around
# q = 1 encloses a+ and ends on another sheet
_DETOUR = 1e-3
_T_STAR_TOL = 1e-11


def t_star(path_kind: str) -> complex:
    """Singularity position reached by the chosen q-plane path family.

    ``zero_upper``/``zero_lower``: q from a+ to 0 with the branch-point
    detour through the upper/lower half plane (giving -iA / +iA).
    ``infinity_upper``/``infinity_lower``: q from a+ past the pole at q = 1
    to infinity; the integral is truncated at q = R = 1e4 and finished with
    the analytic tail 1/(sqrt(3) R) of fhat = 1/(sqrt(3) q^2) + O(q^-3).
    The detour is an arc of radius 1e-3 around a+ (paths to zero) or q = 1
    (paths to infinity).  Only the upper paths are integrated: fhat is real
    on (a+, 1), so the lower path is the mirror image of the upper one and
    a lower kind is the conjugate of its upper kind.
    """
    if path_kind not in _T_STAR_KINDS:
        raise ValueError(f"path_kind must be one of {_T_STAR_KINDS}")
    to_zero = path_kind.startswith("zero")
    path = _zero_path(_DETOUR) if to_zero else _infinity_path(_DETOUR)
    value = _integrate_fhat(path, _T_STAR_TOL).value
    if not to_zero:
        value += 1.0 / (math.sqrt(3.0) * _R_MAX)
    return value if path_kind.endswith("upper") else value.conjugate()


# ---------------------------------------------------------------------------
# sigma: the separatrix in complex time
# ---------------------------------------------------------------------------

# the farthest |Re t| the separatrix is sampled at, the reach of the
# command line's default grid and the bound of the zero scan: the saddle
# amplifies the integration error as fast as lambda decays toward it.
# Against rtol-1e-14 chains, rtol-1e-12 samples of lambda 0.05 apart are
# off by 6.8e-6 relative at t = 6, 1.7e-4 at 7, 4.4e-3 at 8, 0.11 at 9 and
# 2.6 at 10, and the zero scan's rtol-1e-10 minimum by 1.4e-5 on (-6, 6)
# and a factor of 5 on (-10, 10)
RE_REACH = 6.0

# the radius of the zero scan's disk around t = 0, and the height of its
# rectangle: the top row of the 0.02 grid it replaced, 0.018 below iA
_SCAN_RADIUS = 0.05
_SCAN_TOP = 0.16


def _pend_field(t, y):
    return pend_rhs(y[0], y[1])


def _state(y) -> PendulumState:
    return PendulumState(lam=complex(y[0]), Lam=complex(y[1]))


def sigma_sweep(points) -> list[PendulumState]:
    """States at a chain of time points from t = 0, integrating each leg once.

    The separatrix starts from sigma(0) = (lambda0, 0).  The chain is a
    polyline 0 -> points[0] -> points[1] -> ..., so a path that detours
    around a singularity is given by its corners.  Each leg runs at rtol
    1e-12.
    """
    ys = integrate_chain(_pend_field, 0.0, points, (lambda0(), 0.0),
                         rtol=1e-12, atol=1e-14)
    return [_state(y) for y in ys]


@dataclass
class SingularityReport:
    t_star: complex
    kind: str
    fitted_exponent: float
    fitted_coefficient: complex
    momentum_exponent: float
    residual: float


# the offsets s of fit_branch's samples at t = i(A - s), ascending
_BRANCH_OFFSETS = tuple(geomspace(1e-4, 1e-3, 9))


def fit_branch() -> SingularityReport:
    """Local structure of the continuation at t = iA from inside the strip.

    Samples sigma on the ray t = i(A - s), s in [1e-4, 1e-3]; a log-log
    regression of |lambda - pi| against s gives the branching exponent
    (2/3), and the coefficient of the s^(2/3) law is extracted at the
    theoretical exponent (the free-intercept estimate amplifies slope noise
    by |log s| ~ 8).  The Lambda blow-up exponent (-1/3) comes from the same
    samples.
    """
    s = _BRANCH_OFFSETS
    A = compute_A()
    heights = [1j * (A - v) for v in s[::-1]]
    states = sigma_sweep(heights)[::-1]

    logs = [math.log(v) for v in s]
    y_lam = [math.log(abs(st.lam - math.pi)) for st in states]
    exp_lam, b_lam = fit_line(logs, y_lam)
    resid = max(abs(y - (exp_lam * x + b_lam)) for x, y in zip(logs, y_lam))
    if resid > 1e-2:
        raise FitRejected(f"lambda regression residual {resid:.2e} > 1e-2")
    coef_mod = math.exp(
        sum(y - (2.0 / 3.0) * x for x, y in zip(logs, y_lam)) / len(s))
    # phase from the closest sample: lambda - pi = c * (-i s)^(2/3)
    w = (-1j * s[0]) ** (2.0 / 3.0)
    phase = cmath.phase((states[0].lam - math.pi) / w)
    coef = coef_mod * cmath.exp(1j * phase)
    exp_mom = fit_line(logs, [math.log(abs(st.Lam)) for st in states])[0]
    return SingularityReport(
        t_star=1j * A, kind="branch23",
        fitted_exponent=exp_lam, fitted_coefficient=coef,
        momentum_exponent=exp_mom, residual=resid,
    )


def check_zero_of_Lambda(re_range=(-1.5, 1.5)) -> float:
    """min |Lambda| on a strip rectangle minus a disk, from its boundary.

    Supports the claim that t = 0 is the only zero of Lambda in the strip.
    On the rectangle [lo, hi] x [-0.16, 0.16], ``re_range`` = (lo, hi), the
    change of arg Lambda around a contour counts the zeros inside (Delves
    and Lyness, Math. Comp. 21, 1967); once the rectangle minus the disk
    |t| < 0.05 holds none, the smallest |Lambda| there is on its boundary.
    As sigma(conj t) = conj sigma(t), one chain from t = 0 at rtol 1e-10
    walks only the upper halves: out to 0.05, around the half circle to
    -0.05 on 16 chords, along the real axis to lo, up to lo + 0.16i, across
    to hi + 0.16i and down to hi, with samples at most 0.02 apart (or the
    mirror image t -> -conj(t) if hi is the farther end).  Each part must
    turn arg Lambda by pi, one zero inside, in steps of at most pi/4, or
    :class:`ZeroCountRejected` is raised.  Returns the smallest |Lambda|
    sampled on the two parts.  ``re_range`` must contain [-0.05, 0.05] and
    lie within |Re t| <= RE_REACH = 6.
    """
    lo, hi = re_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("re_range must be a finite increasing pair")
    if max(-lo, hi) > RE_REACH:
        raise ValueError(f"re_range must lie within |Re t| <= {RE_REACH:g}, "
                         f"got {re_range}")
    if not (lo <= -_SCAN_RADIUS and _SCAN_RADIUS <= hi):
        raise ValueError(f"re_range must contain [-0.05, 0.05], "
                         f"got {re_range}")
    points, circle, outer = _scan_walk(lo, hi)
    ys = integrate_chain(_pend_field, 0.0, points, (lambda0(), 0.0),
                         rtol=1e-10, atol=1e-14)
    lams = [y[1] for y in ys]
    # counterclockwise around t = 0 on the half circle, clockwise outside
    for name, part, turn in (("half circle", circle, 1.0),
                             ("outer sides", outer, -1.0)):
        on = lams[part]
        steps = [cmath.phase(b * a.conjugate()) for a, b in zip(on, on[1:])]
        count = turn * math.fsum(steps) / math.pi
        worst = max(map(abs, steps))
        if worst > math.pi / 4 or round(count) != 1:
            raise ZeroCountRejected(
                f"the {name} of {re_range} count {count:.6f} zeros of Lambda"
                f" in arg steps up to {worst:.3f} rad, not 1 within pi/4")
    return min(map(abs, lams[circle] + lams[outer]))


def _scan_walk(lo, hi):
    """The walk from t = 0, and its half circle's and outer sides' slices."""
    # |Lambda| is the same on the mirror image t -> -conj(t), lambda being
    # even: walk the one whose farther end, lo, the real axis reaches, as
    # the error from passing iA grows like |Lambda|^-2 on the way to hi
    if hi > -lo:
        lo, hi = -hi, -lo

    def spaced(a, b):
        # from a, excluded, to b, in equal steps of at most 0.02
        n = max(1, math.ceil(abs(b - a) / 0.02 - 1e-9))
        return [a + (b - a) * k / n for k in range(1, n)] + [b]

    r = _SCAN_RADIUS
    circle = [cmath.rect(r, math.pi * k / 16) for k in range(16)] + [-r]
    corners = [lo, complex(lo, _SCAN_TOP), complex(hi, _SCAN_TOP), hi]
    outer = [lo]
    for a, b in zip(corners, corners[1:]):
        outer += spaced(a, b)
    points = circle + spaced(-r, lo)[:-1] + outer
    return points, slice(len(circle)), slice(len(points) - len(outer), None)
