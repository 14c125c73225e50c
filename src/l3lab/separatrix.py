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
  q = cos(lambda/2), with explicit branch bookkeeping (:func:`t_star`),
* local structure fits at the strip-boundary singularity (:func:`fit_branch`)
  and a zero-free scan of Lambda over the strip
  (:func:`check_zero_of_Lambda`), integrated on its upper half only: the
  lower half is the conjugate image, sigma(conj t) = conj sigma(t).

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
    paths to zero: that factor turns by the arc's own signed angle.  The
    bounds on t_star's detour and residue_pole_numeric's radius keep the
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

def _conj_path(path):
    segs = []
    for seg in path:
        if isinstance(seg, Line):
            segs.append(Line(seg.a.conjugate(), seg.b.conjugate()))
        else:
            segs.append(Arc(seg.center.conjugate(), seg.radius,
                            -seg.phi_start, -seg.phi_end))
    return tuple(segs)


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


def t_star(path_kind: str, detour: float = 1e-3,
           tol: float = 1e-11) -> complex:
    """Singularity position reached by the chosen q-plane path family.

    ``zero_upper``/``zero_lower``: q from a+ to 0 with the branch-point
    detour through the upper/lower half plane (giving -iA / +iA).
    ``infinity_upper``/``infinity_lower``: q from a+ past the pole at q = 1
    to infinity; the integral is truncated at q = R = 1e4 and finished with
    the analytic tail 1/(sqrt(3) R) of fhat = 1/(sqrt(3) q^2) + O(q^-3).
    ``detour`` is the radius of the arc around a+ (paths to zero) or q = 1
    (paths to infinity).  It must lie in (0, a+), where both arcs stay clear
    of the branch points and the pole they do not circle; from 1 - a+ on,
    the arc around q = 1 encloses a+ and ends on another sheet.
    """
    if path_kind not in _T_STAR_KINDS:
        raise ValueError(f"path_kind must be one of {_T_STAR_KINDS}")
    # written so that a NaN fails it
    if not 0.0 < detour < A_PLUS:
        raise ValueError(f"detour must lie in (0, {A_PLUS}), got {detour}")
    to_zero = path_kind.startswith("zero")
    upper = path_kind.endswith("upper")
    path = _zero_path(detour) if to_zero else _infinity_path(detour)
    if not upper:
        path = _conj_path(path)
    res = _integrate_fhat(path, tol)
    value = res.value
    if not to_zero:
        value += 1.0 / (math.sqrt(3.0) * _R_MAX)
    return value


# ---------------------------------------------------------------------------
# sigma: the separatrix in complex time
# ---------------------------------------------------------------------------

# the farthest |Re t| the separatrix is sampled at, the reach of the
# command line's default grid: the saddle amplifies the integration error
# as fast as lambda decays toward it, so from t ~ 9 the error is the size
# of lambda, and farther out the samples are noise (lambda(12) comes out as
# 2.7e-5, lambda(100) as 3.3e-3)
RE_REACH = 10.0


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


def fit_branch(t_offsets=None) -> SingularityReport:
    """Local structure of the continuation at t = iA from inside the strip.

    Samples sigma on the ray t = i(A - s); a log-log regression of
    |lambda - pi| against s gives the branching exponent (2/3), and the
    coefficient of the s^(2/3) law is extracted at the theoretical exponent
    (the free-intercept estimate amplifies slope noise by |log s| ~ 8).
    The Lambda blow-up exponent (-1/3) comes from the same samples.
    """
    if t_offsets is None:
        t_offsets = geomspace(1e-4, 1e-3, 9)
    s = sorted(float(v) for v in t_offsets)
    if s[0] < 1e-4 - 1e-15 or s[-1] > 1e-2 + 1e-15:
        raise ValueError("offsets must lie in [1e-4, 1e-2]")
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
    """min |Lambda| on a strip grid with disks around 0 and +-iA removed.

    The grid spacing is 0.02 and the disks have radius 0.05.  Supports the
    statement that t = 0 is the only zero of Lambda in the closed strip: the
    returned minimum stays well away from zero.  The base points of the
    grid columns on the real axis are integrated (rtol 1e-10) as two chains
    out from t = 0, one through the x >= 0 ascending and one through the
    x < 0 descending; each column then continues up from its base state.
    Every leg starts from the step the previous leg of its chain ended with.

    Only the upper half of the strip is integrated.  The field is real
    analytic and sigma(0) is real, so sigma(conj t) = conj sigma(t); the
    lower column x - iv holds the conjugates of the upper one, and the
    removed disks are mirror images, so the lower half adds no new value of
    |Lambda|.  This holds in floating point too: every base state has
    imaginary parts of exactly zero, IEEE complex arithmetic and cmath's
    sin and cos commute with conjugation, and the step controller sees the
    same error norms on both columns, so the lower legs take the mirrored
    steps and land on the conjugate states bit for bit, up to the sign of
    a zero part, which |Lambda| does not see.  ``re_range`` must lie
    within |Re t| <= 10.
    """
    lo, hi = re_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("re_range must be a finite increasing pair")
    if max(-lo, hi) > RE_REACH:
        raise ValueError(f"re_range must lie within |Re t| <= {RE_REACH:g}, "
                         f"got {re_range}")
    A = compute_A()
    spacing = 0.02
    ims = _grid(spacing, A - 5e-3, spacing)
    xs = _grid(lo, hi + spacing / 2, spacing)
    right = [x for x in xs if x >= 0.0]
    left = [x for x in reversed(xs) if x < 0.0]
    bases = {}
    for half in (right, left):
        ys = integrate_chain(_pend_field, 0.0, half, (lambda0(), 0.0),
                             rtol=1e-10, atol=1e-14)
        bases.update(zip(half, ys))
    best = math.inf
    for x in xs:
        base = complex(x, 0.0)
        points = [base] + [complex(x, v) for v in ims]
        ys = [bases[x]] + integrate_chain(_pend_field, base, points[1:],
                                          bases[x], rtol=1e-10, atol=1e-14)
        for t, y in zip(points, ys):
            if min(abs(t), abs(t - 1j * A)) < 0.05:
                continue
            best = min(best, abs(y[1]))
    return best


def _grid(start, stop, step):
    """start, start + step, ... short of stop."""
    return [start + k * step for k in range(math.ceil((stop - start) / step))]
