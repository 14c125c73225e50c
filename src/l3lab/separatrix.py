"""The reduced pendulum-like system and its separatrix in complex time.

The one-degree-of-freedom Hamiltonian -(3/2) Lambda^2 + V(lambda) with
V(lambda) = 1 - cos(lambda) - 1/sqrt(2 + 2 cos(lambda)) has a saddle at the
origin and a homoclinic loop at energy -1/2.  This module provides

* the time parametrization sigma(t) of that loop continued into complex
  time along straight legs from t = 0 (:func:`sigma` for one point,
  :func:`sigma_sweep` for a chain of points, each leg integrated once),
* the half-width A of its maximal analyticity strip as an explicit integral
  (:func:`compute_A`) together with the equivalent rescaled form,
* the location of the singularities of the continuation reachable through
  integrals of the multivalued function fhat over paths in the q-plane,
  q = cos(lambda/2), with explicit branch bookkeeping (:func:`t_star`),
* local structure fits at the strip-boundary singularity (:func:`fit_branch`)
  and a zero-free scan of Lambda over the strip
  (:func:`check_zero_of_Lambda`).

Branch tracking never applies a fixed-branch square root to the product
under fhat; instead the four linear factors q, q+1, q-a+, q-a- carry
individually accumulated arguments along each path.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (Arc, ComplexPath, L3labError, Line, QuadResult,
                       integrate_chain, quad_path)

__all__ = [
    "A_PLUS",
    "A_MINUS",
    "ALPHA_PLUS",
    "V",
    "pend_rhs",
    "pend_energy",
    "lambda0",
    "PendulumState",
    "BranchedPoint",
    "fhat_at",
    "compute_A",
    "compute_A_rescaled",
    "residue_pole",
    "residue_pole_numeric",
    "t_star",
    "sigma",
    "sigma_sweep",
    "fit_branch",
    "SingularityReport",
    "check_zero_of_Lambda",
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
_N_SUB = 64


@dataclass(frozen=True)
class BranchedPoint:
    """A point of the q-plane with the continuously tracked factor arguments.

    ``accumulated_args`` are the arguments of q, q+1, q-a+, q-a- carried
    along the path from the base point (a+, first sheet).
    """

    q: complex
    accumulated_args: tuple[float, float, float, float]


def fhat_at(bp: BranchedPoint) -> complex:
    """Value of fhat = sqrt(q/(3(q+1)(q-a+)(q-a-)))/(q-1) at a branched point."""
    q = bp.q
    a0, a1, a2, a3 = bp.accumulated_args
    mod = math.sqrt(
        abs(q) / (3.0 * abs(q + 1.0) * abs(q - A_PLUS) * abs(q - A_MINUS))
    )
    phase = 0.5 * (a0 - a1 - a2 - a3)
    return mod * cmath.exp(1j * phase) / (q - 1.0)


def _dphase(num, den):
    return cmath.phase(num / den)


class _SegmentTracker:
    """Continuous factor arguments along one segment.

    The segment is cut into sub-chords short enough that each factor turns by
    less than pi within a chord, so the principal argument of the ratio to
    the chord's reference point recovers the continuous argument.
    """

    def __init__(self, seg, start_args):
        self.seg = seg
        refs = []
        args = []
        cur = list(start_args)
        prev_w = None
        for j in range(_N_SUB):
            s = j / _N_SUB
            if j == 0:
                s_ref = 1e-12 if self._degenerate(seg.point(0.0)) else 0.0
            else:
                s_ref = s
            z = seg.point(s_ref)
            w = [z - c for c in _FACTOR_POINTS]
            if prev_w is not None:
                for k in range(4):
                    cur[k] += _dphase(w[k], prev_w[k])
            refs.append((z, w))
            args.append(tuple(cur))
            prev_w = w
        self._refs = refs
        self._args = args
        # arguments at the segment end, for chaining into the next segment
        z_end = seg.point(1.0)
        end = list(self._args[-1])
        wr = self._refs[-1][1]
        for k in range(4):
            w_end = z_end - _FACTOR_POINTS[k]
            end[k] += _dphase(w_end, wr[k]) if w_end != 0 else 0.0
        self.end_args = tuple(end)

    @staticmethod
    def _degenerate(z):
        return any(z == c for c in _FACTOR_POINTS)

    def _param(self, z) -> float:
        seg = self.seg
        if isinstance(seg, Line):
            s = ((z - seg.a) / (seg.b - seg.a)).real
        else:
            phi = cmath.phase(z - seg.center)
            dphi = seg.phi_end - seg.phi_start
            s = (phi - seg.phi_start) / dphi
            for k in (-1.0, 1.0):
                alt = (phi - seg.phi_start + 2.0 * math.pi * k) / dphi
                if abs(alt - 0.5) < abs(s - 0.5):
                    s = alt
        return min(max(s, 0.0), 1.0)

    def branched_point(self, z) -> BranchedPoint:
        s = self._param(z)
        j = min(int(s * _N_SUB), _N_SUB - 1)
        _, wr = self._refs[j]
        base = self._args[j]
        args = tuple(
            base[k] + _dphase(z - _FACTOR_POINTS[k], wr[k]) for k in range(4)
        )
        return BranchedPoint(q=z, accumulated_args=args)

    def integrand(self):
        def f(z):
            return fhat_at(self.branched_point(z))
        return f


def _track_path(path: ComplexPath, start_args=(0.0, 0.0, 0.0, 0.0)):
    trackers = []
    args = start_args
    for seg in path.segments:
        tr = _SegmentTracker(seg, args)
        trackers.append(tr)
        args = tr.end_args
    return trackers


def _integrate_fhat(path: ComplexPath, tol: float,
                    start_args=(0.0, 0.0, 0.0, 0.0)) -> QuadResult:
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for tr in _track_path(path, start_args):
        res = quad_path(tr.integrand(), ComplexPath((tr.seg,)), tol=tol)
        total += res.value
        err += res.err
        evals += res.evals
    return QuadResult(value=total, err=err, evals=evals)


# ---------------------------------------------------------------------------
# the constant A and the pole residue
# ---------------------------------------------------------------------------

def _quad_shifted(g, tol: float) -> QuadResult:
    # integral of g over xi = a+ - x in [0, a+]: the inverse-square-root
    # endpoint x = a+ sits at coordinate zero and keeps full double precision
    if not tol >= 1e-13:
        raise ValueError("tol must be >= 1e-13")
    res = quad_path(lambda z: g(z.real), ComplexPath.line(0.0, A_PLUS),
                    tol=tol)
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
    circle = ComplexPath((Arc(1.0, radius, -math.pi, math.pi),))
    res = _integrate_fhat(circle, 1e-12)
    return res.value / (2j * math.pi)


# ---------------------------------------------------------------------------
# singularities of the continued separatrix
# ---------------------------------------------------------------------------

def _conj_path(path: ComplexPath) -> ComplexPath:
    segs = []
    for seg in path.segments:
        if isinstance(seg, Line):
            segs.append(Line(seg.a.conjugate(), seg.b.conjugate()))
        else:
            segs.append(Arc(seg.center.conjugate(), seg.radius,
                            -seg.phi_start, -seg.phi_end))
    return ComplexPath(tuple(segs))


def _zero_path(detour: float) -> ComplexPath:
    return ComplexPath((
        Line(A_PLUS, A_PLUS + detour),
        Arc(A_PLUS, detour, 0.0, math.pi),
        Line(A_PLUS - detour, 0.0),
    ))


# where the paths to infinity are truncated
_R_MAX = 1e4


def _infinity_path(detour: float) -> ComplexPath:
    return ComplexPath((
        Line(A_PLUS, 1.0 - detour),
        Arc(1.0, detour, math.pi, 0.0),
        Line(1.0 + detour, _R_MAX),
    ))


_T_STAR_KINDS = ("zero_upper", "zero_lower", "infinity_upper", "infinity_lower")


def t_star(path_kind: str, detour: float = 1e-3,
           tol: float = 1e-11) -> complex:
    """Singularity position reached by the chosen q-plane path family.

    ``zero_upper``/``zero_lower``: q from a+ to 0 with the branch-point
    detour through the upper/lower half plane (giving -iA / +iA).
    ``infinity_upper``/``infinity_lower``: q from a+ past the pole at q = 1
    to infinity; the integral is truncated at q = R = 1e4 and finished with
    the analytic tail 1/(sqrt(3) R) of fhat = 1/(sqrt(3) q^2) + O(q^-3).
    """
    if path_kind not in _T_STAR_KINDS:
        raise ValueError(f"path_kind must be one of {_T_STAR_KINDS}")
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

def _pend_field(t, y):
    dl, dL = pend_rhs(y[0], y[1])
    return (dl, dL)


def _state(y) -> PendulumState:
    return PendulumState(lam=complex(y[0]), Lam=complex(y[1]))


def sigma(t: complex) -> PendulumState:
    """The separatrix continued from sigma(0) = (lambda0, 0) straight to t."""
    return sigma_sweep([t])[0]


def sigma_sweep(points, rtol: float = 1e-12) -> list[PendulumState]:
    """States at a chain of time points from t = 0, integrating each leg once.

    The chain is a polyline 0 -> points[0] -> points[1] -> ..., so a path
    that detours around a singularity is given by its corners.
    """
    ys = integrate_chain(_pend_field, 0.0, points, (lambda0(), 0.0),
                         rtol=rtol, atol=1e-14)
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
        t_offsets = np.geomspace(1e-4, 1e-3, 9)
    s = np.sort(np.asarray(t_offsets, dtype=float))
    if s[0] < 1e-4 - 1e-15 or s[-1] > 1e-2 + 1e-15:
        raise ValueError("offsets must lie in [1e-4, 1e-2]")
    A = compute_A()
    heights = [1j * (A - v) for v in s[::-1]]
    states = sigma_sweep(heights)[::-1]
    lam = np.array([st.lam for st in states])
    Lam = np.array([st.Lam for st in states])

    logs = np.log(s)
    y_lam = np.log(np.abs(lam - math.pi))
    exp_lam, b_lam = np.polyfit(logs, y_lam, 1)
    resid = float(np.max(np.abs(y_lam - (exp_lam * logs + b_lam))))
    if resid > 1e-2:
        raise FitRejected(f"lambda regression residual {resid:.2e} > 1e-2")
    coef_mod = math.exp(float(np.mean(y_lam - (2.0 / 3.0) * logs)))
    # phase from the closest sample: lambda - pi = c * (-i s)^(2/3)
    w = (-1j * s[0]) ** (2.0 / 3.0)
    coef = coef_mod * cmath.exp(1j * cmath.phase((lam[0] - math.pi) / w))
    exp_mom = float(np.polyfit(logs, np.log(np.abs(Lam)), 1)[0])
    return SingularityReport(
        t_star=1j * A, kind="branch23",
        fitted_exponent=float(exp_lam), fitted_coefficient=coef,
        momentum_exponent=exp_mom, residual=resid,
    )


def check_zero_of_Lambda(re_range=(-1.5, 1.5), spacing: float = 0.02) -> float:
    """min |Lambda| on a strip grid with disks around 0 and +-iA removed.

    The disks have radius 0.05.  Supports the statement that t = 0 is the
    only zero of Lambda in the closed strip: the returned minimum stays well
    away from zero.  Each grid column integrates 0 -> x once (rtol 1e-10)
    and continues up and down from that state.
    """
    if not (math.isfinite(spacing) and 0.0 < spacing <= 0.02 + 1e-12):
        raise ValueError("grid spacing must lie in (0, 0.02]")
    lo, hi = re_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("re_range must be a finite increasing pair")
    A = compute_A()
    ims = np.arange(spacing, A - 5e-3, spacing)
    best = math.inf
    for x in np.arange(lo, hi + spacing / 2, spacing):
        base = complex(x, 0.0)
        (y_base,) = integrate_chain(_pend_field, 0.0, [base],
                                    (lambda0(), 0.0), rtol=1e-10, atol=1e-14)
        points, ys = [base], [y_base]
        for sign in (1.0, -1.0):
            column = [complex(x, sign * v) for v in ims]
            points += column
            ys += integrate_chain(_pend_field, base, column, y_base,
                                  rtol=1e-10, atol=1e-14)
        for t, y in zip(points, ys):
            if min(abs(t), abs(t - 1j * A), abs(t + 1j * A)) < 0.05:
                continue
            best = min(best, abs(complex(y[1])))
    return best
