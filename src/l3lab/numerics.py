"""Shared high-accuracy primitives.

Four tools used everywhere else in the package:

* :func:`integrate_ode` -- adaptive integration of a complex ODE along a
  piecewise path in the complex plane of the independent variable, built on
  an embedded Dormand--Prince 8(5,3) pair with compensated (Kahan)
  accumulation of the solution.
* :func:`integrate_chain` -- the states of such an ODE at a chain of
  checkpoints, one straight-line :func:`integrate_ode` leg per step of the
  chain (separatrix sweeps, inner shooting and the zero scan).
* :func:`quad_path` -- contour quadrature over the same path objects using
  per-segment tanh-sinh (double exponential) rules, so integrable endpoint
  singularities |x|^alpha with alpha > -1 need no special casing.
* :func:`find_root` -- safeguarded Newton iteration on a bracket.

All routines are pure functions of their inputs and safe to call
concurrently.

:class:`L3labError` is the base of every exception the package raises for a
numerical failure; each module's concrete classes subclass it directly.
Invalid arguments raise :class:`ValueError` instead.

The complex-path integrator keeps its own Dormand--Prince stepper rather
than running scipy's DOP853 segment by segment.  A prototype of that swap
moved theta_rho by at most 1.2e-7 (rho = 13..20), but it had to derive
rejected steps from ``nfev``, reach into scipy internals for the error
estimate, lost the compensated sum, and was slower on the many short legs
of the separatrix continuation.  :mod:`l3lab.splitting` steps scipy's
DOP853 solver directly for real-time trajectory tracing.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _dop853 as _tab

__all__ = [
    "Line",
    "Arc",
    "ComplexPath",
    "OdeResult",
    "QuadResult",
    "integrate_ode",
    "integrate_chain",
    "quad_path",
    "find_root",
    "L3labError",
    "StepUnderflow",
    "NonFinite",
    "NoConvergence",
    "NoBracket",
]


class L3labError(Exception):
    """Base class for every numerical failure raised by the package."""


class StepUnderflow(L3labError):
    """Adaptive step fell below 1e-14 of the segment length.

    Usually means a singularity of the field sits on or very near the path.
    """


class NonFinite(L3labError):
    """The field returned an overflow / NaN."""


class NoConvergence(L3labError):
    """Successive quadrature refinements disagree by more than 10x tol."""


class NoBracket(L3labError):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class Line:
    """Straight segment from ``a`` to ``b``."""

    a: complex
    b: complex

    def point(self, s: float) -> complex:
        return self.a + s * (self.b - self.a)

    def derivative(self, s: float) -> complex:
        return self.b - self.a

    @property
    def start(self) -> complex:
        return self.a

    @property
    def end(self) -> complex:
        return self.b

    def length(self) -> float:
        return abs(self.b - self.a)


@dataclass(frozen=True)
class Arc:
    """Circular arc ``center + radius*exp(i*phi)``, ``phi`` from start to end.

    ``phi_end < phi_start`` traverses clockwise; a full turn is allowed.
    """

    center: complex
    radius: float
    phi_start: float
    phi_end: float

    def point(self, s: float) -> complex:
        phi = self.phi_start + s * (self.phi_end - self.phi_start)
        return self.center + self.radius * cmath.exp(1j * phi)

    def derivative(self, s: float) -> complex:
        phi = self.phi_start + s * (self.phi_end - self.phi_start)
        return 1j * (self.phi_end - self.phi_start) * self.radius * cmath.exp(1j * phi)

    @property
    def start(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.phi_start)

    @property
    def end(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.phi_end)

    def length(self) -> float:
        return self.radius * abs(self.phi_end - self.phi_start)


Segment = Line | Arc

_JOIN_TOL = 1e-12


@dataclass(frozen=True)
class ComplexPath:
    """Ordered chain of :class:`Line`/:class:`Arc` segments.

    Consecutive segments must share endpoints to within 1e-12 and the total
    length must be finite and positive.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        total = 0.0
        prev_end = None
        for seg in self.segments:
            if prev_end is not None and abs(seg.start - prev_end) > _JOIN_TOL:
                raise ValueError(
                    f"segments disconnected: {prev_end} -> {seg.start}"
                )
            prev_end = seg.end
            total += seg.length()
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError("path length must be finite and positive")

    @classmethod
    def line(cls, a: complex, b: complex) -> "ComplexPath":
        return cls((Line(a, b),))

    @classmethod
    def polyline(cls, points) -> "ComplexPath":
        pts = [complex(p) for p in points]
        return cls(tuple(Line(a, b) for a, b in zip(pts[:-1], pts[1:])))

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    def length(self) -> float:
        return sum(seg.length() for seg in self.segments)

    def reversed(self) -> "ComplexPath":
        out = []
        for seg in reversed(self.segments):
            if isinstance(seg, Line):
                out.append(Line(seg.b, seg.a))
            else:
                out.append(Arc(seg.center, seg.radius, seg.phi_end, seg.phi_start))
        return ComplexPath(tuple(out))


@dataclass
class OdeResult:
    y_end: np.ndarray
    steps: int
    rejected: int
    max_err_est: float


@dataclass
class QuadResult:
    value: complex
    err: float
    evals: int


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_EXP = -1.0 / (_tab.ERROR_ESTIMATOR_ORDER + 1)
_MIN_STEP = 1e-14  # in units of the segment parameter, which runs over [0, 1]


def _initial_step(fun, y0, f0, scale_fn, max_step):
    # Hairer's starting-step heuristic on the segment parameter.
    scale = scale_fn(y0)
    d0 = np.linalg.norm(y0 / scale) / math.sqrt(len(y0))
    d1 = np.linalg.norm(f0 / scale) / math.sqrt(len(y0))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, max_step, 1.0)
    y1 = y0 + h0 * f0
    f1 = fun(h0, y1)
    d2 = np.linalg.norm((f1 - f0) / scale) / math.sqrt(len(y0)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_tab.ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, max_step, 1.0)


def _integrate_segment(field, seg: Segment, y, rtol, atol, max_step_s, stats):
    """March y' = seg'(s) * field(seg(s), y) over s in [0, 1]."""
    A, B, C, E3, E5 = _tab.A, _tab.B, _tab.C, _tab.E3, _tab.E5
    n_stages = _tab.N_STAGES
    n = len(y)
    K = np.empty((n_stages + 1, n), dtype=complex)

    def fun(s, yy):
        f = np.asarray(field(seg.point(s), yy), dtype=complex)
        return seg.derivative(s) * f

    def scale_fn(yy):
        return atol + rtol * np.abs(yy)

    comp = np.zeros(n, dtype=complex)  # Kahan carry for the y accumulator
    s = 0.0
    f = fun(s, y)
    if not np.all(np.isfinite(f.view(float))):
        raise NonFinite("field not finite at the start of a segment")
    h = _initial_step(fun, y, f, scale_fn, max_step_s)

    while True:
        remaining = 1.0 - s
        if remaining <= 1e-15:
            break
        if h < _MIN_STEP:
            raise StepUnderflow(
                f"step {h:.3e} under {_MIN_STEP:.0e} at s={s:.6f} "
                f"(path point {seg.point(s)})"
            )
        h = min(h, max_step_s)
        final = h >= remaining
        if final:
            h = remaining
        K[0] = f
        for i in range(1, n_stages):
            dy = h * (K[:i].T @ A[i, :i])
            K[i] = fun(s + C[i] * h, y + dy)
        incr = h * (K[:n_stages].T @ B)
        # compensated update: y_new = y + incr, carrying the rounding term
        tmp = incr + comp
        y_new = y + tmp
        comp_new = tmp - (y_new - y)
        f_new = fun(s + h, y_new)
        K[n_stages] = f_new
        if not np.all(np.isfinite(K.view(float))):
            raise NonFinite(f"field not finite near path point {seg.point(s)}")

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = (K.T @ E5) / scale
        err3 = (K.T @ E3) / scale
        n5 = np.linalg.norm(err5) ** 2
        n3 = np.linalg.norm(err3) ** 2
        if n5 == 0.0 and n3 == 0.0:
            err_norm = 0.0
        else:
            err_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * n)

        if err_norm < 1.0:
            s = 1.0 if final else s + h
            y = y_new
            comp = comp_new
            f = f_new
            stats["steps"] += 1
            est = err_norm * float(np.max(scale))
            if est > stats["max_err_est"]:
                stats["max_err_est"] = est
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** _ERR_EXP
            )
            h *= factor
        else:
            stats["rejected"] += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ERR_EXP)
    return y


def integrate_ode(field, path: ComplexPath, y0, rtol: float = 1e-10,
                  atol: float = 1e-12, max_step: float = math.inf) -> OdeResult:
    """Analytic continuation of y' = field(t, y) along ``path``.

    ``field(t, y)`` takes the complex path point and the complex state vector
    and returns dy/dt; each segment is traversed in its parameter s in [0,1]
    via the chain rule dy/ds = seg'(s) * field(seg(s), y).  ``max_step`` is
    measured in the segment parameter.
    """
    if not (1e-14 <= rtol <= 1e-2) or not (1e-14 <= atol <= 1e-2):
        raise ValueError("rtol and atol must lie in [1e-14, 1e-2]")
    if isinstance(path, (Line, Arc)):
        path = ComplexPath((path,))
    y = np.asarray(y0, dtype=complex).copy()
    stats = {"steps": 0, "rejected": 0, "max_err_est": 0.0}
    for seg in path.segments:
        y = _integrate_segment(field, seg, y, rtol, atol, max_step, stats)
    return OdeResult(y_end=y, steps=stats["steps"], rejected=stats["rejected"],
                     max_err_est=stats["max_err_est"])


def integrate_chain(field, start: complex, points, y0, rtol: float = 1e-10,
                    atol: float = 1e-12,
                    max_step: float = math.inf) -> list[np.ndarray]:
    """States of y' = field(t, y) at a chain of checkpoints, one leg at a time.

    Starting from ``y0`` at ``start``, each leg to the next distinct point is
    one straight-line :func:`integrate_ode` call; a point equal to its
    predecessor reuses that state.  Returns one state per point.
    """
    out = []
    y = np.asarray(y0, dtype=complex)
    prev = complex(start)
    for t in points:
        t = complex(t)
        if t != prev:
            y = integrate_ode(field, ComplexPath.line(prev, t), y, rtol=rtol,
                              atol=atol, max_step=max_step).y_end
        out.append(y)
        prev = t
    return out


# ---------------------------------------------------------------------------
# tanh-sinh quadrature
# ---------------------------------------------------------------------------

_TS_TMAX = 6.5
_TS_MAX_LEVEL = 11
_TS_W_FLOOR = 1e-290


def _ts_nodes(h, only_odd):
    """Yield (endpoint offset in [0, 1/2], weight) for the tanh-sinh rule."""
    j = 1 if only_odd else 0
    step = 2 if only_odd else 1
    while True:
        t = j * h
        if t > _TS_TMAX:
            return
        u = 0.5 * math.pi * math.sinh(t)
        em = math.exp(-2.0 * u)
        # (pi/2) cosh t / cosh^2 u rewritten overflow-free via em = e^{-2u}
        w = 2.0 * math.pi * math.cosh(t) * em / (1.0 + em) ** 2
        if w < _TS_W_FLOOR:
            return
        off = em / (1.0 + em)  # (1 - tanh u)/2, exact near the endpoints
        yield off, w
        j += step


def _quad_segment(f, seg: Segment, tol):
    """tanh-sinh on one segment; returns (value, err, evals).

    Nodes are laid out symmetrically as offsets from both segment endpoints,
    computed in a cancellation-free form.  A node whose complex coordinate
    rounds onto an endpoint (possible when the endpoint is far from the
    origin) is skipped; the associated truncation is double-exponentially
    small for any integrable singularity.
    """
    evals = 0

    def sample(off):
        nonlocal evals
        za = seg.point(off)
        zb = seg.point(1.0 - off)
        da = seg.derivative(off)
        db = seg.derivative(1.0 - off)
        total = 0.0 + 0.0j
        if za != seg.start or off == 0.5:
            total += f(za) * da
            evals += 1
        if off != 0.5 and zb != seg.end:
            total += f(zb) * db
            evals += 1
        return total

    h = 1.0
    acc = 0.5 * math.pi * sample(0.5)  # t = 0 node sits at the midpoint
    for off, w in _ts_nodes(h, only_odd=False):
        if off == 0.5:
            continue
        acc += w * sample(off)
    est = acc * (0.5 * h)
    err = math.inf
    for level in range(1, _TS_MAX_LEVEL + 1):
        h *= 0.5
        for off, w in _ts_nodes(h, only_odd=True):
            acc += w * sample(off)
        new_est = acc * (0.5 * h)
        err = abs(new_est - est)
        est = new_est
        if err < tol and level >= 4:
            break
    if err > 10.0 * tol:
        raise NoConvergence(
            f"tanh-sinh stalled at err {err:.3e} (> 10 x tol {tol:.1e})"
        )
    return est, err, evals


def quad_path(f, path: ComplexPath, tol: float = 1e-12) -> QuadResult:
    """Contour integral of ``f`` along ``path`` by per-segment tanh-sinh.

    ``f`` must be continuous on the path except possibly at segment endpoints
    where an integrable |x|^alpha, alpha > -1 singularity is allowed.
    """
    if isinstance(path, (Line, Arc)):
        path = ComplexPath((path,))
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for seg in path.segments:
        v, e, n = _quad_segment(f, seg, tol)
        total += v
        err += e
        evals += n
    return QuadResult(value=total, err=err, evals=evals)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def find_root(g, bracket, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Safeguarded Newton on a bracket; bisection whenever Newton misbehaves.

    Stops when |g(x)| <= tol or the bracket width drops below tol.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise NoBracket(f"g({lo}) = {glo:.3e} and g({hi}) = {ghi:.3e} agree in sign")
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        gx = g(x)
        if abs(gx) <= tol or (hi - lo) <= tol:
            return x
        if glo * gx <= 0.0:
            hi, ghi = x, gx
        else:
            lo, glo = x, gx
        step_h = max(1e-7 * max(abs(x), 1.0), 1e-12)
        dg = (g(x + step_h) - g(x - step_h)) / (2.0 * step_h)
        x_new = x - gx / dg if dg != 0.0 else math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x
