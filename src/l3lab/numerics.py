"""Shared high-accuracy primitives.

Five tools used everywhere else in the package:

* :func:`ode_steps` -- the package's one ODE stepper, an embedded
  Dormand--Prince 8(5,3) pair (Hairer's DOP853) with compensated (Kahan)
  accumulation of the solution, as a generator of accepted steps; each
  step carries the method's seventh-order dense output.
* :func:`integrate_ode` -- adaptive integration of a complex ODE along a
  piecewise path in the complex plane of the independent variable, one
  :func:`ode_steps` run per segment.
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

The same stepper serves the complex-time paths and the real-time manifold
tracing of :mod:`l3lab.splitting`, which steps it in time units on real
states and finds the section crossings on the dense output.  It works on
Python scalars, not numpy arrays: the fields here have 2 to 4 components,
and on them a step attempt takes about half as long as on numpy arrays of
that length (55-80 us against 110-165 us for a 2-component linear field on
a 2-vCPU Xeon host whose speed drifts).  A field should therefore return
Python numbers: numpy scalars would carry their per-operation cost into
every stage sum.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _dop853 as _tab

__all__ = [
    "Line",
    "Arc",
    "ComplexPath",
    "OdeResult",
    "OdeStep",
    "QuadResult",
    "ode_steps",
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
    """Adaptive step fell below 1e-14 of the range of the segment parameter.

    Usually means a singularity of the field sits on or very near the path.
    """


class NonFinite(L3labError):
    """The field or the state overflowed, divided by zero or became NaN."""


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
_MIN_STEP = 1e-14  # as a fraction of the range of the segment parameter


def _nonzero(coeffs):
    """(stage, coefficient) pairs of the nonzero entries of a tableau row."""
    return tuple((j, float(c)) for j, c in enumerate(coeffs) if c != 0.0)


# (node, nonzero row of A) for stages 1..11; stage 0 is the field at the
# start of the step
_STAGES = tuple((float(_tab.C[i]), _nonzero(_tab.A[i, :i]))
                for i in range(1, _tab.N_STAGES))
_B = _nonzero(_tab.B)
_E3 = _nonzero(_tab.E3)
_E5 = _nonzero(_tab.E5)
# (node, nonzero row of A) for the dense-output stages 13..15, and the rows
# of D; both reach stage 12, the field at the end of the step
_DENSE = tuple((float(c), _nonzero(row))
               for c, row in zip(_tab.C_EXTRA, _tab.A_EXTRA))
_D = tuple(_nonzero(row) for row in _tab.D)


def _combine(terms, K):
    """sum_j c_j K[k][j] for each component k, over the nonzero (j, c_j)."""
    out = []
    for Kk in K:
        acc = 0.0
        for j, c in terms:
            acc += c * Kk[j]
        out.append(acc)
    return out


def _sq_norm(v, scale):
    """sum_k |v_k / scale_k|^2, by multiplication so it overflows to inf."""
    re = im = 0.0
    for x, sc in zip(v, scale):
        x /= sc
        re += x.real * x.real
        im += x.imag * x.imag
    return re + im


def _finite(v):
    return all(map(cmath.isfinite, v))


def _initial_step(fun, y0, f0, rtol, atol, max_step, s_end):
    # Hairer's starting-step heuristic on the segment parameter.
    root_n = math.sqrt(len(y0))
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(_sq_norm(y0, scale)) / root_n
    d1 = math.sqrt(_sq_norm(f0, scale)) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, max_step, s_end)
    f1 = fun(h0, [v + h0 * df for v, df in zip(y0, f0)])
    diff = [a - b for a, b in zip(f1, f0)]
    d2 = math.sqrt(_sq_norm(diff, scale)) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_tab.ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, max_step, s_end)


class OdeStep:
    """One accepted step, from ``s_old`` to ``s_new`` of the segment parameter.

    ``y_old`` and ``y_new`` are the states at its ends.  ``step(s)`` for s in
    [s_old, s_new] is DOP853's seventh-order dense output, exact at both
    ends; its three extra field calls are made at the first call.
    ``rejected`` counts the attempts rejected just before this step and
    ``err_est`` is its error estimate in state units.
    """

    __slots__ = ("s_old", "s_new", "y_old", "y_new", "rejected", "err_est",
                 "_fun", "_h", "_K", "_F")

    def __init__(self, fun, s_old, s_new, h, y_old, y_new, K, rejected,
                 err_est):
        self.s_old, self.s_new, self._h = s_old, s_new, h
        self.y_old, self.y_new = y_old, y_new
        self.rejected, self.err_est = rejected, err_est
        self._fun, self._K, self._F = fun, K, None

    def _coefficients(self):
        # per component k, F[k] = [F_0, ..., F_6] of the interpolant
        h, K, y_old = self._h, self._K, self.y_old
        for c, row in _DENSE:
            y_i = [yk + h * dk for yk, dk in zip(y_old, _combine(row, K))]
            k_i = self._fun(self.s_old + c * h, y_i)
            if not _finite(k_i):
                raise NonFinite(
                    f"field not finite in the dense output at s={self.s_old}")
            for Kk, v in zip(K, k_i):
                Kk.append(v)
        high = [_combine(row, K) for row in _D]
        F = []
        for k, (yo, yn, Kk) in enumerate(zip(y_old, self.y_new, K)):
            dy = yn - yo
            F.append([dy, h * Kk[0] - dy, 2 * dy - h * (Kk[12] + Kk[0]),
                      *(h * d[k] for d in high)])
        return F

    def __call__(self, s):
        if s == self.s_new:
            return list(self.y_new)
        if self._F is None:
            with _scalar_errors():
                self._F = self._coefficients()
        x = (s - self.s_old) / self._h
        out = []
        for yo, Fk in zip(self.y_old, self._F):
            acc = 0.0
            for i, f in enumerate(reversed(Fk)):
                acc = (acc + f) * (x if i % 2 == 0 else 1.0 - x)
            out.append(yo + acc)
        return out


@contextlib.contextmanager
def _scalar_errors():
    # Python scalars raise where numpy arrays would give inf or nan
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFinite(f"overflow or division by zero: {exc}") from exc


def _check_tolerances(rtol, atol, max_step):
    if not (1e-14 <= rtol <= 1e-2) or not (1e-14 <= atol <= 1e-2):
        raise ValueError("rtol and atol must lie in [1e-14, 1e-2]")
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")


def _steps(field, seg: Segment, y, rtol, atol, max_step, s_end):
    """Accepted steps of y' = seg'(s) * field(seg(s), y) over s in [0, s_end].

    The state ``y``, the stage values and the Kahan carry are lists of
    Python scalars, and each stage sum runs over the nonzero tableau entries
    only.
    """
    point, derivative = seg.point, seg.derivative

    def fun(s, yy):
        d = derivative(s)
        return [d * v for v in field(point(s), yy)]

    with _scalar_errors():
        n = len(y)
        # Kahan carry for the y accumulator, zero of the state's scalar type
        comp = [0j if isinstance(v, complex) else 0.0 for v in y]
        s = 0.0
        f = fun(s, y)
        if len(f) != n:
            raise ValueError(
                f"field returned {len(f)} components for a state of {n}")
        if not _finite(f):
            raise NonFinite("field not finite at the start of a segment")
        h = _initial_step(fun, y, f, rtol, atol, max_step, s_end)
        min_step = _MIN_STEP * s_end
        rejected = 0

        while True:
            remaining = s_end - s
            if remaining <= 1e-15 * s_end:
                return
            if h < min_step:
                raise StepUnderflow(
                    f"step {h:.3e} under {min_step:.0e} at s={s:.6f} "
                    f"(path point {seg.point(s)})"
                )
            h = min(h, max_step)
            final = h >= remaining
            if final:
                h = remaining
            K = [[v] for v in f]  # K[k][i]: component k of stage i
            for c, row in _STAGES:
                y_i = [yk + h * dk for yk, dk in zip(y, _combine(row, K))]
                k_i = fun(s + c * h, y_i)
                if not _finite(k_i):
                    raise NonFinite(
                        f"field not finite near path point {seg.point(s)}")
                for Kk, v in zip(K, k_i):
                    Kk.append(v)
            # compensated update: y_new = y + incr, carrying the rounding term
            tmp = [h * bk + ck for bk, ck in zip(_combine(_B, K), comp)]
            y_new = [yk + t for yk, t in zip(y, tmp)]
            comp_new = [t - (yn - yk) for t, yn, yk in zip(tmp, y_new, y)]
            if not _finite(y_new):
                raise NonFinite(
                    f"state not finite near path point {seg.point(s)}")
            f_new = fun(s + h, y_new)
            if not _finite(f_new):
                raise NonFinite(
                    f"field not finite near path point {seg.point(s)}")
            for Kk, v in zip(K, f_new):
                Kk.append(v)

            scale = [atol + rtol * max(abs(yk), abs(yn))
                     for yk, yn in zip(y, y_new)]
            n5 = _sq_norm(_combine(_E5, K), scale)
            n3 = _sq_norm(_combine(_E3, K), scale)
            if n5 == 0.0 and n3 == 0.0:
                err_norm = 0.0
            else:
                err_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * n)

            if err_norm < 1.0:
                s_old, s = s, (s_end if final else s + h)
                step = OdeStep(fun, s_old, s, h, y, y_new, K, rejected,
                               err_norm * max(scale))
                y, comp, f = y_new, comp_new, f_new
                rejected = 0
                factor = _MAX_FACTOR if err_norm == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err_norm ** _ERR_EXP
                )
                h *= factor
                yield step
            else:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ERR_EXP)


def ode_steps(field, seg: Segment, y0, rtol: float = 1e-10,
              atol: float = 1e-12, max_step: float = math.inf,
              s_end: float = 1.0):
    """Generator of the accepted :class:`OdeStep` of one segment.

    Steps y' = seg'(s) * field(seg(s), y) from s = 0 to ``s_end``, which
    need not be 1: on ``Line(0, 1)`` or ``Line(0, -1)`` the parameter is
    time itself, so the step sequence does not depend on how far
    ``s_end`` reaches.  Real (float) states step as floats, complex ones as
    complex.  ``max_step`` is measured in the segment parameter.
    """
    _check_tolerances(rtol, atol, max_step)
    if not (math.isfinite(s_end) and s_end > 0.0):
        raise ValueError("s_end must be finite and positive")
    return _steps(field, seg, np.asarray(y0).tolist(), rtol, atol, max_step,
                  s_end)


def integrate_ode(field, path: ComplexPath, y0, rtol: float = 1e-10,
                  atol: float = 1e-12, max_step: float = math.inf) -> OdeResult:
    """Analytic continuation of y' = field(t, y) along ``path``.

    ``field(t, y)`` takes the complex path point and the complex state vector
    and returns dy/dt; each segment is traversed in its parameter s in [0,1]
    via the chain rule dy/ds = seg'(s) * field(seg(s), y).  ``max_step`` is
    measured in the segment parameter.
    """
    _check_tolerances(rtol, atol, max_step)
    y = [complex(v) for v in np.asarray(y0, dtype=complex)]
    steps = rejected = 0
    max_err_est = 0.0
    for seg in path.segments:
        for step in _steps(field, seg, y, rtol, atol, max_step, 1.0):
            steps += 1
            rejected += step.rejected
            max_err_est = max(max_err_est, step.err_est)
        y = step.y_new
    return OdeResult(y_end=np.array(y), steps=steps, rejected=rejected,
                     max_err_est=max_err_est)


def integrate_chain(field, start: complex, points, y0, rtol: float = 1e-10,
                    atol: float = 1e-12,
                    max_step: float = math.inf) -> list[np.ndarray]:
    """States of y' = field(t, y) at a chain of checkpoints, one leg at a time.

    Starting from ``y0`` at ``start``, each leg to the next distinct point is
    one straight-line :func:`integrate_ode` call; a point equal to its
    predecessor reuses that state.  Returns one state per point.
    """
    _check_tolerances(rtol, atol, max_step)
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
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
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

def find_root(g, bracket, tol: float = 1e-12) -> float:
    """Safeguarded Newton on a bracket; bisection whenever Newton misbehaves.

    Stops when |g(x)| <= tol or the bracket width drops below tol, and after
    200 iterations at the latest.
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
    for _ in range(200):
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
