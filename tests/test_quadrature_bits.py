"""quad_path's per-segment samplers and separatrix's fhat closure keep every
bit of the forms they replaced.

The reference below is the earlier quadrature verbatim: a ``sample`` that
calls the segment's ``point`` and ``derivative`` methods at both offsets of
a node, and fhat as one function of (w, offsets, args) behind a lambda.
Each case compares ``value``, ``err`` and ``evals`` by ``float.hex``.
"""
import cmath
import math
import random

import pytest

from l3lab import separatrix as sep
from l3lab.numerics import (Arc, Line, NoConvergence, QuadResult,
                            _check_segment, quad_path)

# ---------------------------------------------------------------------------
# the reference, as it was written before the samplers
# ---------------------------------------------------------------------------


class _MethodLine(Line):
    __slots__ = ()

    def point(self, s: float) -> complex:
        return self.a + s * (self.b - self.a)

    def derivative(self, s: float) -> complex:
        return self.b - self.a


class _MethodArc(Arc):
    __slots__ = ()

    def point(self, s: float) -> complex:
        phi = self.phi_start + s * (self.phi_end - self.phi_start)
        return self.center + self.radius * cmath.exp(1j * phi)

    def derivative(self, s: float) -> complex:
        phi = self.phi_start + s * (self.phi_end - self.phi_start)
        return 1j * (self.phi_end - self.phi_start) * self.radius * cmath.exp(1j * phi)


def _with_methods(seg):
    if isinstance(seg, Line):
        return _MethodLine(seg.a, seg.b)
    return _MethodArc(seg.center, seg.radius, seg.phi_start, seg.phi_end)


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


def _reference_quad_path(f, seg, tol=1e-12):
    seg = _with_methods(seg)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    _check_segment(seg)
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
    return QuadResult(value=est, err=err, evals=evals)


def _reference_fhat(w, offsets, args) -> complex:
    z = [w + d for d in offsets]
    turns = [g + (cmath.phase(f / d) if d else 0.0)
             for f, d, g in zip(z, offsets, args)]
    mod = math.sqrt(abs(z[0]) / (3.0 * abs(z[1]) * abs(z[2]) * abs(z[3])))
    phase = 0.5 * (turns[0] - turns[1] - turns[2] - turns[3])
    return mod * cmath.exp(1j * phase) / z[4]


def _bits(res):
    value = complex(res.value)
    return (value.real.hex(), value.imag.hex(), float(res.err).hex(),
            res.evals)


# ---------------------------------------------------------------------------
# seeded segments
# ---------------------------------------------------------------------------

def _point(rng):
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _lines(seed):
    rng = random.Random(seed)
    real = Line(rng.uniform(-2.0, 0.0), rng.uniform(0.5, 2.0))
    cplx = Line(_point(rng), _point(rng))
    return [("real", real), ("complex", cplx),
            ("reversed", Line(cplx.b, cplx.a)),
            ("from_zero", Line(0.0, _point(rng)))]


def _arcs(seed):
    rng = random.Random(seed)
    center, radius = _point(rng), rng.uniform(0.05, 1.5)
    lo = rng.uniform(-math.pi, 0.0)
    hi = lo + rng.uniform(0.3, 3.0)
    r = rng.uniform(1e-3, 0.2)
    return [("ccw", Arc(center, radius, lo, hi)),
            ("cw", Arc(center, radius, hi, lo)),
            ("full_turn", Arc(center, radius, -math.pi, math.pi)),
            # the half-turn around a+ of the paths to zero, in the q-plane
            # and in w = q - a from its start a = a+ + r
            ("factor_point", Arc(sep.A_PLUS, r, 0.0, math.pi)),
            ("factor_point_w", Arc(-r, r, 0.0, math.pi))]


def _integrands(seg):
    # a smooth one, one with a pole off every path, and |z|^(-1/2) at the
    # origin, which a Line from 0 reaches at its start
    out = [("smooth", lambda z: cmath.exp(0.3 * z) * (1.0 + z * z)),
           ("pole", lambda z: 1.0 / (z - (3.0 + 2.5j)))]
    if isinstance(seg, Line) and seg.a == 0.0:
        out.append(("endpoint", lambda z: z ** -0.5))
    return out


_SEEDS = range(1, 7)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("make", [_lines, _arcs], ids=["line", "arc"])
def test_quad_path_keeps_the_bits_on_seeded_segments(make, seed):
    for name, seg in make(seed):
        for label, f in _integrands(seg):
            for tol in (1e-12, 1e-10):
                got = _bits(quad_path(f, seg, tol=tol))
                want = _bits(_reference_quad_path(f, seg, tol=tol))
                assert got == want, (name, label, tol)


# ---------------------------------------------------------------------------
# the package's own integrals
# ---------------------------------------------------------------------------

def _run_recorded(monkeypatch, run, reference):
    """``run()``'s result and the bits of every quad_path call it made, on
    the package's layer or on the reference's."""
    seen = []
    quad = quad_path
    if reference:
        quad = _reference_quad_path
        monkeypatch.setattr(
            sep, "_fhat_on",
            lambda offsets, args: lambda w: _reference_fhat(w, offsets, args))

    def recording(f, seg, tol):
        res = quad(f, seg, tol=tol)
        seen.append(_bits(res))
        return res

    monkeypatch.setattr(sep, "quad_path", recording)
    try:
        return run(), seen
    finally:
        monkeypatch.undo()


def _complex_bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("run", [
    *(lambda kind=kind: sep.t_star(kind) for kind in sep._T_STAR_KINDS),
    sep.residue_pole_numeric,
    lambda: sep.compute_A_quad().value,
    sep.compute_A_rescaled,
], ids=[*sep._T_STAR_KINDS, "residue", "A", "A_rescaled"])
def test_package_integrals_keep_the_bits(monkeypatch, run):
    got, got_calls = _run_recorded(monkeypatch, run, reference=False)
    want, want_calls = _run_recorded(monkeypatch, run, reference=True)
    assert got_calls and got_calls == want_calls
    assert _complex_bits(got) == _complex_bits(want)

