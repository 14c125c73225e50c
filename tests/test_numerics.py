import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3lab import _dop853, numerics, separatrix
from l3lab.numerics import (Arc, ComplexPath, L3labError, Line, NoBracket,
                            NoConvergence, NonFinite, StepUnderflow,
                            find_root, integrate_chain, integrate_ode,
                            ode_steps, quad_path)


def test_path_validation():
    with pytest.raises(ValueError):
        ComplexPath(())
    with pytest.raises(ValueError):
        ComplexPath((Line(0.0, 1.0), Line(2.0, 3.0)))  # disconnected
    p = ComplexPath.polyline([0.0, 1.0, 1.0 + 1.0j])
    assert abs(p.length() - 2.0) < 1e-15
    assert p.start == 0.0 and p.end == 1.0 + 1.0j


def test_ode_exponential():
    res = integrate_ode(lambda t, y: (y[0],), ComplexPath.line(0.0, 1.0),
                        (1.0,), rtol=1e-12, atol=1e-14)
    assert abs(res.y_end[0] - math.e) < 1e-11
    assert res.steps > 0 and res.max_err_est < 10 * 1e-11


def test_ode_rotation():
    res = integrate_ode(lambda t, y: (1j * y[0],),
                        ComplexPath.line(0.0, math.pi), (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert abs(res.y_end[0] + 1.0) < 1e-11


def test_ode_log_branch_on_arc():
    # y' = 1/t from -1 to 1 through the lower half plane picks up +i pi
    arc = ComplexPath((Arc(0.0, 1.0, math.pi, 2.0 * math.pi),))
    res = integrate_ode(lambda t, y: (1.0 / t,), arc, (0.0,),
                        rtol=1e-12, atol=1e-14)
    assert abs(res.y_end[0] - 1j * math.pi) < 1e-10


def test_ode_subdivision_consistency():
    field = lambda t, y: (t * y[0] + cmath.sin(t),)
    whole = integrate_ode(field, ComplexPath.line(0.0, 1.0 + 1.0j),
                          (0.3 + 0.1j,), rtol=1e-11, atol=1e-13)
    split = integrate_ode(
        field, ComplexPath.polyline([0.0, 0.37 * (1 + 1j), 1.0 + 1.0j]),
        (0.3 + 0.1j,), rtol=1e-11, atol=1e-13)
    tol = 10 * (1e-11 * abs(whole.y_end[0]) + 1e-13)
    assert abs(whole.y_end[0] - split.y_end[0]) <= tol


def test_ode_singularity_reports_underflow():
    # non-integrable pole of the field at t = 0 sitting on the path
    with pytest.raises((StepUnderflow, NonFinite)):
        integrate_ode(lambda t, y: (1.0 / t,),
                      ComplexPath.line(-1.0, 1.0), (1.0,),
                      rtol=1e-10, atol=1e-12)


def test_ode_blowup_reports_nonfinite():
    with pytest.raises((NonFinite, StepUnderflow)):
        integrate_ode(lambda t, y: (y[0] ** 2,), ComplexPath.line(0.0, 1.0),
                      (2.0,), rtol=1e-10, atol=1e-12)


def test_ode_tolerance_validation():
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: (y[0],), ComplexPath.line(0.0, 1.0),
                      (1.0,), rtol=1e-15)


def test_ode_step_counts_pinned():
    # the scalar stepper takes the same steps as the numpy one it replaced
    rot = integrate_ode(lambda t, y: (1j * y[0],),
                        ComplexPath.line(0.0, math.pi), (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert (rot.steps, rot.rejected) == (19, 0)
    pend = integrate_ode(lambda t, y: (y[1], -cmath.sin(y[0]) + 0.1 * t),
                         ComplexPath.polyline([0.1, 0.4, 0.4 + 0.3j,
                                               -0.2 + 0.1j, 1.0]),
                         (0.5, 0.2j), rtol=1e-11, atol=1e-13)
    assert (pend.steps, pend.rejected) == (18, 0)
    assert isinstance(pend.y_end, np.ndarray) and pend.y_end.dtype == complex


@pytest.mark.parametrize("field", [
    lambda t, y: (1e200 * y[0] * y[0], 0.0),
    lambda t, y: ((1e200 * y[0]) ** 2, 0.0),  # raises OverflowError itself
], ids=["huge_product", "huge_power"])
def test_ode_huge_field_raises_package_error(field):
    with pytest.raises(L3labError):
        integrate_ode(field, ComplexPath.line(0.0, 1.0), (1.0, 0.0))


def test_ode_nan_at_interior_stage_is_nonfinite():
    # calls 1 and 2 are the start and the starting-step probe; call 5 is
    # stage 3 of the first step
    calls = []

    def field(t, y):
        calls.append(t)
        return (math.nan if len(calls) == 5 else y[0],)

    with pytest.raises(NonFinite):
        integrate_ode(field, ComplexPath.line(0.0, 1.0), (1.0,))
    assert len(calls) == 5


@pytest.mark.parametrize("max_step", [0.0, -1.0, math.nan])
def test_ode_rejects_bad_max_step(max_step):
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: (y[0],), ComplexPath.line(0.0, 1.0),
                      (1.0,), max_step=max_step)


def test_chain_and_steps_validate_before_any_leg():
    # no leg runs here, so only an up-front check can reject the arguments
    with pytest.raises(ValueError):
        integrate_chain(lambda t, y: (y[0],), 0, [0, 0], (1,),
                        max_step=math.nan, rtol=5.0)
    with pytest.raises(ValueError):
        ode_steps(lambda t, y: (y[0],), Line(0.0, 1.0), (1.0,), rtol=5.0)
    for s_end in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ode_steps(lambda t, y: (y[0],), Line(0.0, 1.0), (1.0,),
                      s_end=s_end)


def test_dense_output_coefficients_match_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    assert np.array_equal(_dop853.A, ref.A[:12, :12])
    assert np.array_equal(_dop853.C, ref.C[:12])
    for name in ("B", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name), getattr(ref, name))
    assert np.array_equal(_dop853.A_EXTRA, ref.A[13:])
    assert np.array_equal(_dop853.C_EXTRA, ref.C[13:])


@pytest.mark.parametrize("a, y0", [(-1.5, 1.0), (0.7 + 2.0j, 1.0 + 0.0j)])
def test_dense_output_on_linear_field(a, y0):
    # y' = a y stepped in time units: the interpolant is exact at both ends
    # of every step and follows exp(a t) in between; a real state steps as
    # Python floats, a complex one as Python complex numbers
    steps = list(ode_steps(lambda t, y: (a * y[0],), Line(0.0, 1.0),
                           np.array([y0]), rtol=1e-12, atol=1e-14,
                           s_end=3.0))
    assert len(steps) > 3 and steps[-1].s_new == 3.0
    for step in steps:
        assert type(step.y_new[0]) is type(y0)
        assert step(step.s_old) == step.y_old
        assert step(step.s_new) == step.y_new
        for x in (0.25, 0.5, 0.9):
            t = step.s_old + x * (step.s_new - step.s_old)
            assert abs(step(t)[0] - cmath.exp(a * t)) <= 1e-10


def test_kahan_carry_keeps_small_increments():
    # 10^4 increments of 1e-4 on a state of 1e6: a plain sum rounds each one
    # to a multiple of ulp(1e6) ~ 1.2e-10 and drifts by about 5e-7; the
    # carry keeps the total within a few ulp
    res = integrate_ode(lambda t, y: (1.0,), ComplexPath.line(0.0, 1.0),
                        (1e6,), max_step=1e-4)
    assert abs(res.y_end[0] - (1e6 + 1.0)) <= 4 * math.ulp(1e6)


def test_importing_the_package_loads_no_scipy():
    code = ("import importlib, pkgutil, sys, l3lab\n"
            "for m in pkgutil.iter_modules(l3lab.__path__):\n"
            "    importlib.import_module('l3lab.' + m.name)\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    src = str(pathlib.Path(numerics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _chain_of_segments(start, moves):
    """A connected Line/Arc chain from ``start``; each move is
    ("line", step) or ("arc", radius, phi_start, turn)."""
    segs, p = [], start
    for move in moves:
        if move[0] == "line":
            seg = Line(p, p + move[1])
        else:
            _, radius, phi0, turn = move
            seg = Arc(p - radius * cmath.exp(1j * phi0), radius, phi0,
                      phi0 + turn)
        segs.append(seg)
        p = seg.end
    return ComplexPath(tuple(segs))


_BOUNDED = st.floats(-1.0, 1.0)
_COMPLEX = st.builds(complex, _BOUNDED, _BOUNDED)
_MOVE = st.one_of(
    st.tuples(st.just("line"), _COMPLEX.filter(lambda z: abs(z) > 1e-3)),
    st.tuples(st.just("arc"), st.floats(0.05, 0.5),
              st.floats(-math.pi, math.pi),
              st.floats(0.1, 2.0 * math.pi) | st.floats(-2.0 * math.pi, -0.1)),
)


@settings(max_examples=40, deadline=None)
@given(a=_COMPLEX.map(lambda z: 2.0 * z), b=_COMPLEX.map(lambda z: 2.0 * z),
       start=_COMPLEX, moves=st.lists(_MOVE, min_size=1, max_size=4))
def test_ode_linear_field_matches_exponential(a, b, start, moves):
    path = _chain_of_segments(start, moves)
    y0 = (1.0 + 0.5j, -0.3j)
    res = integrate_ode(lambda t, y: (a * y[0], b * y[1]), path, y0,
                        rtol=1e-11, atol=1e-13)
    dt = path.end - path.start
    exact = (y0[0] * cmath.exp(a * dt), y0[1] * cmath.exp(b * dt))
    for got, want in zip(res.y_end, exact):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_quad_smooth():
    res = quad_path(lambda t: 1.0 / (1.0 + t * t),
                    ComplexPath.line(0.0, 1.0), tol=1e-13)
    assert abs(res.value - math.pi / 4.0) < 1e-12
    assert res.err >= 0.0 and res.evals > 0


def test_quad_inverse_sqrt_endpoint():
    res = quad_path(lambda t: t ** -0.5, ComplexPath.line(0.0, 1.0),
                    tol=1e-12)
    assert abs(res.value - 2.0) < 1e-10


def test_quad_residue_circle():
    circle = ComplexPath((Arc(0.0, 1.0, -math.pi, math.pi),))
    res = quad_path(lambda t: 1.0 / t, circle, tol=1e-12)
    assert abs(res.value - 2j * math.pi) < 1e-10


def test_quad_reversal_cancels():
    points = [0.0, 0.5 + 0.3j, 1.0]
    f = lambda t: cmath.exp(t) / (1.0 + t)
    tol = 1e-12
    fwd = quad_path(f, ComplexPath.polyline(points), tol=tol).value
    bwd = quad_path(f, ComplexPath.polyline(points[::-1]), tol=tol).value
    assert abs(fwd + bwd) <= 10 * tol


def test_quad_closed_contour_of_analytic_function():
    circle = ComplexPath((Arc(0.3 + 0.1j, 0.7, -math.pi, math.pi),))
    res = quad_path(cmath.exp, circle, tol=1e-12)
    assert abs(res.value) <= 10 * 1e-12


def test_quad_no_convergence():
    # a genuinely non-integrable endpoint blows the refinement budget
    with pytest.raises((NoConvergence, NonFinite, OverflowError)):
        quad_path(lambda t: 1.0 / t, ComplexPath.line(0.0, 1.0), tol=1e-13)


# the box avoids the pole of exp(t)/(1+t) at t = -1, and so do the
# straight segments between its points
_BOX_POINT = st.builds(complex, st.floats(0.0, 2.0), st.floats(-1.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(_BOX_POINT, min_size=2, max_size=6).filter(
    lambda pts: all(abs(q - p) > 1e-3 for p, q in zip(pts, pts[1:]))))
def test_quad_reversal_cancels_on_random_polyline(points):
    f = lambda t: cmath.exp(t) / (1.0 + t)
    tol = 1e-12
    fwd = quad_path(f, ComplexPath.polyline(points), tol=tol).value
    bwd = quad_path(f, ComplexPath.polyline(points[::-1]), tol=tol).value
    assert abs(fwd + bwd) <= tol


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_quad_rejects_bad_tol(tol):
    # with tol = nan the divergent integrand used to return a value
    with pytest.raises(ValueError):
        quad_path(lambda t: 1.0 / (t - 0.5) ** 2, ComplexPath.line(0.0, 1.0),
                  tol=tol)


@pytest.mark.parametrize("g, bracket, root", [
    (lambda x: x * x - 2.0, (1.0, 2.0), math.sqrt(2.0)),
    (lambda x: x - math.sin(x) - math.pi, (math.pi - 1, math.pi + 1), math.pi),
    (math.cos, (1.0, 2.0), math.pi / 2.0),
])
def test_find_root(g, bracket, root):
    assert abs(find_root(g, bracket, tol=1e-13) - root) < 1e-12


def test_find_root_no_bracket():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x + 1.0, (0.0, 1.0))


def test_kahan_accumulation_long_path():
    # many tiny steps: compensated accumulation keeps the drift near rtol
    res = integrate_ode(lambda t, y: (1j * y[0],),
                        ComplexPath.line(0.0, 200.0), (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert abs(abs(res.y_end[0]) - 1.0) < 5e-10


def _per_leg(field, start, points, y0, **tols):
    """Reference for integrate_chain: one integrate_ode call per new point."""
    states = []
    y = np.asarray(y0, dtype=complex)
    for prev, t in zip([start] + list(points), points):
        if complex(t) != complex(prev):
            y = integrate_ode(field, ComplexPath.line(prev, t), y,
                              **tols).y_end
        states.append(y)
    return states


def _same_states(a, b):
    return len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


def test_integrate_chain_matches_per_leg_loop():
    field = lambda t, y: (y[1], -cmath.sin(y[0]) + 0.1 * t)
    points = [0.4, 0.4 + 0.3j, -0.2 + 0.1j, 1.0]
    chain = integrate_chain(field, 0.1, points, (0.5, 0.2j), rtol=1e-11,
                            atol=1e-13)
    loop = _per_leg(field, 0.1, points, (0.5, 0.2j), rtol=1e-11, atol=1e-13)
    assert _same_states(chain, loop)


def test_integrate_chain_reuses_repeated_points(monkeypatch):
    # every leg goes through the module-level integrate_ode, so a wrapper
    # installed there sees each leg and only those
    legs = []
    plain = numerics.integrate_ode

    def counting(field, path, y0, **tols):
        legs.append((path.start, path.end))
        return plain(field, path, y0, **tols)

    monkeypatch.setattr(numerics, "integrate_ode", counting)
    field = lambda t, y: (1j * y[0],)
    states = integrate_chain(field, 0.0, [0.5, 0.5, 0.5j, 0.5j, 0.5j],
                             (1.0,))
    assert legs == [(0.0, 0.5), (0.5, 0.5j)]
    assert states[1] is states[0]
    assert states[3] is states[2] and states[4] is states[2]
    assert abs(states[-1][0] - cmath.exp(1j * 0.5j)) < 1e-9


def test_integrate_chain_without_legs_returns_y0():
    states = integrate_chain(lambda t, y: (y[0], y[1]), 0.3 + 0.1j,
                             [0.3 + 0.1j] * 3, (2.0, -1.0j))
    assert len(states) == 3
    for y in states:
        assert np.array_equal(y, np.array([2.0, -1.0j]))


# points of the zero-scan strip |Im t| <= 0.15 < A, where the pendulum field
# of the separatrix has no singularity; None repeats the previous point
_STRIP_POINT = st.builds(complex, st.floats(-1.99, 1.99),
                         st.floats(-0.15, 0.15))


def _repeat_gaps(raw):
    points, prev = [], 0j
    for p in raw:
        prev = prev if p is None else p
        points.append(prev)
    return points


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.none(), _STRIP_POINT), min_size=1, max_size=6)
       .map(_repeat_gaps))
def test_integrate_chain_property_on_separatrix_strip(points):
    field = separatrix._pend_field
    y0 = (separatrix.lambda0(), 0.0)
    tols = {"rtol": 1e-10, "atol": 1e-14}
    chain = integrate_chain(field, 0.0, points, y0, **tols)
    assert _same_states(chain, _per_leg(field, 0.0, points, y0, **tols))
    # the last state is the continuation along the polyline of the
    # distinct points: each polyline segment is integrated as one leg
    distinct = [0j]
    for p in points:
        if p != distinct[-1]:
            distinct.append(p)
    if len(distinct) == 1:
        end = np.asarray(y0, dtype=complex)
    else:
        end = integrate_ode(field, ComplexPath.polyline(distinct), y0,
                            **tols).y_end
    assert np.array_equal(chain[-1], end)
