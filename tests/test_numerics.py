import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from l3lab import _dop853, numerics, rpc3bp, separatrix
from l3lab.numerics import (Arc, L3labError, Line, NoBracket, NoConvergence,
                            NonFinite, StepUnderflow, find_root, fit_line,
                            geomspace, integrate_chain, integrate_ode,
                            linspace, ode_steps, quad_path)


def _polyline_ode(field, points, y0, **tols):
    """One integrate_ode leg per segment of the polyline through ``points``:
    the end state, the steps and the rejections summed over the legs."""
    y, steps, rejected = y0, 0, 0
    for a, b in zip(points, points[1:]):
        res = integrate_ode(field, a, b, y, **tols)
        y, steps, rejected = (res.y_end, steps + res.steps,
                              rejected + res.rejected)
    return y, steps, rejected


def test_ode_exponential():
    res = integrate_ode(lambda t, y: (y[0],), 0.0, 1.0, (1.0,), rtol=1e-12,
                        atol=1e-14)
    assert abs(res.y_end[0] - math.e) < 1e-11
    assert res.steps > 0 and res.max_err_est < 10 * 1e-11


def test_ode_rotation():
    res = integrate_ode(lambda t, y: (1j * y[0],), 0.0, math.pi, (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert abs(res.y_end[0] + 1.0) < 1e-11


def test_ode_subdivision_consistency():
    field = lambda t, y: (t * y[0] + cmath.sin(t),)
    whole = integrate_ode(field, 0.0, 1.0 + 1.0j, (0.3 + 0.1j,), rtol=1e-11,
                          atol=1e-13)
    split, _, _ = _polyline_ode(field, [0.0, 0.37 * (1 + 1j), 1.0 + 1.0j],
                                (0.3 + 0.1j,), rtol=1e-11, atol=1e-13)
    tol = 10 * (1e-11 * abs(whole.y_end[0]) + 1e-13)
    assert abs(whole.y_end[0] - split[0]) <= tol


def test_ode_singularity_reports_underflow():
    # non-integrable pole of the field at t = 0 sitting on the path
    with pytest.raises((StepUnderflow, NonFinite)):
        integrate_ode(lambda t, y: (1.0 / t,), -1.0, 1.0, (1.0,),
                      rtol=1e-10, atol=1e-12)


def test_ode_blowup_reports_nonfinite():
    with pytest.raises((NonFinite, StepUnderflow)):
        integrate_ode(lambda t, y: (y[0] ** 2,), 0.0, 1.0, (2.0,),
                      rtol=1e-10, atol=1e-12)


def test_ode_tolerance_validation():
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: (y[0],), 0.0, 1.0, (1.0,), rtol=1e-15)


def test_ode_step_counts_pinned():
    # the scalar stepper takes the same steps as the numpy one it replaced
    rot = integrate_ode(lambda t, y: (1j * y[0],), 0.0, math.pi, (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert (rot.steps, rot.rejected) == (19, 0)
    y_end, steps, rejected = _polyline_ode(
        lambda t, y: (y[1], -cmath.sin(y[0]) + 0.1 * t),
        [0.1, 0.4, 0.4 + 0.3j, -0.2 + 0.1j, 1.0], (0.5, 0.2j), rtol=1e-11,
        atol=1e-13)
    assert (steps, rejected) == (18, 0)
    assert isinstance(y_end, list)
    assert all(type(v) is complex for v in y_end)


def _leg(field, seg):
    return integrate_ode(field, seg.a, seg.b, (1.0,))


def _ode_steps(field, seg):
    return ode_steps(field, seg, (1.0,))


def _quad(field, seg):
    return quad_path(lambda t: field(t, (t,))[0], seg)


@pytest.mark.parametrize("run, seg", [
    (_leg, Line(0.5, 0.5)),
    (_leg, Line(0.0, math.inf)),
    (_leg, Line(complex(0.0, math.nan), 1.0)),
    (_ode_steps, Arc(0.0, 1.0, 0.0, math.pi)),
    (_ode_steps, Line(0.5, 0.5)),
    (_ode_steps, Line(0.0, math.inf)),
    (_ode_steps, Line(math.nan, 1.0)),
    (_quad, Line(1j, 1j)),
    (_quad, Line(0.0, math.inf)),
    (_quad, Arc(0.0, 0.0, 0.0, math.pi)),
    (_quad, Arc(0.0, 1.0, 0.0, math.nan)),
], ids=["ode_a_is_b", "ode_inf_end", "ode_nan_start", "steps_arc",
        "steps_zero_line", "steps_inf_line", "steps_nan_line",
        "quad_zero_line", "quad_inf_line", "quad_zero_arc", "quad_nan_arc"])
def test_single_segment_entry_points_reject_bad_segments(run, seg):
    # the segment is refused before the field is ever called
    calls = []

    def field(t, y):
        calls.append(t)
        return (y[0],)

    with pytest.raises(ValueError):
        run(field, seg)
    assert calls == []


@pytest.mark.parametrize("field", [
    lambda t, y: (1e200 * y[0] * y[0], 0.0),
    lambda t, y: ((1e200 * y[0]) ** 2, 0.0),  # raises OverflowError itself
], ids=["huge_product", "huge_power"])
def test_ode_huge_field_raises_package_error(field):
    with pytest.raises(L3labError):
        integrate_ode(field, 0.0, 1.0, (1.0, 0.0))


def test_ode_nan_at_interior_stage_is_nonfinite():
    # calls 1 and 2 are the start and the starting-step probe; call 5 is
    # stage 3 of the first step
    calls = []

    def field(t, y):
        calls.append(t)
        return (math.nan if len(calls) == 5 else y[0],)

    with pytest.raises(NonFinite):
        integrate_ode(field, 0.0, 1.0, (1.0,))
    assert len(calls) == 5


@pytest.mark.parametrize("state, value", [
    (float, float), (complex, complex), (float, complex)],
    ids=["float", "complex", "float_turns_complex"])
@pytest.mark.parametrize("first_bad, bad, raised_at", [
    (5, math.nan, 5), (5, math.inf, 5), (3, 1e308, 13)],
    ids=["stage_nan", "stage_inf", "state_overflow"])
def test_one_bad_component_of_four_is_nonfinite(state, value, first_bad, bad,
                                                 raised_at):
    # component 2 alone goes bad: nan or inf at stage 3 (call 5), or 1e308
    # from stage 1 (call 3) on, whose B sum overflows the new state before
    # the field call at the end of the step (call 14); a complex value
    # carries it in the imaginary part, also when the state is real and
    # the field turns complex under it
    calls = []

    def field(t, y):
        calls.append(t)
        out = [0.5 * v for v in y]
        if len(calls) >= first_bad:
            out[2] = bad if value is float else complex(0.0, bad)
        return out

    with pytest.raises(NonFinite):
        next(ode_steps(field, Line(0.0, 1.0), [state(1.0)] * 4))
    assert len(calls) == raised_at


@pytest.mark.parametrize("v", [
    0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
    complex(1e308, -1e308), complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_zero_times_value_is_nonzero_exactly_when_not_finite(v):
    # the generated attempt's finiteness test, on floats and complex numbers
    assert ((0.0 * v) != 0.0) == (not cmath.isfinite(v))


def test_chain_and_steps_validate_before_any_leg():
    # no leg runs here, so only an up-front check can reject the arguments
    with pytest.raises(ValueError):
        integrate_chain(lambda t, y: (y[0],), 0, [0, 0], (1,), rtol=5.0)
    with pytest.raises(ValueError):
        ode_steps(lambda t, y: (y[0],), Line(0.0, 1.0), (1.0,), rtol=5.0)
    # no step fits below the smallest, 1e-14
    for s_end in (0.0, math.inf, math.nan, 5e-324, 1e-300, 9.9e-15):
        with pytest.raises(ValueError):
            ode_steps(lambda t, y: (y[0],), Line(0.0, 1.0), (1.0,),
                      s_end=s_end)


def _run_integrate_ode(field):
    return integrate_ode(field, 0.0, 1.0, (1.0, 1.0))


def _run_ode_steps(field):
    return list(ode_steps(field, Line(0.0, 1.0), (1.0, 1.0)))


# call 1 is the start, 2 the starting-step probe, 3..13 stages 1..11 and
# 14 the field at the end of the first step
@pytest.mark.parametrize("bad_call", [2, 5, 14],
                         ids=["probe", "stage_3", "step_end"])
@pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
@pytest.mark.parametrize("run", [_run_integrate_ode, _run_ode_steps])
def test_field_of_wrong_length_raises_value_error(run, extra, bad_call):
    # a longer output used to be truncated (y' = y gave e) and a shorter one
    # escaped as an IndexError
    calls = []

    def field(t, y):
        calls.append(t)
        return (y[0], y[1], y[0])[:2 + extra] if len(calls) == bad_call \
            else (y[0], y[1])

    with pytest.raises(ValueError):
        run(field)
    assert len(calls) == bad_call


@pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
def test_dense_output_field_of_wrong_length_raises_value_error(extra):
    bad = []
    field = lambda t, y: (y[0], y[1], y[0])[:2 + extra] if bad \
        else (y[0], y[1])
    step = next(ode_steps(field, Line(0.0, 1.0), (1.0, 1.0)))
    bad.append(True)
    with pytest.raises(ValueError):
        step(0.5 * (step.s_old + step.s_new))


def test_empty_state_raises_value_error():
    with pytest.raises(ValueError):
        integrate_ode(lambda t, y: (), 0.0, 1.0, ())
    with pytest.raises(ValueError):
        next(ode_steps(lambda t, y: (), Line(0.0, 1.0), ()))


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
                           [y0], rtol=1e-12, atol=1e-14, s_end=3.0))
    assert len(steps) > 3 and steps[-1].s_new == 3.0
    for step in steps:
        assert type(step.y_new[0]) is type(y0)
        assert step(step.s_old) == step.y_old
        assert step(step.s_new) == step.y_new
        for x in (0.25, 0.5, 0.9):
            t = step.s_old + x * (step.s_new - step.s_old)
            assert abs(step(t)[0] - cmath.exp(a * t)) <= 1e-10


@pytest.mark.parametrize("a", [-3.0, -1.5 + 6.0j])
def test_dense_output_on_non_real_line(a):
    # y' = a y up the vertical leg x -> x + 0.16i, as the zero scan's walk
    # climbs a side of its rectangle: interior samples go through the chain
    # rule with a complex direction, and follow exp(a t) at t = x + 0.16i s
    x = 0.7
    seg = Line(complex(x), complex(x, 0.16))
    field = lambda t, y: (a * y[0],)
    y0 = [cmath.exp(a * x)]
    steps = list(ode_steps(field, seg, y0, rtol=1e-12, atol=1e-14))
    assert len(steps) > 3 and steps[-1].s_new == 1.0
    for step in steps:
        for f in (0.25, 0.5, 0.9):
            s = step.s_old + f * (step.s_new - step.s_old)
            t = seg.a + s * (seg.b - seg.a)
            assert abs(step(s)[0] - cmath.exp(a * t)) <= 1e-10
    # a sample at a step end is read from the step that ends there, and is
    # that step's end state exactly
    ends = [step.s_new for step in steps]
    assert numerics._sample_steps(steps, ends) == [st.y_new for st in steps]


def test_sample_steps_reads_no_step_past_the_last_sample():
    taken = []

    def steps():
        for step in ode_steps(lambda t, y: (-y[0],), Line(0.0, 1.0), [1.0],
                              s_end=5.0):
            taken.append(step)
            yield step

    stepper = steps()
    got = numerics._sample_steps(stepper, [0.0, 0.5])
    last = taken[-1]
    assert taken[-2].s_new < 0.5 <= last.s_new and got[1] == last(0.5)
    # the caller goes on stepping from there
    assert next(stepper).s_old == last.s_new


def test_kahan_carry_keeps_small_increments(monkeypatch):
    # 10^4 increments of 1e-4 on a state of 1e6: a plain sum rounds each one
    # to a multiple of ulp(1e6) ~ 1.2e-10 and drifts by about 5e-7; the
    # carry keeps the total within a few ulp.  The field is constant, so
    # every step is exact and, without growth, keeps the first step's size
    monkeypatch.setattr(numerics, "_MAX_FACTOR", 1.0)
    res = integrate_ode(lambda t, y: (1.0,), 0.0, 1.0, (1e6,),
                        _first_step=1e-4)
    assert res.steps >= 10 ** 4
    assert abs(res.y_end[0] - (1e6 + 1.0)) <= 4 * math.ulp(1e6)


def test_ode_steps_do_not_depend_on_s_end():
    # stepping in time units, the smallest step is 1e-14 time units however
    # far s_end reaches, so a long budget neither underflows nor moves a step
    field = lambda t, y: (-0.5 * y[0] + cmath.sin(t),)
    got = [(step.s_new, step.y_new) for step, _ in
           zip(ode_steps(field, Line(0.0, 1.0), (1.0,), s_end=1e15),
               range(30))]
    ref = [(step.s_new, step.y_new) for step in
           ode_steps(field, Line(0.0, 1.0), (1.0,), s_end=30.0)]
    assert got == ref[:len(got)] and len(got) == 30


def test_field_that_turns_complex_on_real_states_steps_on():
    # floats at the start; past t = 0.5 the field is complex, and the same
    # attempt steps on with the reference's bits
    field = lambda t, y: ((0.5 - t) ** 1.5 + 0.1 * y[0],)
    y_end, steps, _ = _same_steps(field, Line(0.0, 1.0), (1.0,),
                                  rtol=1e-10, atol=1e-12)
    assert steps > 10 and isinstance(y_end[0], complex)


def test_field_type_error_on_real_states_is_raised_once():
    # a TypeError of the field's own leaves the attempt as it is raised,
    # without a retake.  The field is called at the start, for the
    # starting step and then in the first attempt
    calls = []

    def field(t, y):
        calls.append(t)
        if len(calls) > 2:
            raise TypeError("the field's own error")
        return (-y[0],)

    with pytest.raises(TypeError, match="the field's own error"):
        next(ode_steps(field, Line(0.0, 1.0), (1.0,)))
    assert len(calls) == 3


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


_BOUNDED = st.floats(-1.0, 1.0)
_COMPLEX = st.builds(complex, _BOUNDED, _BOUNDED)
_MOVE = _COMPLEX.filter(lambda z: abs(z) > 1e-3)


@settings(max_examples=40, deadline=None)
@given(a=_COMPLEX.map(lambda z: 2.0 * z), b=_COMPLEX.map(lambda z: 2.0 * z),
       start=_COMPLEX, moves=st.lists(_MOVE, min_size=1, max_size=4))
def test_ode_linear_field_matches_exponential(a, b, start, moves):
    corners, p = [], start
    for move in moves:
        p += move
        corners.append(p)
    y0 = (1.0 + 0.5j, -0.3j)
    y_end = integrate_chain(lambda t, y: (a * y[0], b * y[1]), start, corners,
                            y0, rtol=1e-11, atol=1e-13)[-1]
    dt = corners[-1] - start
    exact = (y0[0] * cmath.exp(a * dt), y0[1] * cmath.exp(b * dt))
    for got, want in zip(y_end, exact):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _chain_rule(field, seg):
    """y' = seg'(s) * field(seg(s), y) on the line a + s * (b - a)."""
    a, b = seg.a, seg.b

    def fun(s, yy):
        d = b - a
        return [d * v for v in field(a + s * d, yy)]

    return fun


def _sq_norm(v, scale):
    """sum_k |v_k / scale_k|^2, real parts and imaginary parts apart."""
    re = im = 0.0
    for x, sc in zip(v, scale):
        x /= sc
        re += x.real * x.real
        im += x.imag * x.imag
    return re + im


def _reference_attempt(field, seg, s, h, y, comp, f, rtol, atol):
    """One DOP853 attempt as loops over the tableau: stage sums over the
    nonzero entries of each row, in row order from 0.0, component by
    component, the chain rule as a list comprehension and the error norm by
    :func:`_sq_norm`.  Returns what the generated attempts return."""
    fun = _chain_rule(field, seg)

    def combine(row, K):
        out = []
        for Kk in K:
            acc = 0.0
            for j, c in enumerate(row):
                if c != 0.0:
                    acc += float(c) * Kk[j]
            out.append(acc)
        return out

    K = [[v] for v in f]  # K[k][i]: component k of stage i
    for i in range(1, _dop853.N_STAGES):
        dy = combine(_dop853.A[i][:i], K)
        k_i = fun(s + float(_dop853.C[i]) * h,
                  [yk + h * d for yk, d in zip(y, dy)])
        for Kk, v in zip(K, k_i):
            Kk.append(v)
    tmp = [h * bk + ck for bk, ck in zip(combine(_dop853.B, K), comp)]
    y_new = [yk + t for yk, t in zip(y, tmp)]
    comp_new = [t - (yn - yk) for t, yn, yk in zip(tmp, y_new, y)]
    f_new = fun(s + h, y_new)
    for Kk, v in zip(K, f_new):
        Kk.append(v)
    scale = [atol + rtol * max(abs(yk), abs(yn)) for yk, yn in zip(y, y_new)]
    n5 = _sq_norm(combine(_dop853.E5, K), scale)
    n3 = _sq_norm(combine(_dop853.E3, K), scale)
    if n5 == 0.0 and n3 == 0.0:
        err_norm = 0.0
    else:
        err_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * len(y))
    return [y_new, comp_new, f_new, err_norm, max(scale), K]


def _bits(v):
    """Exact value and type of a scalar, or of nested lists of them."""
    if isinstance(v, list):
        return [_bits(x) for x in v]
    return type(v), v.real.hex(), v.imag.hex()


def _generated_attempt(field, seg, s, h, y, comp, f, rtol, atol):
    # the kernel ode_steps steps with, for every scalar type
    a, d = seg.a, seg.b - seg.a
    attempt = numerics._attempt(len(y))
    return list(attempt(field, a, d, s, h, y, comp, f, rtol, atol))


# a Line from 0 or from a complex point, by +1, -1 or a complex d
_SEGMENT = st.builds(lambda a, d: Line(a, a + d), st.just(0.0) | _COMPLEX,
                     st.sampled_from([1.0, -1.0]) | _MOVE)
# a Line on the real axis, on which real states stay real
_REAL_SEGMENT = st.builds(
    lambda a, d: Line(a, a + d), st.just(0.0) | _BOUNDED,
    st.sampled_from([1.0, -1.0]) | _BOUNDED.filter(lambda x: abs(x) > 1e-3))


@st.composite
def _attempt_case(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    real = draw(st.booleans())
    num = _BOUNDED if real else _COMPLEX
    tiny = st.floats(-1e-16, 1e-16)
    carry = tiny if real else st.builds(complex, tiny, tiny)
    m = draw(st.lists(st.tuples(num, num, num), min_size=n, max_size=n))
    seg = draw(_REAL_SEGMENT | _SEGMENT if real else _SEGMENT)
    return (n, m, seg, draw(st.floats(0.0, 1.0)),
            draw(st.floats(1e-3, 0.5)),
            draw(st.lists(num, min_size=n, max_size=n)),
            draw(st.lists(carry, min_size=n, max_size=n)),
            draw(st.sampled_from([1e-12, 1e-6, 1e-3])))


@settings(max_examples=60, deadline=None)
@given(_attempt_case())
def test_generated_attempt_matches_tableau_loop(case):
    n, m, seg, s, h, y, comp, tol = case

    def field(t, yy):
        return [a * yy[(k + 1) % n] + b * yy[k] * yy[k] + c * t
                for k, (a, b, c) in enumerate(m)]

    f = _chain_rule(field, seg)(s, y)
    got = _generated_attempt(field, seg, s, h, y, comp, f, tol, tol)
    want = _reference_attempt(field, seg, s, h, y, comp, f, tol, tol)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("zero", [-0.0, complex(-0.0, -0.0)],
                         ids=["real", "complex"])
def test_generated_attempt_keeps_signed_zeros(n, zero):
    # every stage sum starts from 0.0, so -0.0 + h * (0.0 + c * -0.0) is
    # +0.0; on real states a sum without that start leaves -0.0 in the
    # stages.  The chain rule must leave each zero with the sign that
    # d * v in a list comprehension gives it
    def field(t, yy):
        return [yy[(k + 1) % n] for k in range(n)]

    y = [zero] * n
    for seg in (Line(0.0, 1.0), Line(0.0, -1.0)):
        f = _chain_rule(field, seg)(0.0, y)
        args = (field, seg, 0.0, 0.125, y, [0 * zero] * n, f, 1e-10, 1e-12)
        assert _bits(_generated_attempt(*args)) == \
            _bits(_reference_attempt(*args))


def test_attempt_sums_the_float_norm_first():
    # on floats both forms of the norm give the same bits, so no bit test
    # sees a silent fall to the slower generic form; the source does.  The
    # float-form sums come first, .real and .imag only under the type check
    # of the E5 sum, and the finiteness tests need no isfinite
    src = numerics._attempt_source(4)
    lines = src.splitlines()
    norm = lines.index("    n5 = (0.0 + x5_0 * x5_0 + x5_1 * x5_1 + x5_2 * x5_2"
                       " + x5_3 * x5_3)")
    assert lines[norm + 1:norm + 4] == [
        "    if n5.__class__ is float:",
        "        n3 = (0.0 + x3_0 * x3_0 + x3_1 * x3_1 + x3_2 * x3_2"
        " + x3_3 * x3_3)",
        "    else:"]
    generic = [k for k, line in enumerate(lines)
               if ".imag" in line or ".real" in line]
    assert generic == [norm + 4, norm + 5]
    assert lines[norm + 4].startswith("        n5 = (0.0 + x5_0.real *")
    assert lines[norm + 5].startswith("        n3 = (0.0 + x3_0.real *")
    assert "isfinite" not in src
    # one test per stage 1..12 and one on the new state
    assert sum(line.endswith(") != 0.0:") for line in lines) == 13


def _cart_outcome(mu, seg, inline, s, h, y, comp, f, rtol):
    """What one attempt on cart_flow(mu) along ``seg`` gives: its bits, or
    the class and message of what it raises.  ``inline`` takes the attempt
    that pastes the field's body at each stage, otherwise the one that calls
    the field."""
    field = rpc3bp.cart_flow(mu)
    body, params = field._inline
    if inline:
        attempt, first = numerics._attempt(4, body), params
    else:
        attempt, first = numerics._attempt(4), field
    try:
        # as _steps runs it: an overflow in the field is NonFinite
        with numerics._scalar_errors():
            return _bits(list(attempt(first, seg.a, seg.b - seg.a, s, h, y,
                                      comp, f, rtol, rtol)))
    except (L3labError, TypeError) as exc:
        return exc.__class__, str(exc)


def _same_cart_attempt(mu, seg, s, h, y, comp, f=None, rtol=1e-12):
    """Check that both attempts on cart_flow(mu) give the same outcome and
    return it; ``f`` defaults to the chain-ruled field at ``y``, and a drawn
    ``y`` on a primary is rejected: the step loop stops there before any
    attempt."""
    if f is None:
        try:
            f = _chain_rule(rpc3bp.cart_flow(mu), seg)(s, y)
        except rpc3bp.Collision:
            reject()
    called = _cart_outcome(mu, seg, False, s, h, y, comp, f, rtol)
    assert _cart_outcome(mu, seg, True, s, h, y, comp, f, rtol) == called
    return called


@settings(max_examples=80, deadline=None)
@given(mu=st.floats(3e-4, 1e-2),
       seg=st.sampled_from([Line(0.0, 1.0), Line(0.0, -1.0)]),
       s=st.floats(0.0, 1000.0), h=st.floats(1e-4, 0.5),
       y=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.0, 1.0),
                   st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(list),
       comp=st.lists(st.floats(-1e-16, 1e-16), min_size=4, max_size=4),
       rtol=st.sampled_from([1e-13, 1e-12, 1e-9]))
@example(mu=1e-3, seg=Line(0.0, -1.0), s=12.5, h=0.05,
         y=[-1.0004, 0.001, 0.001, -1.0], comp=[0.0] * 4, rtol=1e-12)
def test_inline_cart_flow_attempt_matches_call(mu, seg, s, h, y, comp, rtol):
    # the real-time attempt that pastes cart_flow's body at each stage gives
    # the called field's bits on real states in either direction of time
    _same_cart_attempt(mu, seg, s, h, y, comp, rtol=rtol)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(3e-4, 1e-2), h=st.floats(1e-4, 0.5),
       y=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.0, 1.0),
                   st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(list))
def test_inline_cart_flow_attempt_matches_call_on_a_complex_line(mu, h, y):
    # on a complex line the stages turn complex and math.hypot refuses
    # them: both attempts raise the same TypeError at the first stage
    outcome = _same_cart_attempt(mu, Line(0.25 + 0.5j, 1.0 - 0.25j), 0.0, h,
                                 y, [0.0] * 4)
    assert outcome[0] is TypeError


def test_inline_cart_flow_attempt_keeps_signed_zeros():
    # every sign pattern of a zero state and a zero carry: the stage sums,
    # the field and the chain rule d * v leave each zero with the call's sign
    for bits in range(16):
        y = [-0.0 if bits >> k & 1 else 0.0 for k in range(4)]
        for seg in (Line(0.0, 1.0), Line(0.0, -1.0)):
            for comp in ([0.0] * 4, [-0.0] * 4):
                outcome = _same_cart_attempt(3e-3, seg, 0.0, 0.125, y, comp)
                assert isinstance(outcome, list)


@pytest.mark.parametrize("mu", [3e-4, 1e-3, 1e-2])
def test_inline_cart_flow_attempt_raises_as_the_call(mu):
    # with a zero start field the first stage sits at the state itself:
    # within 1e-12 of S at (mu, 0) or P at (mu - 1, 0) both attempts raise
    # Collision, and a stage that is not finite or overflows NonFinite, each
    # with the same message
    zero = [0.0] * 4
    for y in ([mu + 5e-13, 0.0, 0.0, 0.0], [mu, -9e-13, 0.3, 0.0],
              [mu - 1.0 + 3e-13, 1e-13, 0.0, 0.5]):
        for seg in (Line(0.0, 1.0), Line(0.0, -1.0)):
            assert _same_cart_attempt(mu, seg, 0.0, 1e-3, y, zero, zero) == \
                (rpc3bp.Collision, "state within 1e-12 of a primary")
    not_finite = "field not finite near path point"
    for y, f, message in (
            ([1.0, 0.0, math.inf, 0.0], zero, not_finite),
            ([1.0, 0.0, math.nan, 0.0], zero, not_finite),
            ([1.0, 0.5, 1.79e308, 0.0], [0.0, 0.0, 1.7e308, 0.0], not_finite),
            # rS ** 3 overflows
            ([1e200, 0.5, 0.0, 0.0], zero, "overflow or division by zero")):
        for seg in (Line(0.0, 1.0), Line(0.0, -1.0)):
            outcome = _same_cart_attempt(mu, seg, 2.0, 0.5, y, zero, f)
            assert outcome[0] is NonFinite
            assert outcome[1].startswith(message)


def test_inline_attempt_pastes_the_body_at_each_stage():
    # no stage calls a field: the body runs once per stage 1..12, on names
    # of its own, and the time node is never formed
    body = rpc3bp.cart_flow(1e-3)._inline[0]
    src = numerics._attempt_source(4, body)
    assert "field(" not in src and "a + (s" not in src
    assert src.count("    dSx = q1 - mu\n") == 12
    called = numerics._attempt(4).__code__
    names = set(called.co_varnames) | set(called.co_names)
    own = compile(body.text, "<body>", "exec").co_names
    assert not names & set(own + body.params)


def _pend_outcome(inline, seg, s, h, y, comp, f, rtol):
    """What one attempt on the separatrix field along ``seg`` gives: its
    bits, or the class and message of what it raises.  ``inline`` takes the
    attempt that pastes the field's body at each stage, otherwise the one
    that calls the field."""
    field = separatrix._pend_field
    body, params = field._inline
    if inline:
        attempt, first = numerics._attempt(2, body), params
    else:
        attempt, first = numerics._attempt(2), field
    try:
        # as _steps runs it: an overflow in the field is NonFinite
        with numerics._scalar_errors():
            return _bits(list(attempt(first, seg.a, seg.b - seg.a, s, h, y,
                                      comp, f, rtol, 1e-14)))
    except L3labError as exc:
        return exc.__class__, str(exc)


def _same_pend_attempt(seg, s, h, y, comp, f=None, rtol=1e-12):
    """Check that both attempts on the separatrix field give the same
    outcome and return it; ``f`` defaults to the chain-ruled field at ``y``,
    and a drawn ``y`` at the collision is rejected: the step loop stops
    there before any attempt."""
    if f is None:
        try:
            f = _chain_rule(separatrix._pend_field, seg)(s, y)
        except separatrix.CollisionSingularity:
            reject()
    called = _pend_outcome(False, seg, s, h, y, comp, f, rtol)
    assert _pend_outcome(True, seg, s, h, y, comp, f, rtol) == called
    return called


@settings(max_examples=80, deadline=None)
@given(seg=_SEGMENT, s=st.floats(0.0, 1.0), h=st.floats(1e-4, 0.5),
       y=st.tuples(st.builds(complex, st.floats(-3.5, 3.5), _BOUNDED),
                   _COMPLEX).map(list),
       comp=st.lists(st.builds(complex, st.floats(-1e-16, 1e-16),
                               st.floats(-1e-16, 1e-16)),
                     min_size=2, max_size=2),
       rtol=st.sampled_from([1e-13, 1e-12, 1e-10]))
@example(seg=Line(0.0, 0.17j), s=0.5, h=0.05,
         y=[2.5 + 0.1j, 0.3 - 0.2j], comp=[0j, 0j], rtol=1e-12)
def test_inline_pend_attempt_matches_call(seg, s, h, y, comp, rtol):
    # the complex-time attempt that pastes the separatrix field's body at
    # each stage gives the called field's bits on complex lines and states
    _same_pend_attempt(seg, s, h, y, comp, rtol=rtol)


@settings(max_examples=40, deadline=None)
@given(seg=_REAL_SEGMENT, h=st.floats(1e-4, 0.5),
       y=st.tuples(st.floats(-3.0, 3.0), _BOUNDED).map(list))
@example(seg=Line(0.0, 1.0), h=0.05, y=[separatrix.lambda0(), 0.0])
def test_inline_pend_attempt_matches_call_on_real_states(seg, h, y):
    # a sweep's first leg starts from the real state (lambda0, 0): cmath
    # turns the stages complex, and both attempts step on with the same bits
    y_new = _same_pend_attempt(seg, 0.0, h, y, [0.0, 0.0])[0]
    assert [bits[0] for bits in y_new] == [complex, complex]


def test_inline_pend_attempt_keeps_signed_zeros():
    # every sign pattern of the parts of a zero state at the saddle, and of
    # a zero carry: the stage sums, the field and the chain rule d * v leave
    # each zero with the call's sign
    for bits in range(16):
        y = [complex(-0.0 if bits >> 2 * k & 1 else 0.0,
                     -0.0 if bits >> 2 * k + 1 & 1 else 0.0)
             for k in range(2)]
        for seg in (Line(0.0, 1.0), Line(0.0, -1.0), Line(0.0, 1j)):
            for comp in ([0j] * 2, [complex(-0.0, -0.0)] * 2):
                outcome = _same_pend_attempt(seg, 0.0, 0.125, y, comp)
                assert isinstance(outcome, list)


def test_inline_pend_attempt_raises_as_the_call():
    # with a zero start field the first stage sits at the state itself: at
    # the collision lambda = pi both attempts raise CollisionSingularity,
    # and a stage that is not finite or overflows NonFinite, each with the
    # same message
    zero = [0j] * 2
    for lam in (complex(math.pi), complex(math.pi, 5e-9),
                complex(-math.pi, -1e-9)):
        for seg in (Line(0.0, 1.0), Line(0.0, 1j)):
            outcome = _same_pend_attempt(seg, 0.0, 1e-3, [lam, 0.5j], zero,
                                         zero)
            assert outcome == (separatrix.CollisionSingularity,
                               f"lambda = {lam} too close to collision")
    not_finite = "field not finite near path point"
    for y, f, message in (
            ([1.0 + 0j, complex(math.inf, 0.0)], zero, not_finite),
            ([1.0 + 0j, complex(0.0, math.nan)], zero, not_finite),
            # dlambda = -3 Lambda overflows to inf
            ([1.0 + 0j, 1.7e308 + 0j], [0j, 1.7e308 + 0j], not_finite),
            # cos(lambda / 2) overflows
            ([complex(1.0, 2000.0), 0j], zero, "overflow or division by zero")):
        for seg in (Line(0.0, 1.0), Line(0.0, -1.0), Line(0.0, 1j)):
            outcome = _same_pend_attempt(seg, 0.0, 0.5, y, zero, f)
            assert outcome[0] is NonFinite
            assert outcome[1].startswith(message)


def test_field_body_without_params_compiles():
    # a body with no params unpacks none: its attempt and its callable
    # compile, and the attempt steps y' = -y with the called field's bits
    body = numerics._FieldBody(params=(), state=("u",), out=("du",),
                               text="du = -u\n", scope=())
    assert "params\n" not in numerics._attempt_source(1, body)
    field = numerics._inline_field(body, ())
    assert field(0.0, [2.0]) == (-2.0,)
    y0 = [1.0 + 0.5j]
    pasted = integrate_ode(field, 0.0, 1.0 + 1j, y0, rtol=1e-12, atol=1e-14)
    called = integrate_ode(lambda t, y: (-y[0],), 0.0, 1.0 + 1j, y0,
                           rtol=1e-12, atol=1e-14)
    assert _bits(pasted.y_end) == _bits(called.y_end)
    assert pasted.steps == called.steps and pasted.steps > 1
    # the separatrix field has no params either, no stage calls it, and the
    # only name it shares with the attempt is the builtin both read
    pend = separatrix._PEND_BODY
    src = numerics._attempt_source(2, pend)
    assert "field(" not in src and "params\n" not in src
    assert src.count("    half = cos(lam / 2.0)\n") == 12
    called = numerics._attempt(2).__code__
    names = set(called.co_varnames) | set(called.co_names)
    own = set(compile(pend.text, "<body>", "exec").co_names)
    assert names & own == {"abs"}


def test_field_body_attempt_is_cached_by_identity():
    # a body is a compile unit: the same body reuses its attempt and its
    # binder, and a second body with equal fields compiles its own
    pend = separatrix._PEND_BODY
    twin = numerics._FieldBody(*pend._values())
    assert twin != pend and hash(twin) == object.__hash__(twin)
    assert numerics._attempt(2, pend) is numerics._attempt(2, pend)
    assert numerics._attempt(2, twin) is not numerics._attempt(2, pend)
    assert numerics._attempt(2, twin) is numerics._attempt(2, twin)
    assert numerics._field_binder(twin) is not numerics._field_binder(pend)
    with pytest.raises(AttributeError):
        twin.text = ""


def _reference_steps(field, seg, y, rtol, atol, s_end):
    """(s, y, err_est, rejected) of each accepted step: the step-size
    controller of DOP853 around :func:`_reference_attempt`."""
    fun = _chain_rule(field, seg)
    comp = [0j if isinstance(v, complex) else 0.0 for v in y]
    s = 0.0
    f = fun(s, y)
    h = numerics._initial_step(fun, y, f, rtol, atol, s_end)
    rejected = 0
    while True:
        remaining = s_end - s
        if remaining <= 1e-15 * s_end:
            return
        final = h >= remaining
        if final:
            h = remaining
        y_new, comp_new, f_new, err_norm, max_scale, _ = _reference_attempt(
            field, seg, s, h, y, comp, f, rtol, atol)
        if err_norm < 1.0:
            s = s_end if final else s + h
            y, comp, f = y_new, comp_new, f_new
            yield s, y, err_norm * max_scale, rejected
            rejected = 0
            factor = numerics._MAX_FACTOR if err_norm == 0.0 else min(
                numerics._MAX_FACTOR,
                numerics._SAFETY * err_norm ** numerics._ERR_EXP)
            h *= factor
        else:
            rejected += 1
            h *= max(numerics._MIN_FACTOR,
                     numerics._SAFETY * err_norm ** numerics._ERR_EXP)


def _same_steps(field, seg, y0, **kw):
    """Check that ode_steps takes the reference's steps on one line;
    returns the end state, the step count and the rejections."""
    got = [(_bits([step.s_new, step.y_new, step.err_est]), step.rejected)
           for step in ode_steps(field, seg, y0, **kw)]
    ref = list(_reference_steps(field, seg, list(y0), kw["rtol"], kw["atol"],
                                kw.get("s_end", 1.0)))
    assert got == [(_bits([s, y, err_est]), rejected)
                   for s, y, err_est, rejected in ref]
    return ref[-1][1], len(got), sum(rejected for _, rejected in got)


@pytest.mark.parametrize("points, field, y0", [
    ([0.1, 0.4, 0.4 + 0.3j, -0.2 + 0.1j, 1.0],
     lambda t, y: (y[1], -cmath.sin(y[0]) + 0.1 * t), (0.5, 0.2j)),
], ids=["polyline"])
def test_integrate_ode_steps_match_reference_stepper(points, field, y0):
    # every accepted step of every leg, then integrate_ode's own result
    tols = {"rtol": 1e-11, "atol": 1e-13}
    points = [complex(p) for p in points]
    y, steps = [complex(v) for v in y0], 0
    for a, b in zip(points, points[1:]):
        res = integrate_ode(field, a, b, y, **tols)
        y, n, r = _same_steps(field, Line(a, b), y, **tols)
        assert _bits(res.y_end) == _bits(y)
        assert (res.steps, res.rejected) == (n, r)
        steps += n
    assert steps > 10


def test_ode_steps_on_real_state_match_reference_stepper():
    # the manifold-tracing case: a real 4-vector near L3, stepped in
    # backward time units
    mu = 1e-3
    y0 = [v + 1e-3 for v in rpc3bp.locate_L3(mu).cartesian.as_tuple()]
    y_end, steps, _ = _same_steps(
        rpc3bp.cart_flow(mu), Line(0.0, -1.0), y0,
        rtol=1e-12, atol=1e-12, s_end=20.0)
    assert steps > 10 and all(type(v) is float for v in y_end)


def test_fit_line_matches_polyfit():
    rng = np.random.default_rng(3)
    x = rng.uniform(-3.0, 5.0, 12)
    y = 2.5 * x - 1.25 + 1e-3 * rng.standard_normal(12)
    slope, intercept = fit_line(x.tolist(), y.tolist())
    ref = np.polyfit(x, y, 1)
    assert abs(slope - ref[0]) <= 1e-13 * abs(ref[0])
    assert abs(intercept - ref[1]) <= 1e-13 * abs(ref[1])
    assert fit_line([1.0, 2.0, 3.0], [3.0, 5.0, 7.0]) == (2.0, 1.0)
    for x, y in (([1.0], [2.0]), ([1.0, 2.0], [3.0]),
                 ([1.0, 1.0], [2.0, 3.0])):
        with pytest.raises(ValueError):
            fit_line(x, y)


def test_grids_match_numpy():
    for a, b, n in ((-10.0, 10.0, 401), (0.0, -660.123, 2000)):
        assert linspace(a, b, n) == np.linspace(a, b, n).tolist()
    for a, b, n in ((1e-4, 1e-3, 9), (1e-3, 2e-3, 12), (30.0, 100.0, 7)):
        got, ref = geomspace(a, b, n), np.geomspace(a, b, n)
        assert got[0] == a and got[-1] == b and len(got) == n
        # numpy's vectorised power may round the other way
        assert all(abs(u - v) <= 2 * math.ulp(v) for u, v in zip(got, ref))
    with pytest.raises(ValueError):
        linspace(0.0, 1.0, 1)


def _quad_polyline(f, points, tol):
    """Integral of f along the polyline through ``points``, segment by
    segment."""
    points = [complex(p) for p in points]
    return sum(quad_path(f, Line(a, b), tol=tol).value
               for a, b in zip(points, points[1:]))


def test_quad_smooth():
    res = quad_path(lambda t: 1.0 / (1.0 + t * t), Line(0.0, 1.0), tol=1e-13)
    assert abs(res.value - math.pi / 4.0) < 1e-12
    assert res.err >= 0.0 and res.evals > 0


def test_quad_inverse_sqrt_endpoint():
    res = quad_path(lambda t: t ** -0.5, Line(0.0, 1.0), tol=1e-12)
    assert abs(res.value - 2.0) < 1e-10


def test_quad_residue_circle():
    circle = Arc(0.0, 1.0, -math.pi, math.pi)
    res = quad_path(lambda t: 1.0 / t, circle, tol=1e-12)
    assert abs(res.value - 2j * math.pi) < 1e-10


def test_quad_reversal_cancels():
    points = [0.0, 0.5 + 0.3j, 1.0]
    f = lambda t: cmath.exp(t) / (1.0 + t)
    tol = 1e-12
    fwd = _quad_polyline(f, points, tol)
    bwd = _quad_polyline(f, points[::-1], tol)
    assert abs(fwd + bwd) <= 10 * tol


def test_quad_closed_contour_of_analytic_function():
    circle = Arc(0.3 + 0.1j, 0.7, -math.pi, math.pi)
    res = quad_path(cmath.exp, circle, tol=1e-12)
    assert abs(res.value) <= 10 * 1e-12


def test_quad_no_convergence():
    # a genuinely non-integrable endpoint blows the refinement budget
    with pytest.raises((NoConvergence, NonFinite, OverflowError)):
        quad_path(lambda t: 1.0 / t, Line(0.0, 1.0), tol=1e-13)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_quad_non_finite_integrand_stops_at_level_0(value):
    # the level-0 sum is already not finite; a NaN error estimate used to
    # pass the final convergence test and run all 11 levels
    calls = []

    def f(t):
        calls.append(t)
        return value

    with pytest.raises(NonFinite):
        quad_path(f, Line(0.0, 1.0))
    # level 0 holds the midpoint and six node pairs
    assert 0 < len(calls) <= 13


def test_quad_non_finite_at_one_node():
    # inf at the midpoint only, a node of level 0
    with pytest.raises(NonFinite):
        quad_path(lambda t: math.inf if t == 0.5 else 1.0, Line(0.0, 1.0))


@pytest.mark.parametrize("f", [lambda t: 1.0 / (t - 0.5),
                               lambda t: math.exp(1e3 * t)],
                         ids=["zero_division", "overflow"])
def test_quad_scalar_errors_are_non_finite(f):
    with pytest.raises(NonFinite):
        quad_path(f, Line(0.0, 1.0))


# the box avoids the pole of exp(t)/(1+t) at t = -1, and so do the
# straight segments between its points
_BOX_POINT = st.builds(complex, st.floats(0.0, 2.0), st.floats(-1.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(_BOX_POINT, min_size=2, max_size=6).filter(
    lambda pts: all(abs(q - p) > 1e-3 for p, q in zip(pts, pts[1:]))))
def test_quad_reversal_cancels_on_random_polyline(points):
    f = lambda t: cmath.exp(t) / (1.0 + t)
    tol = 1e-12
    fwd = _quad_polyline(f, points, tol)
    bwd = _quad_polyline(f, points[::-1], tol)
    assert abs(fwd + bwd) <= tol


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_quad_rejects_bad_tol(tol):
    # with tol = nan the divergent integrand used to return a value
    with pytest.raises(ValueError):
        quad_path(lambda t: 1.0 / (t - 0.5) ** 2, Line(0.0, 1.0), tol=tol)


@pytest.mark.parametrize("g, bracket, root", [
    (lambda x: x * x - 2.0, (1.0, 2.0), math.sqrt(2.0)),
    (lambda x: x - math.sin(x) - math.pi, (math.pi - 1, math.pi + 1), math.pi),
    (math.cos, (1.0, 2.0), math.pi / 2.0),
    # a reversed bracket used to return its midpoint, 0.5
    (lambda x: x - 0.3, (1.0, 0.0), 0.3),
])
def test_find_root(g, bracket, root):
    assert abs(find_root(g, bracket, tol=1e-13) - root) < 1e-12


def test_find_root_no_bracket():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x + 1.0, (0.0, 1.0))


@pytest.mark.parametrize("g", [
    # NaN everywhere used to return 0.9999999999995453
    lambda x: math.nan,
    lambda x: -math.inf if x == 0.0 else 1.0,
    # the product of two tiny values of one sign underflows to 0.0, which
    # the old sign test took for a sign change
    lambda x: 1e-200,
], ids=["nan_everywhere", "minus_inf_at_lo", "tiny_of_one_sign"])
def test_find_root_no_bracket_at_ends_it_cannot_trust(g):
    with pytest.raises(NoBracket):
        find_root(g, (0.0, 1.0))


@pytest.mark.parametrize("bracket", [(math.nan, 1.0), (0.0, math.inf),
                                     (-math.inf, 1.0)])
def test_find_root_refuses_non_finite_ends(bracket):
    # (nan, 1) used to return nan, and (0, inf) inf
    with pytest.raises(ValueError, match="finite bracket"):
        find_root(lambda x: x - 0.3, bracket)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_find_root_refuses_a_tol_not_finite_and_positive(tol):
    # tol = -1 used to find the root after 602 evaluations of g
    with pytest.raises(ValueError, match=f"got {tol!r}"):
        find_root(lambda x: x - 0.3, (0.0, 1.0), tol=tol)


def test_find_root_refuses_a_g_not_finite_inside():
    def g(x):
        return x - 0.3 if x in (0.0, 1.0) else math.nan

    with pytest.raises(NonFinite, match="inside the bracket"):
        find_root(g, (0.0, 1.0))


def test_kahan_accumulation_long_path():
    # many tiny steps: compensated accumulation keeps the drift near rtol
    res = integrate_ode(lambda t, y: (1j * y[0],), 0.0, 200.0, (1.0,),
                        rtol=1e-12, atol=1e-14)
    assert abs(abs(res.y_end[0]) - 1.0) < 5e-10


def _per_leg(field, start, points, y0, carry=True, **tols):
    """Reference for integrate_chain: one integrate_ode call per new point.

    With ``carry`` each leg after the first starts from the step the
    previous leg proposed, in units of t; without it every leg starts cold
    from Hairer's starting step.
    """
    states, h = [], None
    y = np.asarray(y0, dtype=complex)
    for prev, t in zip([start] + list(points), points):
        if complex(t) != complex(prev):
            res = integrate_ode(field, prev, t, y, _first_step=h, **tols)
            y, h = res.y_end, (res.next_step if carry else None)
        states.append(y)
    return states


def _same_states(a, b):
    return len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


# the carried step moves a chain by at most this multiple of rtol against
# cold legs, relative to max(1, |y|); measured up to 4.4 on 400 random
# separatrix-strip chains at rtol 1e-10
_CARRY_DRIFT = 20.0


def _close_states(a, b, rtol):
    return len(a) == len(b) and all(
        abs(p - q) <= _CARRY_DRIFT * rtol * max(1.0, abs(q))
        for u, v in zip(a, b) for p, q in zip(u, v))


def test_integrate_chain_matches_per_leg_loop():
    field = lambda t, y: (y[1], -cmath.sin(y[0]) + 0.1 * t)
    points = [0.4, 0.4 + 0.3j, -0.2 + 0.1j, 1.0]
    tols = {"rtol": 1e-11, "atol": 1e-13}
    chain = integrate_chain(field, 0.1, points, (0.5, 0.2j), **tols)
    loop = _per_leg(field, 0.1, points, (0.5, 0.2j), **tols)
    assert _same_states(chain, loop)
    cold = _per_leg(field, 0.1, points, (0.5, 0.2j), carry=False, **tols)
    assert not _same_states(chain, cold)
    assert _close_states(chain, cold, tols["rtol"])


def test_integrate_chain_reuses_repeated_points(monkeypatch):
    # every leg goes through the module-level integrate_ode, so a wrapper
    # installed there sees each leg and only those
    legs = []
    plain = numerics.integrate_ode

    def counting(field, a, b, y0, **tols):
        res = plain(field, a, b, y0, **tols)
        legs.append((a, b, tols["_first_step"], res.next_step))
        return res

    monkeypatch.setattr(numerics, "integrate_ode", counting)
    field = lambda t, y: (1j * y[0],)
    points = [0.5, 0.5, 0.5j, 0.5j, 0.5j]
    states = integrate_chain(field, 0.0, points, (1.0,))
    assert [leg[:2] for leg in legs] == [(0.0, 0.5), (0.5, 0.5j)]
    # the first leg starts cold; the second from the first leg's last
    # proposal, unchanged by the repeated point between them
    assert legs[0][2] is None and legs[1][2] == legs[0][3]
    assert states[1] is states[0]
    assert states[3] is states[2] and states[4] is states[2]
    monkeypatch.setattr(numerics, "integrate_ode", plain)
    assert _same_states(states, _per_leg(field, 0.0, points, (1.0,)))
    assert abs(states[-1][0] - cmath.exp(1j * 0.5j)) < 1e-9


def test_carried_step_is_clamped_to_the_leg(monkeypatch):
    # the first step of a leg, in its parameter s, is the carried step in t
    # over the leg's length, at most the whole leg
    firsts = []
    plain = numerics._steps

    def recording(*args):
        steps = plain(*args)
        first = next(steps)
        firsts.append(first.s_new - first.s_old)
        yield first
        yield from steps

    monkeypatch.setattr(numerics, "_steps", recording)
    field = lambda t, y: (1j * y[0],)
    for a, b in [(0.1, 1.1), (0.0, 2j), (0.1, 0.105)]:
        integrate_ode(field, a, b, (1.0,), _first_step=0.01)
    assert firsts == [0.01, 0.005, 1.0]
    # a carried step under the leg's smallest step starts the leg cold
    cold = integrate_ode(field, 0.0, 1.0, (1.0,))
    assert integrate_ode(field, 0.0, 1.0, (1.0,), _first_step=1e-20) == cold
    assert firsts[-1] == firsts[-2] > 1e-14


def test_integrate_chain_after_a_tiny_leg():
    # the step proposed after a leg of 1e-134 is far under the smallest
    # step of the next leg, which therefore starts cold instead of
    # underflowing
    field = separatrix._pend_field
    y0 = (separatrix.lambda0(), 0.0)
    points = [1e-134j, 1.0]
    chain = integrate_chain(field, 0.0, points, y0, rtol=1e-10, atol=1e-14)
    cold = _per_leg(field, 0.0, points, y0, carry=False, rtol=1e-10,
                    atol=1e-14)
    assert _same_states(chain[1:], cold[1:])


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
@example(points=[9.86592983421027e-162j])
def test_integrate_chain_property_on_separatrix_strip(points):
    field = separatrix._pend_field
    y0 = (separatrix.lambda0(), 0.0)
    tols = {"rtol": 1e-10, "atol": 1e-14}
    chain = integrate_chain(field, 0.0, points, y0, **tols)
    assert _same_states(chain, _per_leg(field, 0.0, points, y0, **tols))
    assert _close_states(
        chain, _per_leg(field, 0.0, points, y0, carry=False, **tols),
        tols["rtol"])
    # the last state is the continuation along the polyline of the
    # distinct points: each polyline segment is integrated as one leg, and
    # a repeated point leaves the carried step alone
    distinct = []
    for p in points:
        if p != (distinct[-1] if distinct else 0j):
            distinct.append(p)
    end = _per_leg(field, 0.0, distinct, y0, **tols)[-1] if distinct else y0
    assert np.array_equal(chain[-1], end)


@pytest.mark.parametrize("axis", [1.0, 1j])
def test_integrate_chain_on_very_short_legs(axis):
    # on a leg of 5e-162 to 1.3e-160 the E5 error norm underflows to 0
    # while the E3 one is subnormal; the step is exact to first order
    field = separatrix._pend_field
    y0 = (separatrix.lambda0(), 0.0)
    slope = field(0.0, y0)[1]
    for k in range(-660, -619):
        t = 10.0 ** (k / 4) * axis
        lam, Lam = integrate_chain(field, 0.0, [t], y0, rtol=1e-10,
                                   atol=1e-14)[-1]
        assert lam == y0[0]
        assert abs(Lam / (t * slope) - 1.0) < 1e-14, t
