import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3lab import numerics
from l3lab import separatrix as sep
from l3lab.numerics import Arc, Line, find_root

A_REF = 0.177744  # published rounding of the strip half-width


def test_potential_values():
    assert abs(sep.V(0.0) + 0.5) < 1e-15
    assert abs(sep.V(2.0 * math.pi / 3.0) - 0.5) < 1e-14
    # saddle: the momentum equation vanishes at lambda = 0
    _, dLam = sep.pend_rhs(0.0, 0.0)
    assert abs(dLam) < 1e-15


def test_collision_guard():
    with pytest.raises(sep.CollisionSingularity):
        sep.V(math.pi)


def test_lambda0():
    lam0 = sep.lambda0()
    assert 2.0 * math.pi / 3.0 < lam0 < math.pi
    # 2 arccos((sqrt(2)-1)/2); the root of V = -1/2 on (2 pi/3, pi)
    assert abs(lam0 - 2.7243592729714963) < 1e-12
    assert abs(math.cos(lam0 / 2.0) - sep.A_PLUS) < 1e-14
    assert abs(sep.pend_energy(lam0, 0.0) + 0.5) < 1e-14
    # independent oracle: bisection on V = -1/2 over (2pi/3, pi)
    oracle = find_root(lambda x: sep.V(x) + 0.5,
                       (2.0 * math.pi / 3.0 + 0.05, math.pi - 0.05), tol=1e-13)
    assert abs(lam0 - oracle) < 1e-11


def test_compute_A():
    a = sep.compute_A(tol=1e-12)
    assert abs(a - A_REF) < 1e-5
    assert 3.0 / 50.0 <= a <= 3.0 / 10.0
    assert abs(a - sep.compute_A_rescaled(tol=1e-12)) < 1e-9
    with pytest.raises(ValueError):
        sep.compute_A(tol=1e-14)


def test_residue():
    analytic = sep.residue_pole()
    assert abs(analytic - math.sqrt(2.0 / 21.0)) < 1e-15
    numeric = sep.residue_pole_numeric(radius=1e-3)
    assert abs(numeric - analytic) < 1e-8
    assert abs(math.pi * analytic - 0.969516) < 1e-6


def test_t_star_zero():
    a = sep.compute_A(tol=1e-12)
    t1 = sep.t_star("zero_upper")
    assert abs(t1.real) < 1e-6 and abs(t1.imag + a) < 1e-6
    t1m = sep.t_star("zero_lower")
    assert abs(t1m - t1.conjugate()) < 1e-10


def test_t_star_infinity():
    t2 = sep.t_star("infinity_upper")
    assert abs(t2 - (-0.086697 - 0.969516j)) < 1e-4
    t2m = sep.t_star("infinity_lower")
    assert abs(t2m - t2.conjugate()) < 1e-10
    # the imaginary part is pi times the pole residue
    assert abs(abs(t2.imag) - math.pi * sep.residue_pole()) < 1e-8


def test_t_star_zero_is_minus_i_A_to_rounding():
    # the detour starts at the branch point a+, where q - a+ is the
    # integration variable itself
    t1 = sep.t_star("zero_upper")
    exact = -1j * sep.compute_A()
    assert abs(t1.real - exact.real) <= 1e-14
    assert abs(t1.imag - exact.imag) <= 1e-14


def test_t_star_infinity_matches_reference():
    # the same truncated path plus its tail term, to 30 digits in mpmath
    ref = -0.086696609173862573 - 0.969516541330405693j
    assert abs(sep.t_star("infinity_upper") - ref) <= 1e-12


def test_t_star_homotopy_invariance():
    # up to just under a+ = 0.2071, the largest detour t_star accepts
    for kind in ("zero_upper", "infinity_upper"):
        t_a = sep.t_star(kind, detour=1e-3)
        for detour in (5e-3, 0.2):
            assert abs(t_a - sep.t_star(kind, detour=detour)) <= 1e-12


@pytest.mark.parametrize("detour", [0.8, 1.0, sep.A_PLUS, 0.0, -1e-3,
                                    math.nan],
                         ids=["0.8", "1.0", "a_plus", "zero", "negative",
                              "nan"])
@pytest.mark.parametrize("kind", ["zero_upper", "infinity_upper",
                                  "infinity_lower"])
def test_t_star_rejects_detour_outside_its_path_family(kind, detour):
    # at 0.8 the arc around q = 1 encloses a+ and would land the paths to
    # infinity at 0.9696 - 0.0868i, not at -0.0867 - 0.9695i
    with pytest.raises(ValueError, match="detour"):
        sep.t_star(kind, detour=detour)


@settings(max_examples=5, deadline=None)
@given(st.floats(1e-3, 5e-3))
def test_t_star_upper_and_lower_are_conjugate(detour):
    upper = sep.t_star("zero_upper", detour=detour)
    lower = sep.t_star("zero_lower", detour=detour)
    assert abs(upper - lower.conjugate()) <= 1e-12


@pytest.mark.parametrize("run, calls", [
    (lambda: sep.t_star("zero_upper"), 3),
    (lambda: sep.t_star("infinity_lower"), 3),
    (sep.residue_pole_numeric, 1),
    (sep.compute_A, 1),
], ids=["t_star_zero", "t_star_infinity", "residue", "A"])
def test_quadrature_is_one_call_per_segment(monkeypatch, run, calls):
    # the per-layer benchmark counts quad_path calls under the name this
    # module looks it up by, one per Line or Arc of the path
    segs = []
    plain = sep.quad_path

    def counting(f, seg, tol):
        segs.append(seg)
        return plain(f, seg, tol=tol)

    monkeypatch.setattr(sep, "quad_path", counting)
    run()
    assert len(segs) == calls
    assert all(isinstance(seg, (Line, Arc)) for seg in segs)


@pytest.mark.parametrize("kind, budget", [
    ("zero_upper", 600),
    ("infinity_upper", 1200),
])
def test_t_star_evaluation_budget(monkeypatch, kind, budget):
    # integrand evaluations at the default tol; the paths once cut into
    # 64 sub-chords per segment took 12,593 and 3,785
    evals = []
    plain = sep.quad_path

    def counting(f, seg, tol):
        res = plain(f, seg, tol=tol)
        evals.append(res.evals)
        return res

    monkeypatch.setattr(sep, "quad_path", counting)
    sep.t_star(kind)
    assert sum(evals) <= budget


@pytest.mark.parametrize("path", [
    sep._zero_path(1e-3), sep._zero_path(0.2),
    sep._infinity_path(1e-3), sep._infinity_path(0.2),
    sep._conj_path(sep._zero_path(5e-3)),
    sep._conj_path(sep._infinity_path(5e-3)),
], ids=["zero", "zero_wide", "infinity", "infinity_wide", "zero_conj",
        "infinity_conj"])
def test_path_segments_join(path):
    # the factor arguments are chained from each segment's end to the next
    # segment's start, and start from 0 at a+
    assert path[0].start == sep.A_PLUS
    for seg in path:
        assert isinstance(seg, (Line, Arc))
        assert 0.0 < seg.length() < math.inf
    for prev, seg in zip(path, path[1:]):
        assert abs(seg.start - prev.end) <= 1e-15


def test_fhat_sign_flip():
    # one more turn of any factor moves fhat to the other sheet
    a = 0.5 + 0.2j
    offsets = tuple(a - c for c in (0.0, -1.0, sep.A_PLUS, sep.A_MINUS, 1.0))
    w = 0.01 - 0.03j
    args = (0.1, 0.2, 0.3, 0.4)
    base = sep._fhat(w, offsets, args)
    for k in range(4):
        turned = list(args)
        turned[k] += 2.0 * math.pi
        flipped = sep._fhat(w, offsets, tuple(turned))
        assert abs(flipped + base) < 1e-15 * abs(base)


def test_sigma_real_axis():
    for t in (-10.0, -3.0, 0.5, 3.0, 10.0):
        st = sep.sigma_sweep([float(t)])[0]
        q = cmath.cos(st.lam / 2.0)
        assert abs(q.imag) < 1e-10
        assert sep.A_PLUS - 1e-10 <= q.real < 1.0
    st = sep.sigma_sweep([0.0 + 0.0j])[0]
    assert abs(st.lam - sep.lambda0()) < 1e-14 and abs(st.Lam) < 1e-14


def test_sigma_momentum_odd():
    for t in (0.7, 1.2, 2.5):
        plus = sep.sigma_sweep([float(t)])[0]
        minus = sep.sigma_sweep([float(-t)])[0]
        assert abs(plus.Lam + minus.Lam) <= 1e-9
        assert abs(plus.lam - minus.lam) <= 1e-9


def test_sigma_complex_energy():
    # inside the strip the continuation stays real on the imaginary axis
    st = sep.sigma_sweep([0.12j])[0]
    assert abs(sep.pend_energy(st.lam, st.Lam) + 0.5) <= 1e-9
    assert abs(st.lam.imag) < 1e-10
    assert abs(st.Lam.real) < 1e-10
    # beyond the strip boundary (0.5 > A) the point is reached by a detour
    # around the singularity; the energy invariant holds on any sheet
    st = sep.sigma_sweep([0.7, 0.7 + 0.5j, 0.5j])[-1]
    assert abs(st.lam.imag) > 1e-3
    assert abs(sep.pend_energy(st.lam, st.Lam) + 0.5) <= 1e-9


def test_q_equation_along_real_orbit():
    a_p, a_m = sep.A_PLUS, sep.A_MINUS
    for t in (0.4, 1.1, 2.2, 4.0):
        st = sep.sigma_sweep([float(t)])[0]
        lam, Lam = st.lam, st.Lam
        q = cmath.cos(lam / 2.0)
        qdot = 1.5 * Lam * cmath.sin(lam / 2.0)
        rhs = (3.0 / q) * (q - 1.0) ** 2 * (q + 1.0) * (q - a_m) * (q - a_p)
        assert abs(qdot * qdot - rhs) <= 1e-8
        lam_sq = (4.0 / (3.0 * q)) * (1.0 - q) * (q - a_p) * (q - a_m)
        assert abs(Lam * Lam - lam_sq) <= 1e-9


def test_fit_branch():
    rep = sep.fit_branch()
    assert rep.kind == "branch23"
    assert abs(rep.fitted_exponent - 2.0 / 3.0) <= 0.02
    coef_target = 3.0 * 2.0 ** (-1.0 / 3.0)
    assert abs(abs(rep.fitted_coefficient) - coef_target) <= 0.02 * coef_target
    assert abs(rep.momentum_exponent + 1.0 / 3.0) <= 0.02
    # the complex coefficient pins down the cube root alpha_plus
    alpha_est = rep.fitted_coefficient / 3.0
    assert abs(alpha_est - sep.ALPHA_PLUS) < 0.05
    with pytest.raises(ValueError):
        sep.fit_branch(t_offsets=[1e-5, 1e-3])


def test_zero_scan_of_momentum():
    min_abs = sep.check_zero_of_Lambda()
    assert min_abs > 0.05
    st = sep.sigma_sweep([0.0 + 0.0j])[0]
    assert abs(st.Lam) < 1e-10


def _pend_legs(start, points, y0, rtol, carry=True):
    """The separatrix field through ``points``, one integrate_ode leg each.

    With ``carry`` every leg after the first starts from the step the leg
    before it proposed; without it every leg starts cold.
    """
    states, y, h, prev = [], y0, None, start
    for t in points:
        if t != prev:
            res = numerics.integrate_ode(sep._pend_field, prev, t, y,
                                         rtol=rtol, atol=1e-14,
                                         _first_step=h)
            y, h, prev = res.y_end, (res.next_step if carry else None), t
        states.append(y)
    return states


def _zero_scan_reference(re_range, carry):
    """min |Lambda| of the scan over both halves of the strip, from
    test-side legs: each column is integrated up and down from its base
    point.  With ``carry``, the base points are two chains out from t = 0
    along the real axis; without it, one cold leg 0 -> x per column."""
    spacing, puncture, rtol = 0.02, 0.05, 1e-10
    A = sep.compute_A()
    lo, hi = re_range[0], re_range[1] + spacing / 2
    xs = [lo + k * spacing for k in range(math.ceil((hi - lo) / spacing))]
    ims = [spacing + k * spacing
           for k in range(math.ceil((A - 5e-3 - spacing) / spacing))]
    y0 = [complex(sep.lambda0()), 0j]
    if carry:
        halves = ([x for x in xs if x >= 0.0], [x for x in xs[::-1] if x < 0.0])
    else:
        halves = [[x] for x in xs]
    bases = {}
    for half in halves:
        bases.update(zip(half, _pend_legs(0j, [complex(x) for x in half], y0,
                                          rtol, carry)))
    best = math.inf
    for x in xs:
        base = complex(x, 0.0)
        samples = [(base, bases[x])]
        for sign in (1.0, -1.0):
            column = [complex(x, sign * v) for v in ims]
            samples += zip(column, _pend_legs(base, column, bases[x], rtol,
                                              carry))
        for t, y in samples:
            if (abs(t) < puncture or abs(t - 1j * A) < puncture
                    or abs(t + 1j * A) < puncture):
                continue
            best = min(best, abs(y[1]))
    return best


def test_zero_scan_matches_sweeps_from_origin():
    # (-0.3, 0.3) covers the punctures at 0 and +-iA; the scan integrates
    # only the upper half, the reference both
    re_range = (-0.3, 0.3)
    scan = sep.check_zero_of_Lambda(re_range=re_range)
    assert scan == _zero_scan_reference(re_range, carry=True)
    # the carried steps keep the minimum within 20 x rtol of cold legs
    cold = _zero_scan_reference(re_range, carry=False)
    assert scan != cold
    assert abs(scan - cold) <= 20 * 1e-10 * cold


def test_zero_scan_work_pinned(monkeypatch):
    # warm-started legs, chained base points and the upper half only;
    # integrating the lower half too took 526 legs, 776 steps, 42
    # rejections and 10,406 field calls, and with cold legs and one base
    # leg from t = 0 per column, 1,834 steps, 48 rejections and 23,636
    # field calls
    legs, field_calls = [], []
    plain_leg, plain_rhs = numerics.integrate_ode, sep.pend_rhs

    def leg(*args, **kwargs):
        res = plain_leg(*args, **kwargs)
        legs.append(res)
        return res

    def rhs(lam, Lam):
        field_calls.append(lam)
        return plain_rhs(lam, Lam)

    monkeypatch.setattr(numerics, "integrate_ode", leg)
    monkeypatch.setattr(sep, "pend_rhs", rhs)
    sep.check_zero_of_Lambda(re_range=(-0.3, 0.3))
    counts = (len(legs), sum(r.steps for r in legs),
              sum(r.rejected for r in legs), len(field_calls))
    assert counts == (278, 407, 21, 5447)


def _bits(z):
    # the bits of both parts, but for the sign of a zero: on the imaginary
    # axis lambda is real, and its imaginary part comes out as +0.0 on
    # both columns, which conjugation turns into -0.0 on one
    return (z.real + 0.0).hex(), (z.imag + 0.0).hex()


# (-0.3, 0.3) and the zero-scan ranges of seeds 1 and 3 of the
# continuation benchmark
@pytest.mark.parametrize("re_range", [
    (-0.3, 0.3),
    (-1.4881783752997433, 1.5118216247002567),
    (-1.9143508328563756, 1.0856491671436244),
], ids=["punctures", "seed_1", "seed_3"])
def test_lower_column_is_conjugate_of_upper(re_range):
    # sigma(conj t) = conj sigma(t) bit for bit on the scan's grid, which
    # is what lets check_zero_of_Lambda integrate only the upper half
    A = sep.compute_A()
    xs = sep._grid(re_range[0], re_range[1] + 0.01, 0.02)
    ims = sep._grid(0.02, A - 5e-3, 0.02)
    bases = {}
    for half in ([x for x in xs if x >= 0.0], [x for x in xs[::-1] if x < 0.0]):
        bases.update(zip(half, numerics.integrate_chain(
            sep._pend_field, 0.0, half, (sep.lambda0(), 0.0),
            rtol=1e-10, atol=1e-14)))
    compared = 0
    for x in xs:
        assert [v.imag for v in bases[x]] == [0.0, 0.0]
        upper, lower = (numerics.integrate_chain(
            sep._pend_field, complex(x, 0.0),
            [complex(x, sign * v) for v in ims], bases[x],
            rtol=1e-10, atol=1e-14) for sign in (1.0, -1.0))
        for up, down in zip(upper, lower):
            assert [_bits(v.conjugate()) for v in up] == [_bits(v) for v in down]
            compared += 1
    assert compared == len(xs) * len(ims)


@pytest.mark.parametrize("re_range", [(-0.3, 11.0), (-11.0, 0.3),
                                      (-1e9, 1e9)],
                         ids=["right_11", "left_11", "both_1e9"])
def test_zero_scan_refuses_reach_beyond_10(monkeypatch, re_range):
    # refused before the grid is built: (-1e9, 1e9) would ask for 1e11
    # points
    def no_grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(sep, "_grid", no_grid)
    with pytest.raises(ValueError, match="10"):
        sep.check_zero_of_Lambda(re_range=re_range)


@pytest.mark.parametrize("re_range", [(1.5, -1.5), (0.2, 0.2),
                                      (-1.5, math.inf)],
                         ids=["reversed_range", "empty_range",
                              "infinite_range"])
def test_zero_scan_rejects_empty_grid(re_range):
    with pytest.raises(ValueError):
        sep.check_zero_of_Lambda(re_range=re_range)


def test_alpha_plus_matches_continuation():
    # Lambda_h(i(A - s)) ~ -(2 alpha_+/3) (-i s)^(-1/3)
    a = sep.compute_A(tol=1e-12)
    s = 1e-3
    st = sep.sigma_sweep([1j * (a - s)])[0]
    w = (-1j * s) ** (-1.0 / 3.0)
    alpha_est = st.Lam / (-2.0 / 3.0 * w)
    assert abs(alpha_est - sep.ALPHA_PLUS) < 0.02
