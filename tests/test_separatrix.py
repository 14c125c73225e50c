import cmath
import math

import numpy as np
import pytest

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
    # below the 1e-13 floor, and NaN, which fails the same comparison
    for tol in (1e-14, math.nan):
        with pytest.raises(ValueError, match="tol must be >= 1e-13"):
            sep.compute_A(tol=tol)


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


def test_t_star_infinity():
    t2 = sep.t_star("infinity_upper")
    assert abs(t2 - (-0.086697 - 0.969516j)) < 1e-4
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


def test_t_star_homotopy_invariance(monkeypatch):
    # up to just under a+ = 0.2071: from 1 - a+ on, the arc around q = 1
    # encloses a+ and ends on another sheet
    kinds = ("zero_upper", "infinity_upper")
    at_default = [sep.t_star(kind) for kind in kinds]
    for detour in (5e-3, 0.2):
        monkeypatch.setattr(sep, "_DETOUR", detour)
        for kind, t_a in zip(kinds, at_default):
            assert abs(t_a - sep.t_star(kind)) <= 1e-12


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
], ids=["zero", "zero_wide", "infinity", "infinity_wide"])
def test_path_segments_join(path):
    # the factor arguments are chained from each segment's end to the next
    # segment's start, and start from 0 at a+
    assert path[0].start == sep.A_PLUS
    for seg in path:
        assert isinstance(seg, (Line, Arc))
        assert 0.0 < seg.length() < math.inf
    for prev, seg in zip(path, path[1:]):
        assert abs(seg.start - prev.end) <= 1e-15


def _conj_path(path):
    # the mirror image of a q-plane path under complex conjugation
    return tuple(Line(seg.a.conjugate(), seg.b.conjugate())
                 if isinstance(seg, Line)
                 else Arc(seg.center.conjugate(), seg.radius,
                          -seg.phi_start, -seg.phi_end)
                 for seg in path)


@pytest.mark.parametrize("detour", [1e-3, 5e-3])
@pytest.mark.parametrize("family", ["zero", "infinity"])
def test_t_star_lower_is_the_conjugate_path_integral(monkeypatch, family,
                                                     detour):
    # t_star conjugates its upper kind; integrate the lower path itself
    monkeypatch.setattr(sep, "_DETOUR", detour)
    make = sep._zero_path if family == "zero" else sep._infinity_path
    upper = make(detour)
    lower = _conj_path(upper)
    assert lower[0].start == sep.A_PLUS
    for prev, seg in zip(lower, lower[1:]):
        assert abs(seg.start - prev.end) <= 1e-15
    for a, b in zip(upper, lower):
        assert abs(b.start - a.start.conjugate()) <= 1e-15
        assert abs(b.end - a.end.conjugate()) <= 1e-15
    value = sep._integrate_fhat(lower, sep._T_STAR_TOL).value
    if family == "infinity":
        value += 1.0 / (math.sqrt(3.0) * sep._R_MAX)
    assert value.imag > 0.0
    assert sep.t_star(family + "_lower") == value


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


def test_zero_scan_of_momentum():
    min_abs = sep.check_zero_of_Lambda()
    assert min_abs > 0.05
    st = sep.sigma_sweep([0.0 + 0.0j])[0]
    assert abs(st.Lam) < 1e-10


def _pend_legs(start, points, y0):
    """The separatrix field through ``points`` at rtol 1e-10, one
    integrate_ode leg each; every leg after the first starts from the step
    the leg before it proposed."""
    states, y, h, prev = [], y0, None, start
    for t in points:
        if t != prev:
            res = numerics.integrate_ode(sep._pend_field, prev, t, y,
                                         rtol=1e-10, atol=1e-14,
                                         _first_step=h)
            y, h, prev = res.y_end, res.next_step, t
        states.append(y)
    return states


def _scan_grid(re_range):
    """The 0.02 grid of :func:`_zero_scan_reference`: columns and rows."""
    A = sep.compute_A()
    lo, hi = re_range[0], re_range[1] + 0.01
    return ([lo + k * 0.02 for k in range(math.ceil((hi - lo) / 0.02))],
            [0.02 + k * 0.02 for k in range(math.ceil((A - 0.025) / 0.02))])


def _zero_scan_reference(re_range):
    """min |Lambda| over the 0.02 grid on both halves of the strip, without
    the disks of radius 0.05 around 0 and +-iA, from test-side legs: the
    base points are two chains out from t = 0 along the real axis, and each
    column is integrated up and down from its base point."""
    A = sep.compute_A()
    xs, ims = _scan_grid(re_range)
    y0 = [complex(sep.lambda0()), 0j]
    bases = {}
    for half in ([x for x in xs if x >= 0.0], [x for x in xs[::-1] if x < 0.0]):
        bases.update(zip(half, _pend_legs(0j, [complex(x) for x in half], y0)))
    best = math.inf
    for x in xs:
        base = complex(x, 0.0)
        samples = [(base, bases[x])]
        for sign in (1.0, -1.0):
            column = [complex(x, sign * v) for v in ims]
            samples += zip(column, _pend_legs(base, column, bases[x]))
        for t, y in samples:
            if min(abs(t), abs(t - 1j * A), abs(t + 1j * A)) < 0.05:
                continue
            best = min(best, abs(y[1]))
    return best


def _chained_bases(xs, rtol=1e-10):
    """Base states on the real axis: two chains out from t = 0."""
    bases = {}
    for half in ([x for x in xs if x >= 0.0], [x for x in xs[::-1] if x < 0.0]):
        bases.update(zip(half, numerics.integrate_chain(
            sep._pend_field, 0.0, half, (sep.lambda0(), 0.0),
            rtol=rtol, atol=1e-14)))
    return bases


# the zero-scan ranges of seeds 1 and 3 of the continuation benchmark
SEED_1 = (-1.4881783752997433, 1.5118216247002567)
SEED_3 = (-1.9143508328563756, 1.0856491671436244)


def test_zero_scan_matches_sweeps_from_origin():
    # on these ranges the grid's minimum sits on a real corner of the
    # rectangle, which the walk samples too
    for re_range in [(-1.5, 1.5), SEED_1, SEED_3]:
        walk = sep.check_zero_of_Lambda(re_range=re_range)
        grid = _zero_scan_reference(re_range)
        assert abs(walk - grid) <= 20 * 1e-10 * grid
    # the grid never sampled the half circle around t = 0, where |Lambda|
    # is smallest on this range
    walk = sep.check_zero_of_Lambda(re_range=(-0.3, 0.3))
    assert walk < _zero_scan_reference((-0.3, 0.3))
    assert abs(walk - 0.25588545114) < 1e-10


# widths that are multiples of 0.02, so that the grid's first and last
# columns and its top row lie on the rectangle's boundary, at the walk's
# samples.  Past |Re t| = 3 the grid itself drifts from rtol-1e-13 legs by
# more than 20 x rtol (6.2e-9 at |Re t| = 4, as the saddle amplifies the
# integration error like |Lambda|^-2), so the comparison stops there.
@pytest.mark.parametrize("re_range", [
    (-1.5, 1.5), (-2.0, 1.0), (-1.0, 2.0), (-0.3, 0.3), (-0.05, 0.05),
    (-0.5, 2.5), (-3.0, 3.0),
], ids=lambda r: f"{r[0]:g}_{r[1]:g}")
def test_zero_scan_is_never_above_the_grid(re_range):
    # minimum modulus: the grid samples the rectangle minus the disk, whose
    # smallest |Lambda| lies on the boundary the walk samples
    walk = sep.check_zero_of_Lambda(re_range=re_range)
    grid = _zero_scan_reference(re_range)
    assert walk <= grid * (1.0 + 20 * 1e-10)


def test_zero_scan_mirror_image_is_the_same_walk():
    # |Lambda| is symmetric under t -> -conj(t); the scan walks the image
    # whose farther end is on the left
    assert (sep.check_zero_of_Lambda(re_range=(-1.0, 2.0))
            == sep.check_zero_of_Lambda(re_range=(-2.0, 1.0)))


@pytest.mark.parametrize("t0, match", [
    (0.5 + 0.08j, "outer sides of .* count 3.0"),
    (0.02 + 0.02j, "half circle of .* count 3.0"),
    (0.5 + 0.157j, "outer sides of .* up to [1-3]"),
], ids=["between", "inside_circle", "near_top"])
def test_zero_scan_refuses_a_wrong_count(monkeypatch, t0, match):
    # Lambda times (t - t0)(t - conj t0), real on the real axis, has a pair
    # of zeros more: one in the upper half of the rectangle minus the disk,
    # or of the disk; one 0.003 under the top side turns arg Lambda by
    # nearly pi between two samples
    plain_chain = numerics.integrate_chain

    def chain(field, start, points, y0, **kwargs):
        ys = plain_chain(field, start, points, y0, **kwargs)
        return [[y[0], y[1] * (t - t0) * (t - t0.conjugate())]
                for t, y in zip(points, ys)]

    monkeypatch.setattr(sep, "integrate_chain", chain)
    with pytest.raises(sep.ZeroCountRejected, match=match) as info:
        sep.check_zero_of_Lambda(re_range=(-1.0, 1.0))
    assert isinstance(info.value, numerics.L3labError)


def test_zero_scan_work_pinned(monkeypatch):
    # one chain of warm-started legs around the half circle and the upper
    # outer sides.  The 0.02 grid took 61 legs, 255 steps, 73 rejections
    # and 4,465 field calls with one leg per upper column and its rows
    # read from the dense output; 278 legs, 407 steps, 21 rejections and
    # 5,447 field calls with one leg per row; integrating the lower half
    # too, 526 legs, 776 steps, 42 rejections and 10,406 field calls; and
    # with cold legs and one base leg from t = 0 per column on both halves,
    # 1,834 steps, 48 rejections and 23,636 field calls
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
    assert counts == (76, 108, 7, 1457)


def _bits(z):
    # the bits of both parts, but for the sign of a zero: on the imaginary
    # axis lambda is real, and its imaginary part comes out as +0.0 on
    # both columns, which conjugation turns into -0.0 on one
    return (z.real + 0.0).hex(), (z.imag + 0.0).hex()


# (-0.3, 0.3) and the zero-scan ranges of seeds 1 and 3 of the
# continuation benchmark
@pytest.mark.parametrize("re_range", [(-0.3, 0.3), SEED_1, SEED_3],
                         ids=["punctures", "seed_1", "seed_3"])
def test_lower_column_is_conjugate_of_upper(re_range):
    # sigma(conj t) = conj sigma(t) bit for bit, which is what lets
    # check_zero_of_Lambda walk only the upper half of its contours: on the
    # columns of the 0.02 grid, one leg per row, and on the walk's chain
    xs, ims = _scan_grid(re_range)
    bases = _chained_bases(xs)
    pairs = []
    for x in xs:
        assert [v.imag for v in bases[x]] == [0.0, 0.0]
        upper, lower = (numerics.integrate_chain(
            sep._pend_field, complex(x, 0.0),
            [complex(x, sign * v) for v in ims], bases[x],
            rtol=1e-10, atol=1e-14) for sign in (1.0, -1.0))
        pairs += zip(upper, lower)
    assert len(pairs) == len(xs) * len(ims)
    points = sep._scan_walk(*re_range)[0]
    upper, lower = (numerics.integrate_chain(
        sep._pend_field, 0.0, path, (sep.lambda0(), 0.0), rtol=1e-10,
        atol=1e-14) for path in (points, [t.conjugate() for t in points]))
    pairs += zip(upper, lower)
    for up, down in pairs:
        assert [_bits(v.conjugate()) for v in up] == [_bits(v) for v in down]


@pytest.mark.parametrize("re_range", [(-0.3, 7.0), (-7.0, 0.3),
                                      (-0.3, 11.0), (-11.0, 0.3),
                                      (-1e9, 1e9)],
                         ids=["right_7", "left_7", "right_11", "left_11",
                              "both_1e9"])
def test_zero_scan_refuses_reach_beyond_6(monkeypatch, re_range):
    # refused before the walk is built: (-1e9, 1e9) would ask for 1e11
    # points
    def no_walk(*args):
        raise AssertionError("the walk was built")

    monkeypatch.setattr(sep, "_scan_walk", no_walk)
    with pytest.raises(ValueError, match=r"\|Re t\| <= 6,"):
        sep.check_zero_of_Lambda(re_range=re_range)


@pytest.mark.parametrize("re_range", [(1.5, -1.5), (0.2, 0.2),
                                      (-1.5, math.inf), (-0.04, 1.0),
                                      (-1.0, 0.04)],
                         ids=["reversed_range", "empty_range",
                              "infinite_range", "disk_left", "disk_right"])
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
