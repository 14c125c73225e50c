import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3lab import separatrix as sep
from l3lab.numerics import find_root

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


def test_t_star_homotopy_invariance():
    tol = 1e-9
    t_a = sep.t_star("zero_upper", detour=1e-3, tol=tol)
    t_b = sep.t_star("zero_upper", detour=5e-3, tol=tol)
    assert abs(t_a - t_b) <= 10 * tol


@settings(max_examples=5, deadline=None)
@given(st.floats(1e-3, 5e-3))
def test_t_star_upper_and_lower_are_conjugate(detour):
    upper = sep.t_star("zero_upper", detour=detour)
    lower = sep.t_star("zero_lower", detour=detour)
    assert abs(upper - lower.conjugate()) <= 1e-12


def test_branched_point_sign_flip():
    bp = sep.BranchedPoint(q=0.5 + 0.2j, accumulated_args=(0.1, 0.2, 0.3, 0.4))
    base = sep.fhat_at(bp)
    for k in range(4):
        args = list(bp.accumulated_args)
        args[k] += 2.0 * math.pi
        flipped = sep.fhat_at(sep.BranchedPoint(bp.q, tuple(args)))
        assert abs(flipped + base) < 1e-15 * abs(base)


def test_sigma_real_axis():
    for t in (-10.0, -3.0, 0.5, 3.0, 10.0):
        st = sep.sigma(float(t))
        q = cmath.cos(st.lam / 2.0)
        assert abs(q.imag) < 1e-10
        assert sep.A_PLUS - 1e-10 <= q.real < 1.0
    st = sep.sigma(0.0 + 0.0j)
    assert abs(st.lam - sep.lambda0()) < 1e-14 and abs(st.Lam) < 1e-14


def test_sigma_momentum_odd():
    for t in (0.7, 1.2, 2.5):
        plus = sep.sigma(float(t))
        minus = sep.sigma(float(-t))
        assert abs(plus.Lam + minus.Lam) <= 1e-9
        assert abs(plus.lam - minus.lam) <= 1e-9


def test_sigma_complex_energy():
    # inside the strip the continuation stays real on the imaginary axis
    st = sep.sigma(0.12j)
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
        st = sep.sigma(float(t))
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
    st = sep.sigma(0.0 + 0.0j)
    assert abs(st.Lam) < 1e-10


def test_zero_scan_matches_sweeps_from_origin():
    # the former scan: per column, one sweep from t = 0 to the real point and
    # one from t = 0 through x up each half column; (-0.3, 0.3) covers the
    # punctures at 0 and +-iA
    re_range, spacing, puncture, rtol = (-0.3, 0.3), 0.02, 0.05, 1e-10
    A = sep.compute_A()
    ims = np.arange(spacing, A - 5e-3, spacing)
    best = math.inf
    for x in np.arange(re_range[0], re_range[1] + spacing / 2, spacing):
        base = complex(x, 0.0)
        for sign in (0.0, 1.0, -1.0):
            chain = [base] + [complex(x, sign * v) for v in ims if sign]
            for t, st in zip(chain, sep.sigma_sweep(chain, rtol=rtol)):
                if (abs(t) < puncture or abs(t - 1j * A) < puncture
                        or abs(t + 1j * A) < puncture):
                    continue
                best = min(best, abs(st.Lam))
    assert sep.check_zero_of_Lambda(re_range=re_range) == best


@pytest.mark.parametrize("kwargs", [
    {"spacing": -0.01},
    {"spacing": 0.0},
    {"spacing": math.nan},
    {"re_range": (1.5, -1.5)},
    {"re_range": (0.2, 0.2)},
    {"re_range": (-1.5, math.inf)},
], ids=["negative_spacing", "zero_spacing", "nan_spacing", "reversed_range",
        "empty_range", "infinite_range"])
def test_zero_scan_rejects_empty_grid(kwargs):
    with pytest.raises(ValueError):
        sep.check_zero_of_Lambda(**kwargs)


def test_alpha_plus_matches_continuation():
    # Lambda_h(i(A - s)) ~ -(2 alpha_+/3) (-i s)^(-1/3)
    a = sep.compute_A(tol=1e-12)
    s = 1e-3
    st = sep.sigma(1j * (a - s))
    w = (-1j * s) ** (-1.0 / 3.0)
    alpha_est = st.Lam / (-2.0 / 3.0 * w)
    assert abs(alpha_est - sep.ALPHA_PLUS) < 0.02
