import cmath
import math
import random

import numpy as np
import pytest

from l3lab import inner, numerics, rpc3bp, separatrix


def test_J_at_origin_of_Z():
    for U in (-10j, 5.0 - 3.0j, -40.0 - 2.0j):
        assert abs(inner.J(U, (0.0, 0.0, 0.0)) - 16.0 / (81.0 * U * U)) < 1e-15


def test_K_expression_tree_oracle():
    # independent composition from primitive operations at U = -10i
    U = -10j
    val = inner.K(U, (0.0, 0.0, 0.0))
    u23 = inner.cbrt_inner(U) ** 2
    j = 16.0 / (81.0 * U * U)
    oracle = -(1.0 / (3.0 * u23)) * (1.0 / cmath.sqrt(1.0 + j) - 1.0)
    assert abs(val - oracle) <= 1e-14


def test_J_conjugation_symmetry():
    # branch-consistent region: U and conj(U) on the same sheet, so sample
    # arguments in (-pi/2, 0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        U = rng.uniform(2.0, 50.0) * cmath.exp(1j * rng.uniform(-1.4, -0.1))
        W, X, Y = (0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
                   for _ in range(3))
        lhs = inner.J(U, (W, X, Y)).conjugate()
        rhs = inner.J(U.conjugate(),
                      (W.conjugate(), Y.conjugate(), X.conjugate()))
        assert abs(lhs - rhs) < 1e-13


def test_branch_powers():
    for U in (3.0 - 0.0j, -7.0 - 0.001j, -11j, 2.0 - 9.0j, -5.0 - 5.0j):
        u13, u23, u43 = inner.inner_powers(U)
        assert u13 * u13 == u23            # exact, same products
        assert u23 * u23 == u43
        assert abs(u13 ** 3 - U) < 1e-13 * abs(U)
    # positive real axis gives positive real roots
    u13, u23, u43 = inner.inner_powers(64.0 + 0.0j)
    assert abs(u13 - 4.0) < 1e-14 and abs(u23 - 16.0) < 1e-13
    # continuity onto the negative real axis from below
    below = inner.cbrt_inner(-8.0 - 1e-12j)
    limit = 2.0 * cmath.exp(-1j * math.pi / 3.0)
    assert abs(below - limit) < 1e-9
    with pytest.raises(inner.NearBranchCut):
        inner.cbrt_inner(5j)


def test_grad_examples_and_gate():
    U = -5j
    exact = inner.grad_K(U, (0.0, 0.0, 0.0))
    fd = inner.grad_K_fd(U, (0.0, 0.0, 0.0))
    assert abs(exact[1] - fd[1]) <= 1e-7 * max(abs(fd[1]), 1e-12)
    # dK/dX and dK/dY are nonzero at Z = 0 and scale like |U|^(-4/3)
    for mag in (5.0, 20.0, 80.0):
        g = inner.grad_K(-1j * mag, (0.0, 0.0, 0.0))
        assert abs(g[2]) > 0.05 * mag ** (-4.0 / 3.0)
        assert abs(g[3]) > 0.05 * mag ** (-4.0 / 3.0)
    rng = np.random.default_rng(42)
    for _ in range(50):
        U = rng.uniform(3.0, 100.0) * cmath.exp(
            1j * rng.uniform(-1.4 * math.pi, 0.45 * math.pi))
        Z = tuple(0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
                  for _ in range(3))
        for a, b in zip(inner.grad_K(U, Z), inner.grad_K_fd(U, Z)):
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-12)


def test_graph_rhs_linear_part():
    # subtracting the linear part at Z = 0 leaves the inhomogeneity R[0]
    U = -35.0 - 9.0j
    r0 = inner.graph_rhs(U, (0.0, 0.0, 0.0))
    assert abs(r0[1]) < 2.0 * abs(U) ** (-4.0 / 3.0)
    assert abs(r0[1]) > 0.05 * abs(U) ** (-4.0 / 3.0)


def test_remainder_decay_orders():
    # R[Z] = rhs - A Z at the series: components decay like U^(-11/3), U^(-4/3)
    mags = np.geomspace(30.0, 300.0, 6)
    r1, r2 = [], []
    for m in mags:
        U = complex(m)
        z = inner.series_Z(U).as_tuple()
        rhs = inner.graph_rhs(U, z)
        az = (0.0, 1j * z[1], -1j * z[2])
        r1.append(abs(rhs[0] - az[0]))
        r2.append(abs(rhs[1] - az[1]))
    s1 = np.polyfit(np.log(mags), np.log(r1), 1)[0]
    s2 = np.polyfit(np.log(mags), np.log(r2), 1)[0]
    assert abs(s1 + 11.0 / 3.0) < 0.3
    assert abs(s2 + 4.0 / 3.0) < 0.3


def test_series_conjugate_structure():
    z = inner.series_Z(200.0 + 0.0j)
    assert abs(z.Y - z.X.conjugate()) < 1e-18
    with pytest.raises(inner.TooClose):
        inner.series_Z(10.0)


# J in powers of v = U^(-1/3): (coefficient, powers of v, W, X, Y)
_J_MONOMIALS = [
    (4 / 9, 2, 2, 0, 0), (-16 / 27, 4, 1, 0, 0), (16 / 81, 6, 0, 0, 0),
    (4 / 9, 3, 1, 1, 0), (4 / 9, 3, 1, 0, 1), (-8 / 27, 5, 0, 1, 0),
    (-8 / 27, 5, 0, 0, 1), (-4j / 3, 2, 0, 1, 0), (4j / 3, 2, 0, 0, 1),
    (-1 / 3, 4, 0, 2, 0), (-1 / 3, 4, 0, 0, 2), (10 / 9, 4, 0, 1, 1),
]


def _series_fixed_point(n):
    """W, X, Y coefficients in v through v^n (W through v^(n-3)).

    Iterates (1 + K_W) Z' = A Z + (-K_U, i K_Y, -i K_X) on truncated power
    series in floating point, with the partials of
    K = -(3/4) v^-2 W^2 - (v^2/3) ((1 + J)^(-1/2) - 1) taken term by term
    from the monomials of J rather than from inner.grad_K.
    """
    def mul(a, b):
        return np.convolve(a, b)[:n + 1]

    def shift(a, k):  # times v^k; for k < 0 the top |k| terms are lost
        out = np.zeros(n + 1, complex)
        if k >= 0:
            out[k:] = a[:n + 1 - k]
        else:
            out[:n + 1 + k] = a[-k:]
        return out

    def one_plus_pow(j, alpha):  # (1 + j)^alpha for j without constant term
        out, term, coef = np.zeros(n + 1, complex), one, 1.0
        for k in range(n + 1):
            out = out + coef * term
            coef *= (alpha - k) / (k + 1)
            term = mul(term, j)
        return out

    def J_part(z, d=None):  # J, or its partial along (v, W, X, Y)[d]
        out = np.zeros(n + 1, complex)
        for c, *p in _J_MONOMIALS:
            if d is not None:
                if p[d] == 0:
                    continue
                c, p[d] = c * p[d], p[d] - 1
            term = c * np.eye(1, n + 1, p[0])[0]
            for s, k in zip(z, p[1:]):
                for _ in range(k):
                    term = mul(term, s)
            out += term
        return out

    one = np.eye(1, n + 1)[0]
    m = np.arange(n + 1)
    W = X = Y = np.zeros(n + 1, complex)
    for _ in range(n):
        z = (W, X, Y)
        J = J_part(z)
        S3 = one_plus_pow(J, -1.5)
        S_minus_1 = one_plus_pow(J, -0.5) - one
        K_W, K_X, K_Y = (shift(mul(S3, J_part(z, d)), 2) / 6
                         for d in (1, 2, 3))
        K_W = K_W - 1.5 * shift(W, -2)
        # d/dU = -(v^4/3) d/dv, at fixed Z for K_U
        K_U = (-0.5 * shift(mul(W, W), 1) + 2 / 9 * shift(S_minus_1, 5)
               - shift(mul(S3, J_part(z, 0)), 6) / 18)
        D = K_W + one
        X_new = -1j * mul(D, shift(-m / 3 * X, 3)) - K_Y
        Y_new = 1j * mul(D, shift(-m / 3 * Y, 3)) - K_X
        # W' = -K_U / (1 + K_W), so m W_m = 3 [K_U / (1 + K_W)]_(m+3)
        q = mul(K_U, one_plus_pow(K_W, -1.0))
        W_new = np.zeros(n + 1, complex)
        W_new[1:n - 2] = 3 * q[4:n + 1] / m[1:n - 2]
        if (np.array_equal(W_new, W) and np.array_equal(X_new, X)
                and np.array_equal(Y_new, Y)):
            return W, X, Y
        W, X, Y = W_new, X_new, Y_new
    raise AssertionError("series fixed point did not settle")


def test_series_coefficients_rederived():
    W, X, Y = _series_fixed_point(92)
    for series, derived, top in ((inner._W_SERIES, W, 86),
                                 (inner._X_SERIES, X, 88),
                                 (inner._Y_SERIES, Y, 88)):
        assert max(series) == top
        stored = np.zeros(top + 1, complex)
        for power, c in series.items():
            stored[power] = c
        # powers absent from the table vanish by cancellation, so they are
        # measured against the largest coefficient below them
        scale = np.where(stored != 0, np.abs(stored),
                         np.maximum.accumulate(np.abs(stored)))
        assert np.all(np.abs(derived[:top + 1] - stored) <= 1e-12 * scale)


def test_series_structure():
    # exact zeros off the powers W^(8+6k) and X^(4+3k), Y^(4+3k): the float
    # fixed point above leaves noise there (about 1e-16 relative at W^29,
    # W^35, ...), so the table's keys are checked exactly here
    assert list(inner._W_SERIES) == list(range(8, 87, 6))
    assert list(inner._X_SERIES) == list(range(4, 89, 3))
    assert inner._Y_SERIES == {m: c.conjugate()
                               for m, c in inner._X_SERIES.items()}
    # W is real; X is imaginary at v^(4+6k) and real at v^(7+6k)
    assert all(type(c) is float for c in inner._W_SERIES.values())
    for m, c in inner._X_SERIES.items():
        assert (c.real if m % 6 == 4 else c.imag) == 0.0
    # series_Z keeps the terms through v^40, the seed all of them
    assert inner._SEED_SERIES == (inner._W_SERIES, inner._X_SERIES,
                                  inner._Y_SERIES)
    for kept, full in zip(inner._SERIES, inner._SEED_SERIES):
        assert kept == {m: c for m, c in full.items() if m <= 40}


def _seed_Z(U):
    return inner._series_state(U, inner._SEED_SERIES).as_tuple()


def test_series_residual_at_seed_point():
    for rho in (8.0, 13.0, 20.0, 30.0):
        for re in (-inner.RE_START, inner.RE_START):
            U = complex(re, -rho)
            assert inner._residual(U, inner._SEED_SERIES) < 1e-17


def _shot_from(monkeypatch, re_start, rho):
    """The unstable state at -i rho, shot from Re U = -re_start."""
    with monkeypatch.context() as m:
        m.setattr(inner, "RE_START", re_start)
        return inner.shoot(rho, [-1j * rho])[0]


def _theta_seeded_at(monkeypatch, rho, re_start):
    """theta_rho = |Y^u - Y^s|(-i rho) e^rho, shot from Re U = -re_start."""
    u = _shot_from(monkeypatch, re_start, rho)
    return abs(u.Y - inner.mirror(u).Y) * math.exp(rho)


def test_theta_near_seed_matches_far_seed(monkeypatch):
    grid = [13.0, 20.0]
    near = inner.theta_table(grid)
    for rho, rec in zip(grid, near):
        far = _theta_seeded_at(monkeypatch, rho, 1000.0)
        assert abs(rec.theta - far) <= 1e-6


def test_series_residual_order():
    # the first dropped X/Y power is v^43; above |U| = 100 the residual
    # sinks into the round-off floor
    us = np.geomspace(30.0, 100.0, 7)
    res = [inner.series_residual(float(u)) for u in us]
    slope = np.polyfit(np.log(us), np.log(res), 1)[0]
    assert abs(slope + 43.0 / 3.0) <= 0.25


def test_shoot_bounds_and_cancellation():
    points = [complex(x, -13.0) for x in (-900.0, -500.0, -100.0, -30.0, 0.0)]
    for U, z in zip(points, inner.shoot(13.0, points)):
        bound = abs(U ** (4.0 / 3.0) * z.X)
        assert bound <= 1.0
    [zu] = inner.shoot(13.0, [-13j])
    zs = inner.mirror(zu)
    # leading digits of Y coincide before differencing (cancellation depth
    # log10 |Y|/|dY| ~ 3.3 at rho = 13, growing with rho)
    ratio = abs(zu.Y - zs.Y) / abs(zu.Y)
    assert ratio < 1e-3
    # the W difference sits at the chi_1-suppressed scale Theta e^-13 13^(-7/3)
    dw_scale = 1.63 * math.exp(-13.0) * 13.0 ** (-7.0 / 3.0)
    assert abs(zu.W - zs.W) <= 10.0 * dw_scale


def test_shoot_tail_insensitive_to_seed_location(monkeypatch):
    y1 = _shot_from(monkeypatch, 1000.0, 13.0).Y
    y2 = _shot_from(monkeypatch, 2000.0, 13.0).Y
    assert abs(y1 - y2) < 1e-13


def test_theta_reference_row():
    rec = inner.theta(13.0)
    assert abs(rec.theta - 1.6373) <= 5e-3
    assert rec.digits_lost > 3.0


def test_theta_invariances(monkeypatch):
    base = inner.theta(13.0).theta
    with monkeypatch.context() as m:
        m.setattr(inner, "_RTOL", 1e-13)
        [tight] = inner.theta_table([13.0])
    far = _theta_seeded_at(monkeypatch, 13.0, 2000.0)
    assert abs(tight.theta - base) < 5e-3
    assert abs(far - base) < 5e-3


def test_theta_refuses_precision_loss(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(inner, "_RTOL", 1e-6)
        with pytest.raises(inner.PrecisionLoss, match="rho = 13.0"):
            inner.theta_table([13.0])
    # at rtol 1e-12 the table refuses rows 23-30 and keeps 8-22
    # (per_row_theta below); it raises for the smallest refused rho,
    # whatever the order of the grid
    deep = [float(r) for r in range(23, 31)]
    for grid in (deep, deep[::-1], [27.0, 30.0, 23.0, 25.0, 24.0, 29.0,
                                    26.0, 28.0], [30.0, 13.0, 24.0, 23.0]):
        with pytest.raises(inner.PrecisionLoss, match=r"rho = 23\.0$"):
            inner.theta_table(grid)
    with pytest.raises(inner.PrecisionLoss, match="rho = 25.0"):
        inner.theta(25.0)


def test_theta_plateau_off_integer_grid():
    vals = [inner.theta(r).theta for r in (14.0, 14.5, 19.5, 20.0)]
    assert max(vals) - min(vals) <= 1e-2


@pytest.fixture(scope="module")
def per_row_theta():
    # theta shoots each row on its own: the table's one-row case
    return {rho: inner.theta(rho) for rho in map(float, range(8, 23))}


def test_theta_table_check_10_grid_matches_per_row_shootings(per_row_theta):
    grid = [float(r) for r in range(13, 21)]
    for rho, rec in zip(grid, inner.theta_table(grid)):
        assert rec.rho == rho
        assert abs(rec.theta - per_row_theta[rho].theta) <= 1e-7


def test_theta_table_across_anchors_matches_per_row_shootings(per_row_theta):
    grid = [float(r) for r in range(8, 23)]
    recs = inner.theta_table(grid)
    for rho, rec in zip(grid, recs):
        assert abs(rec.theta - per_row_theta[rho].theta) <= 1e-6
    # each anchor row is shot exactly as theta shoots it
    for rec in (recs[0], recs[8]):
        ref = per_row_theta[rec.rho]
        assert (rec.y_unstable, rec.y_stable) == (ref.y_unstable, ref.y_stable)


def test_theta_table_first_row_is_theta():
    ref = inner.theta(13.0)
    rec = inner.theta_table([13.0, 14.0, 20.0])[0]
    assert rec == ref


def test_theta_table_keeps_input_order_and_duplicates():
    ordered = inner.theta_table([13.0, 15.0, 20.0])
    shuffled = inner.theta_table([20.0, 13.0, 15.0, 13.0, 20.0])
    assert [r.rho for r in shuffled] == [20.0, 13.0, 15.0, 13.0, 20.0]
    assert shuffled == [ordered[2], ordered[0], ordered[1], ordered[0],
                        ordered[2]]


def test_theta_table_empty():
    assert inner.theta_table([]) == []


@pytest.mark.parametrize("grid", [[13.0, 31.0], [7.9], [13.0, math.nan]])
def test_theta_table_rejects_rho_before_integration(grid, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrated before rejecting the grid")
    monkeypatch.setattr(numerics, "integrate_ode", fail)
    with pytest.raises(ValueError, match="rho"):
        inner.theta_table(grid)


def test_theta_table_legs(monkeypatch):
    legs = []
    real = numerics.integrate_ode

    def record(field, a, b, *args, **kwargs):
        legs.append((a, b))
        return real(field, a, b, *args, **kwargs)
    monkeypatch.setattr(numerics, "integrate_ode", record)
    # 15 is the deepest row the anchor at 8 carries; 16 starts a new anchor
    inner.theta_table([8.0, 9.0, 15.0, 16.0, 17.0])
    # only the unstable solution is integrated; the stable one is its mirror
    assert legs == [
        (complex(-inner.RE_START, -8.0), -8j), (-8j, -9j), (-9j, -15j),
        (complex(-inner.RE_START, -16.0), -16j), (-16j, -17j),
    ]


def test_shoot_validation():
    with pytest.raises(ValueError):
        inner.shoot(5.0, [-5j])


@pytest.mark.parametrize("re_start", [math.nan, math.inf, -100.0, 0.0,
                                      10.0, 30.0, 35.0, 1e9])
def test_shoot_rejects_bad_re_start(re_start):
    # the seed is the constant RE_START: shoot takes no re_start, whatever
    # its value, and refuses one before any integration
    with pytest.raises(TypeError, match="re_start"):
        inner.shoot(13.0, [-13j], re_start=re_start)


# S: (U, W, X, Y) -> (-conj U, w^2 conj W, w conj X, w conj Y),
# w = e^(i pi/3), written out here independently of inner.mirror
_OMEGA = cmath.exp(1j * math.pi / 3.0)
_S_PHASES = (_OMEGA * _OMEGA, _OMEGA, _OMEGA)


def _S(Z):
    return tuple(m * z.conjugate() for m, z in zip(_S_PHASES, Z))


def _sheet_point(rng, r_min, r_max):
    # anywhere on the sheet arg U in [-3pi/2, pi/2), 0.05 rad off the cut
    return (math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
            * cmath.exp(1j * rng.uniform(-1.5 * math.pi + 0.05,
                                         0.5 * math.pi - 0.05)))


def _max_rel(a, b):
    return max(abs(x - y) / abs(y) for x, y in zip(a, b))


def test_graph_rhs_is_equivariant_under_S():
    # if Z solves dZ/dU = F(U, Z), S Z solves it at -conj U, so
    # F(-conj U, S Z) = -S F(U, Z) (the conjugated phases times -1)
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 1000:
        U = _sheet_point(rng, 1.0, 60.0)
        Z = tuple(0.2 * complex(*rng.standard_normal(2)) for _ in range(3))
        try:
            f = inner.graph_rhs(U, Z)
            f_mirror = inner.graph_rhs(-U.conjugate(), _S(Z))
        except (inner.TimeReparamSingular, inner.SqrtDomain):
            continue    # |1 + g| < 0.5 or |1 + J| <= 0.1
        assert _max_rel(f_mirror, tuple(-v for v in _S(f))) <= 1e-13
        checked += 1


def test_series_is_equivariant_under_S():
    rng = np.random.default_rng(25)
    for _ in range(500):
        U = _sheet_point(rng, 30.0, 1e4)
        assert _max_rel(_S(inner.series_Z(U).as_tuple()),
                        inner.series_Z(-U.conjugate()).as_tuple()) <= 1e-14
        assert _max_rel(_S(_seed_Z(U)), _seed_Z(-U.conjugate())) <= 1e-14
    # the seed series at -RE_START and at +RE_START, on every depth
    for rho in (8.0, 13.0, 20.0, 30.0):
        U = complex(-inner.RE_START, -rho)
        assert _max_rel(_S(_seed_Z(U)), _seed_Z(-U.conjugate())) <= 1e-14


@pytest.mark.parametrize("rho", [13.0, 15.0, 20.0])
def test_mirror_of_shoot_is_the_stable_solution(rho):
    # the stable solution, integrated here leftward from its own series
    # seed at Re U = +RE_START
    points = [complex(x, -rho) for x in range(-5, 6)]
    unstable = inner.shoot(rho, points)
    U0 = complex(inner.RE_START, -rho)
    stable = numerics.integrate_chain(inner.graph_rhs, U0, points[::-1],
                                      _seed_Z(U0),
                                      rtol=1e-12, atol=1e-14)
    # the stable state at x - i rho is the mirror of the unstable one at
    # -x - i rho, which the reversed lists pair up
    for u, s in zip(unstable, stable):
        assert _max_rel(inner.mirror(u).as_tuple(), s) <= 1e-11


def test_diff_structure():
    rep = inner.diff_structure()
    assert rep.rel_spread_y <= 0.2
    assert rep.xy_suppression <= 0.1
    assert rep.arg_spread_y <= 0.3
    # the difference never vanishes on the sampled overlap
    assert np.min(np.abs(rep.ey_values)) > 0.0
    # and its size matches the Stokes scale Theta ~ 1.63
    assert 1.5 < np.mean(np.abs(rep.ey_values)) < 1.8


def test_verify_inner_limit():
    fit = inner.verify_inner_limit()
    assert fit.exponent >= 1.2
    # smallest delta lands within a factor 10 of the fitted law
    logd = np.log(fit.deltas)
    logr = np.log(fit.residuals)
    slope, intercept = np.polyfit(logd, logr, 1)
    predicted = math.exp(intercept + slope * logd[0])
    assert fit.residuals[0] <= 10.0 * predicted


def test_verify_inner_limit_solves_kepler_once_per_evaluation(monkeypatch):
    # 4 deltas x 6 samples, one Kepler shift for the three D factors of each
    solve = rpc3bp._kepler_shift
    calls = []

    def counting(esl, ecl):
        calls.append(1)
        return solve(esl, ecl)

    monkeypatch.setattr(rpc3bp, "_kepler_shift", counting)
    inner.verify_inner_limit()
    assert len(calls) == len(inner._LIMIT_DELTAS) * len(inner._LIMIT_SAMPLES)
    assert len(calls) == 24


def test_verify_inner_limit_z_monotonicity(monkeypatch):
    # the fit needs two deltas; the residuals compared are those at 0.1
    monkeypatch.setattr(inner, "_LIMIT_DELTAS", (0.1, 0.2))
    full = inner.verify_inner_limit()
    halved = [(U, tuple(0.5 * z for z in Z)) for U, Z in inner._LIMIT_SAMPLES]
    monkeypatch.setattr(inner, "_LIMIT_SAMPLES", halved)
    half = inner.verify_inner_limit()
    assert half.residuals[0] <= full.residuals[0] * 1.05


def _per_point_inner_limit(seed):
    # check 12 with its own two-leg sweep 0 -> i 0.85 Im u -> u for each
    # point u = iA + delta^2 U
    samples = (inner._LIMIT_SAMPLES if seed is None
               else inner._random_limit_samples(seed))
    A = separatrix.compute_A()
    residuals = []
    for d in inner._LIMIT_DELTAS:
        offsets = rpc3bp.L3_scaled(d)
        vals = []
        for U, Z in samples:
            u = 1j * A + d * d * U
            state = separatrix.sigma_sweep([1j * 0.85 * u.imag, u])[-1]
            vals.append(inner._compose_inner_hamiltonian(state, Z, d, offsets)
                        - inner._cal_h_limit(U, Z))
        residuals.append(max(abs(v - vals[0]) for v in vals))
    expo = numerics.fit_line([math.log(d) for d in inner._LIMIT_DELTAS],
                             [math.log(r) for r in residuals])[0]
    return residuals, expo


# seed 8 reads the order nearest the gate of 1.2 (1.2288)
@pytest.mark.parametrize("seed", [None, *range(1, 11)])
def test_verify_inner_limit_matches_per_point_sweeps(seed):
    fit = inner.verify_inner_limit(seed)
    residuals, expo = _per_point_inner_limit(seed)
    assert _max_rel(fit.residuals, residuals) <= 1e-9
    assert abs(fit.exponent - expo) <= 1e-9 * expo


def test_verify_inner_limit_one_ray_chain_per_sample(monkeypatch):
    # one climb up the imaginary axis through the six tops, lowest first,
    # then one chain per sample from its top down its ray to iA
    chains, steps = [], []
    sigma_from, solve = separatrix._sigma_from, numerics.integrate_ode

    def recording(t, state, points):
        out = sigma_from(t, state, points)
        chains.append((t, state, list(points), out))
        return out

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps.append(res.steps)
        return res

    monkeypatch.setattr(separatrix, "_sigma_from", recording)
    monkeypatch.setattr(numerics, "integrate_ode", counting)
    inner.verify_inner_limit()
    A = separatrix.compute_A()
    assert len(chains) == 1 + len(inner._LIMIT_SAMPLES) == 7
    t0, _, climb, at_tops = chains[0]
    assert t0 == 0.0
    assert [t.real for t in climb] == [0.0] * 6
    heights = [t.imag for t in climb]
    assert 0.0 < heights[0] and heights == sorted(heights) and heights[-1] < A
    for (top, state, points, _), (U, _) in zip(chains[1:],
                                               inner._LIMIT_SAMPLES):
        # from the climb's state at the top, down the ray, largest delta
        # first
        assert points == [1j * A + d * d * U for d in (0.2, 0.12, 0.08, 0.05)]
        assert top == 1j * 0.85 * points[0].imag
        assert state is at_tops[climb.index(top)]
    # 266 with one chain per sample from t = 0
    assert sum(steps) == 227


@pytest.mark.parametrize("k, delta", [(0, 0.05), (2, 0.08), (4, 0.12)])
def test_sigma_below_iA_does_not_depend_on_the_path(k, delta):
    # sigma is single-valued in the strip |Im t| < A, so the straight leg
    # from 0, the two-leg sweep up the imaginary axis and the ray chain
    # through the larger deltas reach the same state
    A = separatrix.compute_A()
    U = inner._LIMIT_SAMPLES[k][0]
    u = 1j * A + delta * delta * U
    ray = [1j * A + d * d * U for d in (0.2, 0.12, 0.08, 0.05)]
    straight = separatrix.sigma_sweep([u])[-1]
    two_leg = separatrix.sigma_sweep([1j * 0.85 * u.imag, u])[-1]
    chained = separatrix.sigma_sweep([1j * 0.85 * ray[0].imag, *ray])
    chained = chained[1 + ray.index(u)]
    for state in (straight, chained):
        assert _max_rel((state.lam, state.Lam),
                        (two_leg.lam, two_leg.Lam)) <= 1e-10


# The inner field as first written, term by term, copied verbatim: the
# reference that test_field_keeps_the_bits_of_the_term_by_term_form holds
# inner.grad_K, inner.graph_rhs and inner.J to, value for value and raise
# for raise.
_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
NearBranchCut = inner.NearBranchCut
SqrtDomain = inner.SqrtDomain
TimeReparamSingular = inner.TimeReparamSingular


def cbrt_inner(U: complex) -> complex:
    """Cube root on the sheet arg U in [-3pi/2, pi/2)."""
    th = cmath.phase(U)
    if abs(th - _HALF_PI) < 1e-6:
        raise NearBranchCut(f"U = {U} within 1e-6 rad of the cut")
    if th >= _HALF_PI:
        th -= _TWO_PI
    return abs(U) ** (1.0 / 3.0) * cmath.exp(1j * th / 3.0)


def _J_raw(U, W, X, Y, u23, u43):
    return (4.0 * W * W / (9.0 * u23)
            - 16.0 * W / (27.0 * u43)
            + 16.0 / (81.0 * U * U)
            + (4.0 * (X + Y) / (9.0 * U)) * (W - 2.0 / (3.0 * u23))
            - 4j * (X - Y) / (3.0 * u23)
            - (X * X + Y * Y) / (3.0 * u43)
            + 10.0 * X * Y / (9.0 * u43))


def grad_K(U, Z):
    """Closed-form partials (dK/dU, dK/dW, dK/dX, dK/dY)."""
    W, X, Y = Z
    u13 = cbrt_inner(U)
    u23 = u13 * u13
    u43 = u23 * u23
    u53 = u43 * u13
    u73 = u43 * U
    u83 = u43 * u43
    U2 = U * U
    Jv = _J_raw(U, W, X, Y, u23, u43)
    if abs(1.0 + Jv) <= 0.1:
        raise SqrtDomain(f"|1 + J| = {abs(1.0 + Jv):.3f} <= 0.1 at U = {U}")
    s = (1.0 + Jv) ** -0.5
    s3 = s / (1.0 + Jv)
    pref = s3 / (6.0 * u23)
    dJ_dW = 8.0 * W / (9.0 * u23) - 16.0 / (27.0 * u43) + 4.0 * (X + Y) / (9.0 * U)
    dJ_dX = ((4.0 / (9.0 * U)) * (W - 2.0 / (3.0 * u23))
             - 4j / (3.0 * u23) - 2.0 * X / (3.0 * u43) + 10.0 * Y / (9.0 * u43))
    dJ_dY = ((4.0 / (9.0 * U)) * (W - 2.0 / (3.0 * u23))
             + 4j / (3.0 * u23) - 2.0 * Y / (3.0 * u43) + 10.0 * X / (9.0 * u43))
    dJ_dU = (-8.0 * W * W / (27.0 * u53)
             + 64.0 * W / (81.0 * u73)
             - 32.0 / (81.0 * U2 * U)
             + (4.0 * (X + Y) / 9.0) * (-W / U2 + 10.0 / (9.0 * u83))
             + 8j * (X - Y) / (9.0 * u53)
             + 4.0 * (X * X + Y * Y) / (9.0 * u73)
             - 40.0 * X * Y / (27.0 * u73))
    dK_dU = (-0.5 * W * W / u13
             + (2.0 / (9.0 * u53)) * (s - 1.0)
             + pref * dJ_dU)
    dK_dW = -1.5 * u23 * W + pref * dJ_dW
    return dK_dU, dK_dW, pref * dJ_dX, pref * dJ_dY


def graph_rhs(U, Z):
    """dZ/dU of the graph-form equation A Z + (f - g A Z)/(1 + g)."""
    W, X, Y = Z
    dU, dW, dX, dY = grad_K(U, Z)
    g = dW
    den = 1.0 + g
    if abs(den) < 0.5:
        raise TimeReparamSingular(f"|1 + g| = {abs(den):.3f} < 0.5 at U = {U}")
    az = (0.0, 1j * X, -1j * Y)
    f = (-dU, 1j * dY, -1j * dX)
    return tuple(az[k] + (f[k] - g * az[k]) / den for k in range(3))


def _J_reference(U, Z):
    u13 = cbrt_inner(U)
    return _J_raw(U, *Z, u13 * u13, (u13 * u13) * (u13 * u13))


def _outcome(f, U, Z):
    # repr tells the bits apart, the signs of zeros included
    try:
        return repr(f(U, Z))
    except Exception as exc:
        return type(exc), str(exc)


def _oracle_points():
    rng = random.Random(33)
    points = []
    # |U| log-uniform in [3, 100], arg U in [-1.4 pi, 0.45 pi], on the sheet
    def draw_U():
        return (math.exp(rng.uniform(math.log(3.0), math.log(100.0)))
                * cmath.exp(1j * rng.uniform(-1.4 * math.pi, 0.45 * math.pi)))

    for scale in (0.05, 0.3, 1.0):
        for _ in range(3400):
            points.append((draw_U(), tuple(
                scale * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                for _ in range(3))))
    # W with J = -1 + e at X = Y = 0, a root of a quadratic, so |1 + J|
    # falls on both sides of the square root's bound of 0.1
    for _ in range(100):
        U = draw_U()
        u13 = cbrt_inner(U)
        a, b = 4.0 / (9.0 * u13 ** 2), -16.0 / (27.0 * u13 ** 4)
        for e in (0.05, 0.0999, 0.1001, 0.2):
            c = 16.0 / (81.0 * U * U) + 1.0 - e * cmath.exp(
                1j * rng.uniform(-math.pi, math.pi))
            W = (-b + cmath.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
            points.append((U, (W, 0j, 0j)))
    # real and signed-zero inputs, on and beside the cut, and U = 0
    zs = [(0.0, 0.0, 0.0), (0.0, -0.0, 0j), (complex(-0.0, -0.0), 0j, -0.0),
          (0.1, -0.2, 0.3), (0.02j, 0.01 - 0.01j, 0.01 + 0.01j)]
    edge = [5.0, -5.0, 30.0, complex(-5.0, -0.0), complex(-5.0, 0.0), -5j,
            5j, -5j * _OMEGA, 5.0 * cmath.exp(1j * (_HALF_PI - 5e-7)),
            5.0 * cmath.exp(1j * (_HALF_PI - 2e-6)), 0j, 0.0]
    points += [(U, Z) for U in edge for Z in zs]
    return points


def test_field_keeps_the_bits_of_the_term_by_term_form():
    seen = {}
    for U, Z in _oracle_points():
        for new, ref in ((inner.graph_rhs, graph_rhs), (inner.grad_K, grad_K),
                         (inner.J, _J_reference)):
            expected = _outcome(ref, U, Z)
            assert _outcome(new, U, Z) == expected, (new.__name__, U, Z)
            if isinstance(expected, tuple):
                seen[expected[0]] = seen.get(expected[0], 0) + 1
    # every raise of the field is among the compared outcomes
    for exc in (NearBranchCut, SqrtDomain, TimeReparamSingular,
                ZeroDivisionError):
        assert seen.get(exc, 0) >= 10, exc
