import cmath
import math

import numpy as np
import pytest

from l3lab import rpc3bp as r3


def random_polar_states(n, rng, r_range=(0.8, 1.3)):
    out = []
    while len(out) < n:
        s = r3.PolarState(rng.uniform(*r_range), rng.uniform(-3.0, 3.0),
                          rng.uniform(-0.15, 0.15), rng.uniform(0.85, 1.15))
        out.append(s)
    return out


def test_h_cart_direct_value():
    s = r3.CartesianState(1.0, 0.0, 0.0, 1.0)
    assert abs(r3.h_cart(s, 0.0) + 1.5) < 1e-15


def test_h_cart_reversibility():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = r3.CartesianState(rng.uniform(0.5, 1.5), rng.uniform(-1, 1),
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
        flipped = r3.CartesianState(s.q1, -s.q2, -s.p1, s.p2)
        assert abs(r3.h_cart(s, 0.01) - r3.h_cart(flipped, 0.01)) < 1e-14


def test_h_cart_collision():
    with pytest.raises(r3.Collision):
        r3.h_cart(r3.CartesianState(0.003, 0.0, 0.0, 0.0), 0.003)


def test_polar_round_trip_and_example():
    s = r3.polar_from_cart(r3.CartesianState(1.0, 0.0, 0.0, 1.0))
    assert (abs(s.r - 1) < 1e-15 and abs(s.theta) < 1e-15
            and abs(s.R) < 1e-15 and abs(s.G - 1) < 1e-15)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        c = r3.CartesianState(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
        if math.hypot(c.q1, c.q2) < 0.1:
            continue
        back = r3.cart_from_polar(r3.polar_from_cart(c))
        worst = max(worst, abs(back.q1 - c.q1), abs(back.q2 - c.q2),
                    abs(back.p1 - c.p1), abs(back.p2 - c.p2))
    assert worst < 1e-12


def test_h_polar_matches_h_cart():
    c = r3.CartesianState(0.9, 0.1, 0.05, 0.95)
    h0, h1 = r3.h_polar(r3.polar_from_cart(c), 0.003)
    assert abs((h0 + 0.003 * h1) - r3.h_cart(c, 0.003)) < 1e-12


def test_h_polar_unperturbed_value():
    h0, _ = r3.h_polar(r3.PolarState(1.0, 0.4, 0.0, 1.0), 1e-3)
    assert abs(h0 + 1.5) < 1e-15


def test_mu_h1_closed_form_at_opposition():
    # at (r, theta) = (1, pi) the perturbation collapses to 1-(1-mu)/(1+mu)-1
    mu = 1e-6
    direct = r3.mu_h1_polar(1.0, math.pi, mu)
    assert abs(direct - (1.0 - (1.0 - mu) / (1.0 + mu) - 1.0)) < 1e-14


def test_mu_h1_poincare_is_the_three_factor_form():
    # one Kepler solve gives the bits of three D_exact evaluations
    rng = np.random.default_rng(23)
    for _ in range(200):
        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5))
        L = complex(rng.uniform(0.9, 1.1), rng.uniform(-0.05, 0.05))
        eta, xi = (complex(*rng.uniform(-0.2, 0.2, 2)) for _ in range(2))
        mu = rng.uniform(1e-6, 1e-2)
        d0, dmu, dP = (r3._d_exact(zeta, lam, L, eta, xi)
                       for zeta in (0.0, mu, mu - 1.0))
        three = (1.0 / cmath.sqrt(d0) - (1.0 - mu) / cmath.sqrt(dmu)
                 - mu / cmath.sqrt(dP))
        one = r3._mu_h1_poincare(lam, L, eta, xi, mu)
        assert (one.real.hex(), one.imag.hex()) == (three.real.hex(),
                                                    three.imag.hex())


def test_h1_zero_mass_limit_is_potential():
    lam = math.pi / 2.0
    _, h1 = r3.h_polar(r3.PolarState(1.0, lam, 0.0, 1.0), 0.0)
    expected = 1.0 - math.cos(lam) - 1.0 / math.sqrt(2.0 + 2.0 * math.cos(lam))
    assert abs(h1 - expected) < 1e-14
    assert abs(expected - 0.2928932188134524) < 1e-14


def test_poincare_circular_case():
    s = r3.PoincareState(0.7, 1.1, 0.0, 0.0)
    pol = r3.polar_from_poincare(s)
    assert abs(pol.r - 1.1 ** 2) < 1e-15
    assert abs(pol.theta - 0.7) < 1e-15
    assert pol.R == 0.0 and abs(pol.G - 1.1) < 1e-15


def test_poincare_eccentricity_formula():
    s = r3.PoincareState(0.0, 1.0, 0.1, 0.1)
    pol = r3.polar_from_poincare(s)
    e = math.sqrt(1.0 - (pol.G / 1.0) ** 2)  # independent Delaunay relation
    assert abs(e - 0.1 * math.sqrt(1.99)) < 1e-13


def test_poincare_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for pol in random_polar_states(100, rng):
        try:
            poi = r3.poincare_from_polar(pol)
        except r3.HyperbolicInput:
            continue
        back = r3.polar_from_poincare(poi)
        dth = (back.theta - pol.theta + math.pi) % (2 * math.pi) - math.pi
        worst = max(worst, abs(back.r - pol.r), abs(dth),
                    abs(back.R - pol.R), abs(back.G - pol.G))
    assert worst < 1e-13


@pytest.mark.parametrize("e, u", [(0.1, 1e-6), (0.1, 1e-9), (0.3, 1e-7),
                                  (0.05, 2e-8), (0.2, math.pi - 1e-7)])
def test_poincare_radial_momentum_near_apsides(e, u):
    # R = L e sin(u) / r is of the size of sin(u) here, where the two-body
    # energy identity R^2 = 2/r - G^2/r^2 - 1/L^2 cancels to rounding
    L = 1.05
    r = L * L * (1.0 - e * math.cos(u))
    R = L * e * math.sin(u) / r
    f = math.atan2(math.sqrt(1.0 - e * e) * math.sin(u), math.cos(u) - e)
    pol = r3.PolarState(r, f, R, L * math.sqrt(1.0 - e * e))
    back = r3.polar_from_poincare(r3.poincare_from_polar(pol))
    assert abs(back.R - R) <= 1e-15


def test_D_collision_value():
    s = r3.PoincareState(math.pi, 1.0, 0.0, 0.0)
    d0, _, _ = r3.D_series(-1.0, s)
    assert abs(d0) < 1e-14


def test_D_exact_reduces_to_D0_when_circular():
    s = r3.PoincareState(0.7, 1.05, 0.0, 0.0)
    d0, _, _ = r3.D_series(0.3, s)
    assert abs(r3.D_exact(0.3, s) - d0) < 1e-13


@pytest.mark.parametrize("zeta", [-1.0, 0.37])
def test_D_series_cubic_remainder(zeta):
    rems = []
    for eps in (1e-2, 5e-3):
        s = r3.PoincareState(1.0, 1.0, eps, eps)
        d0, d1, d2 = r3.D_series(zeta, s)
        rems.append(abs(r3.D_exact(zeta, s) - (d0 + d1 + d2)))
    assert rems[0] / rems[1] >= 7.0


def test_h_poincare_circular_value():
    s = r3.PoincareState(0.3, 1.0, 0.0, 0.0)
    h0 = -0.5 - 1.0  # -1/(2L^2) - L + eta xi at L = 1
    # mu -> 0: total tends to h0 + mu*V -> compare the mu-scaled part below
    assert abs((r3.h_poincare(s, 1e-12) - h0)) < 1e-10


def test_h_poincare_cross_representation():
    rng = np.random.default_rng(13)
    mu = 0.003
    worst = 0.0
    for pol in random_polar_states(50, rng):
        if abs(abs(pol.theta) - math.pi) < 0.3:
            continue  # keep away from the small primary
        try:
            poi = r3.poincare_from_polar(pol)
        except r3.HyperbolicInput:
            continue
        h0, h1 = r3.h_polar(pol, mu)
        worst = max(worst, abs(r3.h_poincare(poi, mu) - (h0 + mu * h1)))
    assert worst < 1e-11


def test_h_poincare_perturbation_tends_to_potential():
    mu = 1e-5
    for lam in (0.3, 1.0, 2.0, 2.6):
        s = r3.PoincareState(lam, 1.0, 0.0, 0.0)
        h0 = -0.5 - 1.0
        mu_h1 = r3.h_poincare(s, mu) - h0
        v = 1.0 - math.cos(lam) - 1.0 / math.sqrt(2.0 + 2.0 * math.cos(lam))
        assert abs(mu_h1 - mu * v) <= 5.0 * mu * mu + 1e-14


def test_locate_L3_expansion_and_residuals():
    eq = r3.locate_L3(1e-6)
    assert abs((eq.d_mu - 1.0) / 1e-6 - 5.0 / 12.0) <= 1e-3

    eq = r3.locate_L3(0.003)
    balance = (eq.d_mu - (1 - 0.003) / (eq.d_mu - 0.003) ** 2
               - 0.003 / (eq.d_mu + 1 - 0.003) ** 2)
    assert abs(balance) <= 1e-12
    vf = r3.cart_flow(0.003)(0.0, eq.cartesian.as_tuple())
    assert np.linalg.norm(vf) <= 1e-10


def test_locate_L3_spectrum():
    eq = r3.locate_L3(1e-4)
    assert abs(eq.hyperbolic_rate / 1e-2 - math.sqrt(21.0 / 8.0)) <= 2e-3
    assert abs(eq.elliptic_frequency - (1.0 + 7.0 / 8.0 * 1e-4)) <= 1e-3
    # saddle-center: two real, two imaginary eigenvalues
    ev = eq.eigenvalues
    real_pair = sorted(ev, key=lambda z: -abs(z.real))[:2]
    imag_pair = sorted(ev, key=lambda z: -abs(z.imag))[:2]
    assert all(abs(z.imag) < 1e-8 for z in real_pair)
    assert all(abs(z.real) < 1e-8 for z in imag_pair)


_J_SYMPL = np.block([[np.zeros((2, 2)), np.eye(2)],
                     [-np.eye(2), np.zeros((2, 2))]])


def _jacobian(s, mu):
    """The linearization of the Cartesian flow, J @ hess_h_cart."""
    return _J_SYMPL @ np.array(r3.hess_h_cart(s, mu))


def test_hessian_matches_finite_differences():
    # the flow is J @ grad h, so its central differences give J @ hess h
    rng = np.random.default_rng(2)
    mu = 0.004
    flow = r3.cart_flow(mu)
    for _ in range(5):
        z = np.array([rng.uniform(0.7, 1.3), rng.uniform(-0.7, 0.7),
                      rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.3)])
        jac = _jacobian(r3.CartesianState.from_array(z), mu)
        for i in range(4):
            h = 1e-6
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            col = np.subtract(flow(0.0, zp), flow(0.0, zm)) / (2 * h)
            denom = np.maximum(np.abs(jac[:, i]), 1.0)
            assert np.max(np.abs(col - jac[:, i]) / denom) <= 1e-6


@pytest.mark.parametrize("mu", [1e-6, 1e-4, 3e-3, 0.05])
def test_closed_form_spectrum_matches_eigvals(mu):
    eq = r3.locate_L3(mu)
    rate, freq = eq.hyperbolic_rate, eq.elliptic_frequency
    assert eq.eigenvalues == (complex(-rate, 0.0), complex(rate, 0.0),
                              complex(0.0, -freq), complex(0.0, freq))
    ref = np.linalg.eigvals(_jacobian(eq.cartesian, mu))
    for z in eq.eigenvalues:
        assert np.min(np.abs(ref - z)) <= 1e-12


def _field_by_helper(z, mu):
    """cart_flow's field written through the _primary_offsets helper."""
    q1, q2, p1, p2 = z
    (dSx, dSy), rS, (dPx, dPy), rP = r3._primary_offsets(q1, q2, mu)
    ax = -(1 - mu) * dSx / rS ** 3 - mu * dPx / rP ** 3
    ay = -(1 - mu) * dSy / rS ** 3 - mu * dPy / rP ** 3
    return (p1 + q2, p2 - q1, p2 + ax, -p1 + ay)


def _flow_at(z, mu):
    return r3.cart_flow(mu)(0.0, z)


def _field_or_collision(field, z, mu):
    try:
        return [v.hex() for v in field(z, mu)]
    except r3.Collision:
        return "Collision"


def test_vector_field_matches_helper_formula():
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-4.0, -2.0)
        z = [rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
             rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        got = r3.cart_flow(mu)(0.0, z)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == \
            [v.hex() for v in _field_by_helper(z, mu)]


@pytest.mark.parametrize("mu", [3e-4, 1e-3, 0.0123])
def test_vector_field_collision_matches_helper_formula(mu):
    # both fields raise Collision at the same points within 1e-12 of either
    # primary, S at (mu, 0) and P at (mu - 1, 0), and agree bit for bit
    # just outside
    for center in (mu, -(1.0 - mu)):
        outcomes = set()
        for dq1 in (0.0, 3e-13, -7e-13, 9.9e-13, -1.01e-12, 2e-12, 1e-11):
            for q2 in (0.0, 5e-13, -8e-13, 1.5e-12):
                z = (center + dq1, q2, 0.1, -0.2)
                got = _field_or_collision(_flow_at, z, mu)
                assert got == _field_or_collision(_field_by_helper, z, mu)
                outcomes.add(got == "Collision")
        assert outcomes == {True, False}


def test_F_pend_cubic_order():
    assert r3.F_pend(0.0) == 0.0
    assert abs(r3.F_pend(1e-3) / 1e-9 - 2.0) < 0.01
    # cubic scaling: halving z shrinks F by ~8
    assert 7.0 <= r3.F_pend(2e-3) / r3.F_pend(1e-3) <= 9.0


def test_h_scaled_pendulum_limit():
    # with Lam = x = y = 0 the scaled Hamiltonian tends to the potential
    delta = 0.05
    mu = delta ** 4
    for lam in (0.5, 1.5, 2.5):
        v = 1.0 - math.cos(lam) - 1.0 / math.sqrt(2.0 + 2.0 * math.cos(lam))
        assert abs(r3.h_scaled(lam, 0.0, 0.0, 0.0, delta) - v) <= 5.0 * mu


def test_h_scaled_reversibility():
    rng = np.random.default_rng(17)
    delta = 0.2
    for _ in range(10):
        lam = rng.uniform(-2.5, 2.5)
        Lam = rng.uniform(-0.5, 0.5)
        x = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)
        h1 = r3.h_scaled(lam, Lam, x, x.conjugate(), delta)
        h2 = r3.h_scaled(-lam, Lam, x.conjugate(), x, delta)
        assert abs(h1 - h2) < 1e-12


def test_L3_scaled_bounded():
    for delta in (0.1, 0.2, 0.3):
        comps = r3.L3_scaled(delta)
        assert all(abs(c) <= 5.0 for c in comps)
