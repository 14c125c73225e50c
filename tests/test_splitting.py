import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from l3lab import rpc3bp, separatrix, splitting


def test_asymptotic_distance_plugin():
    val = splitting.asymptotic_distance(1e-3, 0.177744, 1.63)
    expected = 4.0 ** (1 / 3) * 0.1 * math.exp(-0.177744 / math.sqrt(1e-3)) * 1.63
    assert abs(val - expected) < 1e-18
    assert abs(val - 9.36e-4) < 2e-6
    assert splitting.asymptotic_distance(2e-3, 0.177744, 0.0) == 0.0


@pytest.mark.parametrize("theta_abs", [math.nan, math.inf, -1.0],
                         ids=["nan", "inf", "negative"])
def test_asymptotic_distance_rejects_bad_prefactor(theta_abs):
    with pytest.raises(ValueError, match="theta_abs"):
        splitting.asymptotic_distance(1e-3, 0.177744, theta_abs)


def test_asymptotic_distance_monotone():
    mus = np.geomspace(1e-4, 0.05, 20)
    vals = [splitting.asymptotic_distance(m, 0.177744, 1.63) for m in mus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_section_points_at_pilot_mu():
    mu = 0.003
    pu = splitting.manifold_section_point(mu, "unstable_plus")
    ps = splitting.manifold_section_point(mu, "stable_plus")
    for p in (pu, ps):
        assert 1.0 < p.r < 1.3
        assert abs(p.theta - math.pi / 2.0) <= 1e-10
    assert pu.t_hit > 0.0 and ps.t_hit < 0.0
    # autonomous flow conserves the Hamiltonian along the trajectory
    eq = rpc3bp.locate_L3(mu)
    h_eq = rpc3bp.h_cart(eq.cartesian, mu)
    for p in (pu, ps):
        h_hit = rpc3bp.h_cart(rpc3bp.CartesianState.from_array(p.state), mu)
        assert abs(h_hit - h_eq) <= 1e-11


def test_section_point_seed_insensitivity():
    mu = 0.003
    a, _ = splitting._trace(mu, "unstable_plus", 1e-7, 1000.0, math.pi / 2,
                            0.0)
    b, _ = splitting._trace(mu, "unstable_plus", 5e-8, 1000.0, math.pi / 2,
                            0.0)
    assert abs(a.r - b.r) <= 1e-6
    assert abs(a.R - b.R) <= 1e-6
    assert abs(a.G - b.G) <= 1e-6


def test_reversibility_through_symmetric_section():
    # the involution (q1,-q2,-p1,p2; -t) maps the forward unstable-plus
    # trajectory onto the backward stable-minus one, so their crossings of
    # the symmetric section theta = 0 share r and |R| exactly
    mu = 0.003
    pu, _ = splitting._trace(mu, "unstable_plus", splitting._SEED_EPS,
                             1000.0, 0.0, 1.0)
    ps, _ = splitting._trace(mu, "stable_minus", splitting._SEED_EPS,
                             1000.0, 0.0, 1.0)
    assert abs(pu.r - ps.r) <= 1e-8
    assert abs(abs(pu.R) - abs(ps.R)) <= 1e-8
    assert abs(pu.G - ps.G) <= 1e-8


@pytest.mark.parametrize("branch", ["unstable_plus", "stable_plus",
                                    "unstable_minus", "stable_minus"])
def test_seed_on_hyperbolic_eigenvector(branch):
    mu, eps = 1e-3, 1e-7
    eq = rpc3bp.locate_L3(mu)
    z0, tdir = splitting._seed(mu, branch, eps)
    v = (np.array(z0) - np.array(eq.cartesian.as_tuple())) / eps
    J = np.block([[np.zeros((2, 2)), np.eye(2)],
                  [-np.eye(2), np.zeros((2, 2))]])
    M = J @ np.array(rpc3bp.hess_h_cart(eq.cartesian, mu))
    stable = branch.startswith("stable")
    lam = -eq.hyperbolic_rate if stable else eq.hyperbolic_rate
    assert tdir == (-1.0 if stable else 1.0)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-8
    assert np.max(np.abs(M @ v - lam * v)) <= 1e-8
    # the trajectory leaves toward +q2 on the plus branches, in the
    # direction of integration
    want = 1.0 if branch.endswith("plus") else -1.0
    assert want * tdir * (M @ v)[1] > 0.0


def _reference_section_point(mu, branch, t_max=1000.0):
    """The first r > 1 hit, from a scipy solve_ivp event run at rtol 1e-13."""
    z0, tdir = splitting._seed(mu, branch, 1e-7)

    def event(t, y):
        return math.atan2(y[1], y[0]) - math.pi / 2

    sol = solve_ivp(rpc3bp.cart_flow(mu),
                    (0.0, tdir * t_max), z0, method="DOP853", rtol=1e-13,
                    atol=1e-13, events=event)
    assert sol.success
    for t_ev, y_ev in zip(sol.t_events[0], sol.y_events[0]):
        pol = rpc3bp.polar_from_cart(rpc3bp.CartesianState.from_array(y_ev))
        if abs(pol.theta - math.pi / 2) <= 1e-6 and pol.r > 1.0:
            return float(t_ev), pol
    raise AssertionError("no reference crossing")


@pytest.mark.parametrize("branch", ["unstable_plus", "stable_plus"])
def test_hit_matches_scipy_event_reference(branch):
    # the section point is pinned tightly; the crossing time carries about
    # 1e-6 of phase noise even between scipy's own rtol 1e-12 and 1e-13 runs
    mu = 1.5e-3
    t_ref, ref = _reference_section_point(mu, branch)
    p = splitting.manifold_section_point(mu, branch)
    assert max(abs(p.r - ref.r), abs(p.R - ref.R), abs(p.G - ref.G)) <= 1e-9
    assert abs(p.t_hit - t_ref) <= 1e-4


def test_hit_independent_of_time_budget():
    mu = 1.5e-3
    a = splitting.manifold_section_point(mu, "unstable_plus", t_max=1000.0)
    # the smallest step allowed does not grow with the budget either
    for t_max in (1e6, 1e15):
        b = splitting.manifold_section_point(mu, "unstable_plus", t_max=t_max)
        assert a.t_hit == b.t_hit
        assert a.state == b.state


def test_default_budget_covers_lowest_mu():
    s = splitting.section_gap(3e-4)
    assert s.dist_measured > 0.0


def _gap_at(mu, rtol):
    """The gap between the two plus branches' hits, both traced at rtol."""
    pu, ps = (splitting._trace(mu, branch, splitting._SEED_EPS,
                               splitting._T_MAX, math.pi / 2, 0.0,
                               rtol=rtol)[0]
              for branch in ("unstable_plus", "stable_plus"))
    return math.sqrt((pu.r - ps.r) ** 2 + (pu.R - ps.R) ** 2
                     + (pu.G - ps.G) ** 2)


@pytest.mark.parametrize("mu", [3e-4, 1e-3, 2e-3, 1e-2])
def test_gap_within_1e_6_of_tight_trace(mu):
    # the worst case measured over check 13's grid is 6.2e-7
    s = splitting.section_gap(mu)
    ref = _gap_at(mu, 1e-13)
    assert abs(s.dist_measured - ref) <= 1e-6 * ref


def test_gap_rtol_rule():
    A = separatrix.compute_A()
    mus = np.geomspace(3e-4, 1e-2, 40)
    rtols = [splitting._gap_rtol(m, A) for m in mus]
    assert all(1e-13 <= r <= 1e-9 for r in rtols)
    assert all(b >= a for a, b in zip(rtols, rtols[1:]))
    # clamped at the top of the splitting range, about 1e-12 at its bottom,
    # and at the 1e-13 floor far under it
    assert splitting._gap_rtol(2e-3, A) == 1e-9
    assert splitting._gap_rtol(1e-2, A) == 1e-9
    assert 1e-12 < splitting._gap_rtol(3e-4, A) < 1.5e-12
    assert splitting._gap_rtol(1e-5, A) == 1e-13
    # section_gap records the rule's value, whatever theta_abs it is given;
    # at 1e-3 the rule is not clamped
    for theta_abs in (1.0, 1.63, 3.0):
        s = splitting.section_gap(1e-3, A=A, theta_abs=theta_abs)
        assert s.rtol == splitting._gap_rtol(1e-3, A)


def test_no_crossing_reported():
    with pytest.raises(splitting.NoCrossing):
        splitting.manifold_section_point(0.003, "unstable_plus", t_max=5.0)


def test_branch_validation():
    with pytest.raises(ValueError):
        splitting.manifold_section_point(0.003, "unstable")
    with pytest.raises(ValueError):
        splitting.manifold_section_point(0.1, "unstable_plus")


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf, 1e-300])
def test_time_budget_validation(t_max):
    with pytest.raises(ValueError, match="t_max"):
        splitting.manifold_section_point(0.003, "unstable_plus", t_max=t_max)


def test_fit_splitting_exponent(monkeypatch):
    fit = splitting.fit_splitting_exponent()
    A = separatrix.compute_A()
    assert abs(fit.slope + A) / A <= 0.10
    assert all(s.dist_measured > 0.0 for s in fit.samples)
    # dropping the largest mu barely moves the slope
    monkeypatch.setattr(splitting, "_MU_GRID", splitting._MU_GRID[:-1])
    reduced = splitting.fit_splitting_exponent()
    assert abs(reduced.slope - fit.slope) / abs(fit.slope) <= 0.03
    # effective prefactor: order of the Stokes constant, inflated by
    # finite-mu corrections (pilot value 3.24 ~ 1.99 x 1.63; the 2.2 bound
    # carries platform headroom, see the decisions ledger)
    assert 1.63 / 2.0 <= fit.theta_effective <= 2.2 * 1.63


def test_manifold_trajectory_shape():
    ts, states = splitting.manifold_trajectory(0.003, n_points=200)
    assert len(ts) == len(states) == 200
    assert all(len(y) == 4 and all(type(v) is float for v in y)
               for y in states)
    r_end = math.hypot(states[-1][0], states[-1][1])
    assert r_end > 1.0


def test_manifold_trajectory_traces_once(monkeypatch):
    calls = [0]

    def counting_flow(mu):
        field = rpc3bp.cart_flow(mu)

        def counting(t, y):
            calls[0] += 1
            return field(t, y)
        return counting

    monkeypatch.setattr(splitting, "cart_flow", counting_flow)
    for branch in ("unstable_plus", "stable_plus"):
        calls[0] = 0
        hit = splitting.manifold_section_point(0.003, branch)
        hit_calls = calls[0]
        assert hit_calls > 0  # the trace steps the patched field
        calls[0] = 0
        ts, states = splitting.manifold_trajectory(0.003, branch, n_points=200)
        # one pass plus three dense-output stages per DOP853 step of about
        # twelve field calls; a second integration would double the count
        assert calls[0] <= 1.3 * hit_calls
        assert ts[-1] == hit.t_hit
        assert max(abs(a - b) for a, b in zip(states[-1], hit.state)) <= 1e-10
