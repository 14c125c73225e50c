"""Restricted planar circular three-body problem in rotating coordinates.

Mass ratio mu in (0, 1/2]; the heavy primary S of mass 1-mu sits at (mu, 0),
the light primary P of mass mu at (mu - 1, 0).  The module provides the
Hamiltonian in Cartesian, polar and Poincare variables, the Kepler/anomaly
formulas connecting them (one Kepler solver: the Newton iteration for the
shift s = e sin u, which gives r e^{i theta} at complex states and the polar
variables, with R = L s / r, on the real slice), the singularly-scaled
Hamiltonian used for the slow-fast splitting analysis, and the collinear
equilibrium beyond S together with its saddle-center spectrum, in closed
form from the biquadratic characteristic polynomial of the planar
linearization.  Everything works on Python scalars and tuples.

The Poincare-variable evaluators are written so they stay analytic for
complex arguments (needed when the Hamiltonian is continued near the complex
collision set); everything reduces to the familiar real formulas on the real
slice xi = conj(eta).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import L3labError, find_root

__all__ = [
    "CartesianState",
    "PolarState",
    "PoincareState",
    "Equilibrium",
    "Collision",
    "OriginSingular",
    "HyperbolicInput",
    "h_cart",
    "hess_h_cart",
    "cart_flow",
    "polar_from_cart",
    "cart_from_polar",
    "h_polar",
    "mu_h1_polar",
    "polar_from_poincare",
    "poincare_from_polar",
    "re_itheta_pair",
    "D_exact",
    "D_series",
    "h_poincare",
    "locate_L3",
    "F_pend",
    "h_scaled",
    "L3_scaled",
]

_COLLISION_EPS = 1e-12


class Collision(L3labError):
    """Evaluation too close to one of the primaries."""


class OriginSingular(L3labError):
    """Polar chart breaks down at r ~ 0."""


class HyperbolicInput(L3labError):
    """Osculating eccentricity >= 1; elliptic formulas do not apply."""


@dataclass(frozen=True)
class CartesianState:
    q1: float
    q2: float
    p1: float
    p2: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self.q1, self.q2, self.p1, self.p2

    @classmethod
    def from_array(cls, z) -> "CartesianState":
        return cls(*map(float, z))


@dataclass(frozen=True)
class PolarState:
    r: float
    theta: float
    R: float
    G: float


@dataclass(frozen=True)
class PoincareState:
    lam: float
    L: float
    eta: complex
    xi: complex


@dataclass
class Equilibrium:
    d_mu: float
    cartesian: CartesianState
    eigenvalues: tuple[complex, ...]
    poincare: PoincareState

    @property
    def hyperbolic_rate(self) -> float:
        return max(abs(z.real) for z in self.eigenvalues)

    @property
    def elliptic_frequency(self) -> float:
        return max(abs(z.imag) for z in self.eigenvalues)


# ---------------------------------------------------------------------------
# Cartesian chart
# ---------------------------------------------------------------------------

def _p_offset(x, mu):
    # compensated x + (1 - mu): the rounding of 1 - mu matters when the
    # result is collision-small
    s = 1.0 - mu
    e = (1.0 - s) - mu  # exact residual: 1 - mu = s + e
    return (x + s) + e


def _primary_offsets(q1, q2, mu):
    dS = (q1 - mu, q2)
    dP = (_p_offset(q1, mu), q2)
    rS = math.hypot(*dS)
    rP = math.hypot(*dP)
    if rS < _COLLISION_EPS or rP < _COLLISION_EPS:
        raise Collision(f"state within {_COLLISION_EPS} of a primary")
    return dS, rS, dP, rP


def h_cart(s: CartesianState, mu: float) -> float:
    _, rS, _, rP = _primary_offsets(s.q1, s.q2, mu)
    kinetic = 0.5 * (s.p1 ** 2 + s.p2 ** 2)
    coriolis = s.q1 * s.p2 - s.q2 * s.p1
    return kinetic - coriolis - (1.0 - mu) / rS - mu / rP


def hess_h_cart(s: CartesianState,
                mu: float) -> tuple[tuple[float, ...], ...]:
    """Closed-form 4x4 Hessian of h_cart in the order (q1, q2, p1, p2), as
    a tuple of four rows."""
    (dSx, dSy), rS, (dPx, dPy), rP = _primary_offsets(s.q1, s.q2, mu)
    h00 = h01 = h11 = 0.0
    for m, (dx, dy), r in (((1 - mu), (dSx, dSy), rS), (mu, (dPx, dPy), rP)):
        r3, r5 = r ** 3, r ** 5
        h00 += m * (1.0 / r3 - 3.0 * dx * dx / r5)
        h01 += m * (-3.0 * dx * dy / r5)
        h11 += m * (1.0 / r3 - 3.0 * dy * dy / r5)
    return ((h00, h01, 0.0, -1.0), (h01, h11, 1.0, 0.0),
            (0.0, 1.0, 1.0, 0.0), (-1.0, 0.0, 0.0, 1.0))


def cart_flow(mu: float):
    """The field ``f(t, z)`` = dz/dt at z = (q1, q2, p1, p2) for mass ratio mu.

    A tuple of Python floats, the scalars the ODE stepper runs on.
    """
    s = 1.0 - mu
    # compensated q1 + (1 - mu), as in _p_offset: the rounding of 1 - mu
    # matters when the result is collision-small
    e = (1.0 - s) - mu
    # bound once: the stepper calls the field about 13 times per step
    m_s, hypot, eps = -s, math.hypot, _COLLISION_EPS

    def field(t, z):
        q1, q2, p1, p2 = z
        # _primary_offsets inline, to save two calls per field evaluation
        dSx = q1 - mu
        dPx = (q1 + s) + e
        rS = hypot(dSx, q2)
        rP = hypot(dPx, q2)
        if rS < eps or rP < eps:
            raise Collision(f"state within {eps} of a primary")
        rS3, rP3 = rS ** 3, rP ** 3
        return (p1 + q2, p2 - q1, p2 + (m_s * dSx / rS3 - mu * dPx / rP3),
                -p1 + (m_s * q2 / rS3 - mu * q2 / rP3))

    return field


# ---------------------------------------------------------------------------
# polar chart
# ---------------------------------------------------------------------------

def polar_from_cart(s: CartesianState) -> PolarState:
    r = math.hypot(s.q1, s.q2)
    if r <= 1e-12:
        raise OriginSingular("polar chart undefined at the origin")
    theta = math.atan2(s.q2, s.q1)
    R = (s.q1 * s.p1 + s.q2 * s.p2) / r
    G = s.q1 * s.p2 - s.q2 * s.p1
    return PolarState(r, theta, R, G)


def cart_from_polar(s: PolarState) -> CartesianState:
    if s.r <= 1e-12:
        raise OriginSingular("polar chart undefined at the origin")
    c, sn = math.cos(s.theta), math.sin(s.theta)
    q1, q2 = s.r * c, s.r * sn
    p1 = s.R * c - s.G / s.r * sn
    p2 = s.R * sn + s.G / s.r * c
    return CartesianState(q1, q2, p1, p2)


def mu_h1_polar(r, theta, mu):
    """The full perturbation mu*H1^pol.

    The primary distances are evaluated componentwise (hypot form), which
    stays accurate near the collisions where the expanded quadratic
    r^2 +- 2 c r cos(theta) + c^2 cancels catastrophically.
    """
    x, y = r * math.cos(theta), r * math.sin(theta)
    dS = math.hypot(x - mu, y)
    dP = math.hypot(_p_offset(x, mu), y)
    if dS < _COLLISION_EPS or dP < _COLLISION_EPS:
        raise Collision("polar evaluation at a primary")
    return 1.0 / r - (1.0 - mu) / dS - mu / dP


def h_polar(s: PolarState, mu: float) -> tuple[float, float]:
    """Split pair (H0, H1) with total energy H0 + mu*H1.

    At mu = 0 the quotient H1 = (mu*H1)/mu is returned as its analytic limit
    (1/r)(1 - cos(theta)/r) - 1/sqrt(r^2 + 2 r cos(theta) + 1).
    """
    if s.r <= 0:
        raise OriginSingular("polar state needs r > 0")
    h0 = 0.5 * (s.R ** 2 + (s.G / s.r) ** 2) - 1.0 / s.r - s.G
    if mu == 0.0:
        c = math.cos(s.theta)
        h1 = (1.0 / s.r) * (1.0 - c / s.r) - 1.0 / math.sqrt(
            s.r ** 2 + 2.0 * s.r * c + 1.0)
    else:
        h1 = mu_h1_polar(s.r, s.theta, mu) / mu
    return h0, h1


# ---------------------------------------------------------------------------
# Kepler equation and the Poincare chart
# ---------------------------------------------------------------------------

def _e_tilde(L, eta, xi):
    # sqrt(2L - eta*xi)/(2L); analytic near (L, eta, xi) ~ (1, 0, 0)
    return cmath.sqrt(2.0 * L - eta * xi) / (2.0 * L)


def polar_from_poincare(s: PoincareState) -> PolarState:
    """Osculating-ellipse polar variables on the real slice xi = conj(eta).

    r and theta are the modulus and argument of r e^{i theta}, and the
    radial momentum is R = L e sin(u) / r, both from the Kepler shift
    s = e sin u that :func:`re_itheta_pair` solves.
    """
    L = float(s.L)
    exi = s.eta * s.xi
    e = 2.0 * abs(_e_tilde(L, s.eta, s.xi)) * math.sqrt(max(exi.real, 0.0))
    if e >= 1.0:
        raise HyperbolicInput(f"eccentricity {e} >= 1")
    wp, _, shift = re_itheta_pair(s.lam, L, s.eta, s.xi)
    r = abs(wp)
    return PolarState(r, cmath.phase(wp), L * shift.real / r, L - exi.real)


def poincare_from_polar(s: PolarState) -> PoincareState:
    """Inverse transform for bound (negative two-body energy) states."""
    two_body = 2.0 / s.r - s.R ** 2 - (s.G / s.r) ** 2
    if two_body <= 0.0:
        raise HyperbolicInput("state not on a bound osculating ellipse")
    L = 1.0 / math.sqrt(two_body)
    ecu = 1.0 - s.r / L ** 2
    esu = s.r * s.R / L
    e = math.hypot(ecu, esu)
    if e < 1e-15:
        return PoincareState(s.theta, L, 0.0 + 0.0j, 0.0 - 0.0j)
    u = math.atan2(esu, ecu)
    ell = u - esu
    f = math.atan2(math.sqrt(max(1.0 - e * e, 0.0)) * math.sin(u),
                   math.cos(u) - e)
    g = s.theta - f
    lam = ell + g
    amp = math.sqrt(max(L - s.G, 0.0))
    eta = amp * cmath.exp(1j * g)
    return PoincareState(lam, L, eta, eta.conjugate())


def _kepler_shift(esl, ecl):
    # solves s = esl*cos(s) + ecl*sin(s) (s = e sin u) by Newton; analytic in
    # the coefficients, so it continues to complex data.
    s = esl
    for _ in range(80):
        F = s - esl * cmath.cos(s) - ecl * cmath.sin(s)
        dF = 1.0 + esl * cmath.sin(s) - ecl * cmath.cos(s)
        step = F / dF
        s -= step
        if abs(step) < 1e-16 * (1.0 + abs(s)):
            return s
    raise HyperbolicInput("complex Kepler iteration did not converge")


def re_itheta_pair(lam, L, eta, xi):
    """The pair (r e^{i theta}, r e^{-i theta}) as analytic functions, and
    the shift s = e sin u they are built on.

    Every ingredient (the combinations e*cos(ell), e*sin(ell), the shift
    s = e sin u, and the grouped pericenter factors) is single-valued near the
    circular slice, which makes this the branch-safe way to evaluate the
    Poincare-variable Hamiltonian at complex states.
    """
    et = _e_tilde(L, eta, xi)
    e2 = 4.0 * et * et * eta * xi
    c = cmath.sqrt(1.0 - e2)
    expl = cmath.exp(1j * lam)
    esl = 1j * et * (eta / expl - xi * expl)
    ecl = et * (eta / expl + xi * expl)
    s = _kepler_shift(esl, ecl)
    es = cmath.exp(1j * s)
    L2 = L * L
    one_pc = 1.0 + c
    wp = L2 * (expl * es * one_pc / 2.0
               + 2.0 * et * et * eta * eta / (one_pc * expl * es)
               - 2.0 * et * eta)
    wm = L2 * (one_pc / (2.0 * expl * es)
               + 2.0 * et * et * xi * xi * expl * es / one_pc
               - 2.0 * et * xi)
    return wp, wm, s


def D_exact(zeta: float, s: PoincareState) -> complex:
    """(r^2 - 2 zeta r cos(theta) + zeta^2) composed with the Poincare chart."""
    wp, wm, _ = re_itheta_pair(s.lam, s.L, s.eta, s.xi)
    return (wp - zeta) * (wm - zeta)


def D_series(zeta: float, s: PoincareState):
    """Quadratic truncation (D0, D1, D2) of D[zeta] in powers of (eta, xi)."""
    lam, L, eta, xi = s.lam, s.L, s.eta, s.xi
    el = cmath.exp(1j * lam)
    eml = 1.0 / el
    cl = (el + eml) / 2.0
    L2 = L * L
    d0 = L2 * L2 - 2.0 * zeta * L2 * cl + zeta * zeta
    sq = cmath.sqrt(2.0 * L ** 3) / 2.0
    d1 = (eta * sq * (3.0 * zeta - 2.0 * L2 * eml - zeta * eml * eml)
          + xi * sq * (3.0 * zeta - 2.0 * L2 * el - zeta * el * el))
    d2 = (-eta * eta * (L * eml / 4.0) * (zeta + 2.0 * L2 * eml + 3.0 * zeta * eml * eml)
          - xi * xi * (L * el / 4.0) * (zeta + 2.0 * L2 * el + 3.0 * zeta * el * el)
          + eta * xi * L * (3.0 * L2 + 2.0 * zeta * cl))
    return d0, d1, d2


def _mu_h1_poincare(lam, L, eta, xi, mu):
    # the three factors D_exact(zeta) for zeta = 0, mu, mu - 1 on one Kepler
    # solve
    wp, wm, _ = re_itheta_pair(lam, L, eta, xi)
    d0, dmu, dP = ((wp - zeta) * (wm - zeta) for zeta in (0.0, mu, mu - 1.0))
    return (1.0 / cmath.sqrt(d0)
            - (1.0 - mu) / cmath.sqrt(dmu)
            - mu / cmath.sqrt(dP))


def h_poincare(s: PoincareState, mu: float) -> float:
    """Total energy -1/(2L^2) - L + eta*xi + mu*H1 via the D-decomposition."""
    h0 = -0.5 / s.L ** 2 - s.L + (s.eta * s.xi).real
    pert = _mu_h1_poincare(s.lam, s.L, s.eta, s.xi, mu)
    return h0 + pert.real


# ---------------------------------------------------------------------------
# the collinear point beyond S and the scaled Hamiltonian
# ---------------------------------------------------------------------------

def _radial_balance(d, mu):
    return d - (1.0 - mu) / (d - mu) ** 2 - mu / (d + 1.0 - mu) ** 2


def locate_L3(mu: float) -> Equilibrium:
    """Collinear equilibrium on the theta = 0 ray beyond the heavy primary.

    The radius solves d = (1-mu)/(d-mu)^2 + mu/(d+1-mu)^2 on [1, 1+mu].  With
    H01 = 0 on the axis, the spectrum solves l^4 + (H00 + H11 + 2) l^2
    + (1 - H00)(1 - H11) = 0 (Szebehely, Theory of Orbits, 1967, ch. 5): a
    large negative root in l^2 (the elliptic pair) and a small positive one
    (the hyperbolic pair), taken as the constant term over the large root
    so that it does not cancel.  Its factor 1 - H11 ~ -7mu/8 cancels
    instead, costing the rate 1.2e-8 relative at mu = 1e-8 (1.7e-4 at
    1e-12), so mu must lie in [1e-8, 0.05].
    """
    if not 1e-8 <= mu <= 0.05:
        raise ValueError(f"locate_L3 expects mu in [1e-8, 0.05], got {mu!r}")
    d = find_root(lambda x: _radial_balance(x, mu), (1.0, 1.0 + mu), tol=1e-15)
    polar = PolarState(d, 0.0, 0.0, d * d)
    cart = cart_from_polar(polar)
    H = hess_h_cart(cart, mu)
    b = H[0][0] + H[1][1] + 2.0
    c = (1.0 - H[0][0]) * (1.0 - H[1][1])
    large = -0.5 * (b + math.sqrt(b * b - 4.0 * c))
    rate, freq = math.sqrt(c / large), math.sqrt(-large)
    ev = (complex(-rate, 0.0), complex(rate, 0.0),
          complex(0.0, -freq), complex(0.0, freq))
    poi = poincare_from_polar(polar)
    return Equilibrium(d_mu=d, cartesian=cart, eigenvalues=ev,
                       poincare=poi)


def F_pend(z):
    """(-1/(2(1+z)^2) - (1+z)) + 3/2 + (3/2) z^2; vanishes to cubic order."""
    return (-1.0 / (2.0 * (1.0 + z) ** 2) - (1.0 + z)) + 1.5 + 1.5 * z * z


def h_scaled(lam, Lam, x, y, delta):
    """Scaled slow-fast Hamiltonian, constants dropped.

    Composition of the Poincare Hamiltonian with L = 1 + delta^2 Lam,
    eta = delta x, xi = delta y and the delta^-4 energy scaling.  Complex
    arguments are allowed; every square root, that of the near-collision
    factor D[mu-1] included, is the principal one (the sheet
    :func:`l3lab.inner.verify_inner_limit` needs).
    """
    d2 = delta * delta
    mu = d2 * d2
    pend = -1.5 * Lam * Lam + F_pend(d2 * Lam) / mu
    osc = x * y / d2
    pert = _mu_h1_poincare(lam, 1.0 + d2 * Lam, delta * x, delta * y, mu) / mu
    return pend + osc + pert


def L3_scaled(delta: float):
    """Bounded components (Lam_hat, x_hat, y_hat) of the equilibrium.

    In the scaled variables the equilibrium sits at
    (0, delta^2 Lam_hat, delta^3 x_hat, delta^3 y_hat).
    """
    mu = delta ** 4
    eq = locate_L3(mu)
    poi = eq.poincare
    lam_hat = (poi.L - 1.0) / mu
    x_hat = poi.eta.real / mu
    y_hat = poi.xi.real / mu
    return lam_hat, x_hat, y_hat
