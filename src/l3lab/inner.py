"""The inner equation near the strip-boundary singularity and its Stokes constant.

After blowing up the singularity at t = iA with U = (u - iA)/delta^2, the
leading Hamiltonian becomes the parameter-free

    calH(U, W, X, Y) = W + X Y + K(U, W, X, Y),

with K built from U^(2/3) and an algebraic function J quadratic in
Z = (W, X, Y).  Two distinguished solutions of the associated graph-form
equation dZ/dU = A Z + R[Z] decay as Re U -> -infinity (unstable-like) and
Re U -> +infinity (stable-like).  Seeding both from their asymptotic series
(kept through U^(-40/3)) at Re U = -+RE_START = -+100 and shooting along the
horizontal line Im U = -rho to the imaginary axis, the difference
Delta Y(-i rho) determines the Stokes constant estimate
theta_rho = |Delta Y| e^rho, which plateaus near 1.63.

All fractional powers of U live on the branch cut along the positive
imaginary axis, arg U in [-3pi/2, pi/2), so both shooting lines and the
evaluation point -i rho stay on a single sheet.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import rpc3bp, separatrix
from .numerics import L3labError, integrate_chain

__all__ = [
    "InnerState",
    "StokesRecord",
    "cbrt_inner",
    "inner_powers",
    "J",
    "K",
    "grad_K",
    "grad_K_fd",
    "graph_rhs",
    "series_Z",
    "series_Z_derivative",
    "series_residual",
    "RE_START",
    "shoot",
    "theta",
    "theta_table",
    "diff_structure",
    "DiffStructure",
    "verify_inner_limit",
    "InnerLimitFit",
    "NearBranchCut",
    "SqrtDomain",
    "TimeReparamSingular",
    "TooClose",
    "PrecisionLoss",
]

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi


class NearBranchCut(L3labError):
    """Argument within 1e-6 of the cut on the positive imaginary axis."""


class SqrtDomain(L3labError):
    """|1 + J| fell at or below 0.1; the square root is out of its domain."""


class TimeReparamSingular(L3labError):
    """|1 + g| < 0.5; the graph-form time reparametrization degenerates."""


class TooClose(L3labError):
    """Asymptotic series requested at |U| < 30."""


class PrecisionLoss(L3labError):
    """Fewer than 3 significant digits survive the Delta Y cancellation."""


@dataclass(frozen=True)
class InnerState:
    W: complex
    X: complex
    Y: complex

    def as_tuple(self):
        return self.W, self.X, self.Y


def cbrt_inner(U: complex) -> complex:
    """Cube root on the sheet arg U in [-3pi/2, pi/2)."""
    th = cmath.phase(U)
    if abs(th - _HALF_PI) < 1e-6:
        raise NearBranchCut(f"U = {U} within 1e-6 rad of the cut")
    if th >= _HALF_PI:
        th -= _TWO_PI
    return abs(U) ** (1.0 / 3.0) * cmath.exp(1j * th / 3.0)


def inner_powers(U: complex):
    """(U^{1/3}, U^{2/3}, U^{4/3}) as exact products of one cube root."""
    u13 = cbrt_inner(U)
    u23 = u13 * u13
    return u13, u23, u23 * u23


def _J_raw(U, W, X, Y, u23, u43):
    return (4.0 * W * W / (9.0 * u23)
            - 16.0 * W / (27.0 * u43)
            + 16.0 / (81.0 * U * U)
            + (4.0 * (X + Y) / (9.0 * U)) * (W - 2.0 / (3.0 * u23))
            - 4j * (X - Y) / (3.0 * u23)
            - (X * X + Y * Y) / (3.0 * u43)
            + 10.0 * X * Y / (9.0 * u43))


def J(U, Z) -> complex:
    """The algebraic function under the square root of K."""
    W, X, Y = Z
    _, u23, u43 = inner_powers(U)
    return _J_raw(U, W, X, Y, u23, u43)


def K(U, Z) -> complex:
    """Nonquadratic part of the inner Hamiltonian."""
    W, X, Y = Z
    _, u23, u43 = inner_powers(U)
    Jv = _J_raw(U, W, X, Y, u23, u43)
    if abs(1.0 + Jv) <= 0.1:
        raise SqrtDomain(f"|1 + J| = {abs(1.0 + Jv):.3f} <= 0.1 at U = {U}")
    return -0.75 * u23 * W * W - (1.0 / (3.0 * u23)) * ((1.0 + Jv) ** -0.5 - 1.0)


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


def grad_K_fd(U, Z):
    """Central-difference gradient of K; the oracle that gates grad_K.

    Each argument is stepped by 1e-6 times max(1, its modulus).
    """
    args = [U, *Z]
    out = []
    for k in range(4):
        h = 1e-6 * max(1.0, abs(args[k]))
        up = list(args)
        dn = list(args)
        up[k] += h
        dn[k] -= h
        out.append((K(up[0], tuple(up[1:])) - K(dn[0], tuple(dn[1:])))
                   / (2.0 * h))
    return tuple(out)


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


# Decaying-solution asymptotics: power of v = U^(-1/3) -> coefficient.  They
# are the truncated power-series fixed point, in v, of the graph-form equation
# (1 + K_W) W' = -K_U, (1 + K_W) X' = i (X + K_Y), (1 + K_W) Y' = -i (Y + K_X)
# with d/dU = -(v^4/3) d/dv, iterated in exact Gaussian-rational arithmetic
# (sympy's QQ_I) until no coefficient changed; truncating the iteration at
# v^44 or at v^52 gives the same table, and tests/test_inner.py re-derives it
# in floating point.  X and Y carry the powers 4 + 3k, Y
# mirrors X (same real, negated imaginary parts), and W carries 8 + 6k.  The
# series diverges, but at |U| = 100 its terms still shrink by a factor of
# about 8 per power of U where it is cut.
_W_SERIES = {
    8: 4 / 243,
    14: -172 / 2187,
    20: 1333976 / 1594323,
    26: -970248164 / 43046721,
    32: 3973610086792 / 3486784401,
    38: -79202986668276536 / 847288609443,
}
_X_SERIES = {
    4: -2 / 9 * 1j,
    7: 28 / 81,
    10: 20 / 27 * 1j,
    13: -16424 / 6561,
    16: -69392 / 6561 * 1j,
    19: 10061752 / 177147,
    22: 1700387296 / 4782969 * 1j,
    25: -37549850000 / 14348907,
    28: -2796825005824 / 129140163 * 1j,
    31: 706432764111208 / 3486784401,
    34: 7266824339775232 / 3486784401 * 1j,
    37: -2227114191216813776 / 94143178827,
    40: -739272671402772352000 / 2541865828329 * 1j,
}
_Y_SERIES = {m: c.conjugate() for m, c in _X_SERIES.items()}
# |Re U| at which both shooting lines are seeded from the series
RE_START = 100.0


def series_Z(U) -> InnerState:
    """Truncated asymptotic series of the decaying solutions, |U| >= 30."""
    if abs(U) < 30.0:
        raise TooClose(f"series only trusted for |U| >= 30, got {abs(U)}")
    v = 1.0 / cbrt_inner(U)

    def term(series):
        return sum(c * v ** m for m, c in series.items())

    return InnerState(W=term(_W_SERIES), X=term(_X_SERIES), Y=term(_Y_SERIES))


def series_Z_derivative(U) -> InnerState:
    """Term-by-term dZ/dU of the truncated series."""
    if abs(U) < 30.0:
        raise TooClose(f"series only trusted for |U| >= 30, got {abs(U)}")
    v = 1.0 / cbrt_inner(U)

    def term(series):
        # d/dU of v^m with v = U^(-1/3) is -(m/3) v^(m+3)
        return sum(c * (-m / 3.0) * v ** (m + 3) for m, c in series.items())

    return InnerState(W=term(_W_SERIES), X=term(_X_SERIES), Y=term(_Y_SERIES))


def series_residual(U) -> float:
    """Sup-norm defect of the truncated series in the graph-form equation.

    Decays like |U|^(-43/3); the coefficient is set by the first dropped
    series term, X and Y at v^43.
    """
    z = series_Z(U).as_tuple()
    dz = series_Z_derivative(U).as_tuple()
    rhs = graph_rhs(U, z)
    return max(abs(a - b) for a, b in zip(dz, rhs))


_BRANCHES = ("unstable", "stable")


def shoot(branch: str, rho: float, re_start: float = RE_START,
          rtol: float = 1e-12, max_step: float = math.inf) -> InnerState:
    """March one decaying solution along Im U = -rho to U = -i rho."""
    return _shoot_record(branch, rho, [0.0], re_start=re_start, rtol=rtol,
                         max_step=max_step)[0.0]


def _shoot_record(branch, rho, xs, re_start=RE_START, rtol=1e-12,
                  max_step=math.inf):
    """Shoot once, recording the state at each requested Re U checkpoint."""
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}")
    if not 8.0 <= rho <= 30.0:
        raise ValueError("rho must lie in [8, 30]")
    # the seed must sit on the side the branch decays toward; a NaN fails too
    if not 0.0 < re_start < math.inf:
        raise ValueError(
            f"re_start must be finite and positive, got {re_start}")
    U0 = complex(-re_start if branch == "unstable" else re_start, -rho)
    order = sorted(xs, reverse=branch == "stable")
    ys = integrate_chain(lambda u, y: graph_rhs(u, tuple(y)), U0,
                         [complex(x, -rho) for x in order],
                         series_Z(U0).as_tuple(), rtol=rtol, atol=1e-14,
                         max_step=max_step)
    return {x: InnerState(*map(complex, y)) for x, y in zip(order, ys)}


@dataclass
class StokesRecord:
    rho: float
    delta_y: complex
    theta: float
    digits_lost: float
    y_unstable: complex
    y_stable: complex


def theta(rho: float, re_start: float = RE_START, rtol: float = 1e-12,
          max_step: float = math.inf) -> StokesRecord:
    """Stokes-constant estimate theta_rho = |Y^u - Y^s|(-i rho) * e^rho.

    Delta Y is a single subtraction of the two full-precision endpoint
    values; the base-10 digits lost to that cancellation are recorded and
    the computation refuses to report once fewer than 3 significant digits
    remain (which caps usable rho near 23 in binary64).
    """
    zu = shoot("unstable", rho, re_start=re_start, rtol=rtol, max_step=max_step)
    zs = shoot("stable", rho, re_start=re_start, rtol=rtol, max_step=max_step)
    dy = zu.Y - zs.Y
    digits_lost = math.log10(abs(zu.Y) / abs(dy)) if dy != 0 else math.inf
    # the shoots carry a relative accuracy of roughly 100 x rtol, so this is
    # what the cancellation eats into; in binary64 at rtol 1e-12 the refusal
    # triggers near rho = 23.
    digits_available = -math.log10(100.0 * rtol)
    if digits_available - digits_lost < 3.0:
        raise PrecisionLoss(
            f"only {digits_available - digits_lost:.1f} significant digits "
            f"left in Delta Y at rho = {rho}"
        )
    return StokesRecord(rho=rho, delta_y=dy, theta=abs(dy) * math.exp(rho),
                        digits_lost=digits_lost,
                        y_unstable=zu.Y, y_stable=zs.Y)


def theta_table(rho_list) -> list[StokesRecord]:
    """Stokes records for a grid of rho values (grid points independent)."""
    return [theta(r) for r in rho_list]


@dataclass
class DiffStructure:
    rho: float
    x_samples: np.ndarray
    ey_values: np.ndarray   # e^{iU} Delta Y per sample
    ex_values: np.ndarray   # e^{iU} Delta X per sample
    ew_values: np.ndarray   # e^{iU} Delta W per sample
    rel_spread_y: float
    xy_suppression: float
    arg_spread_y: float


def diff_structure(rho: float = 15.0) -> DiffStructure:
    """Shape of the two-solution difference across Re U in the overlap zone.

    Samples Re U = -5, -4, ..., 5.  e^{iU} Delta Y should plateau (it tends
    to the Stokes constant), while Delta X and Delta W are suppressed by
    extra powers of U.
    """
    xs = list(np.linspace(-5.0, 5.0, 11))
    zu = _shoot_record("unstable", rho, xs)
    zs = _shoot_record("stable", rho, xs)
    ey, ex, ew = [], [], []
    for x in xs:
        U = complex(x, -rho)
        fac = cmath.exp(1j * U)
        ey.append(fac * (zu[x].Y - zs[x].Y))
        ex.append(fac * (zu[x].X - zs[x].X))
        ew.append(fac * (zu[x].W - zs[x].W))
    ey = np.array(ey)
    ex = np.array(ex)
    ew = np.array(ew)
    mags = np.abs(ey)
    spread = float((mags.max() - mags.min()) / mags.mean())
    args = np.unwrap(np.angle(ey))
    return DiffStructure(
        rho=rho, x_samples=np.asarray(xs), ey_values=ey, ex_values=ex,
        ew_values=ew, rel_spread_y=spread,
        xy_suppression=float(np.max(np.abs(ex) / np.abs(ey))),
        arg_spread_y=float(args.max() - args.min()),
    )


# ---------------------------------------------------------------------------
# consistency with the full model near the singularity
# ---------------------------------------------------------------------------

@dataclass
class InnerLimitFit:
    deltas: np.ndarray
    residuals: np.ndarray
    exponent: float


def _default_limit_samples(seed=7, n=6):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        U = rng.uniform(0.9, 2.5) * cmath.exp(1j * rng.uniform(-2.5, -0.6))
        Z = 0.12 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        out.append((U, tuple(Z)))
    return out


def _compose_inner_hamiltonian(U, Z, delta, A, l3_offsets):
    """Value of the full scaled Hamiltonian at the inner point (U, Z).

    The chain is: inner scaling (U,W,X,Y) -> (u,w,x,y), the separatrix graph
    change Lambda = Lambda_h(u) - w/(3 Lambda_h(u)), the equilibrium offset,
    and the scaled Poincare Hamiltonian.  Lambda_h is continued from the real
    axis along a path that approaches iA from below; along that path family
    the square root of the near-collision factor D[mu-1] stays on its
    principal sheet (verified by winding tracking), which is what
    ``branch_P = +1`` selects.
    """
    ap = separatrix.ALPHA_PLUS
    u = 1j * A + delta * delta * U
    via = 1j * 0.85 * u.imag
    state = separatrix.sigma_sweep([via, u])[-1]
    lam_h, Lam_h = state.lam, state.Lam
    W, X, Y = Z
    d13 = delta ** (1.0 / 3.0)
    w = 2.0 * ap * ap * W / delta ** (4.0 / 3.0)
    x = d13 * math.sqrt(2.0) * ap * X
    y = d13 * math.sqrt(2.0) * ap * Y
    lam_hat, x_hat, y_hat = l3_offsets
    Lam = Lam_h - w / (3.0 * Lam_h) + delta * delta * lam_hat
    h = rpc3bp.h_scaled(lam_h, Lam, x + delta ** 3 * x_hat,
                        y + delta ** 3 * y_hat, delta, branch_P=1.0)
    return delta ** (4.0 / 3.0) / (2.0 * ap * ap) * h


def _cal_h_limit(U, Z):
    # Limit Hamiltonian on the sheet consistent with the composed value-level
    # continuation (principal sqrt(D[mu-1]) along under-the-singularity
    # paths): the bundled square-root term enters with the opposite overall
    # sign relative to the convention the shooting machinery uses.  The two
    # sheets are exchanged by one monodromy loop around the complex collision
    # point that sits between the real axis and the singularity.
    W, X, Y = Z
    _, u23, u43 = inner_powers(U)
    Jv = _J_raw(U, W, X, Y, u23, u43)
    Kc = -0.75 * u23 * W * W + (1.0 / (3.0 * u23)) * ((1.0 + Jv) ** -0.5 - 1.0)
    return W + X * Y + Kc


def verify_inner_limit(deltas=None, samples=None,
                       seed: int = 7) -> InnerLimitFit:
    """Order of the error between the composed and the limit Hamiltonians.

    For each delta, evaluates the fully composed scaled Hamiltonian at fixed
    inner samples (U, Z), aligns the unrecoverable additive constant by
    subtracting the first sample, and measures the worst deviation from the
    limit Hamiltonian.  The fitted decay order should be >= 1.2 (the
    asymptotic claim is delta^(4/3)).
    """
    if deltas is None:
        deltas = (0.05, 0.08, 0.12, 0.2)
    if samples is None:
        samples = _default_limit_samples(seed=seed)
    A = separatrix.compute_A()
    deltas = np.asarray(deltas, dtype=float)
    residuals = []
    for d in deltas:
        offsets = rpc3bp.L3_scaled(d)
        vals = []
        for U, Z in samples:
            composed = _compose_inner_hamiltonian(U, Z, d, A, offsets)
            vals.append(composed - _cal_h_limit(U, Z))
        vals = np.array(vals)
        residuals.append(float(np.max(np.abs(vals - vals[0]))))
    residuals = np.array(residuals)
    if len(deltas) >= 2:
        expo = float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0])
    else:
        expo = math.nan
    return InnerLimitFit(deltas=deltas, residuals=residuals, exponent=expo)
