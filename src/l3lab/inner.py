"""The inner equation near the strip-boundary singularity and its Stokes constant.

After blowing up the singularity at t = iA with U = (u - iA)/delta^2, the
leading Hamiltonian becomes the parameter-free

    calH(U, W, X, Y) = W + X Y + K(U, W, X, Y),

with K built from U^(2/3) and an algebraic function J quadratic in
Z = (W, X, Y).  Two distinguished solutions of the associated graph-form
equation dZ/dU = A Z + R[Z] decay as Re U -> -infinity (unstable-like) and
Re U -> +infinity (stable-like).  The map S (:func:`mirror`) takes the first
at U to the second at -conj U, so only the unstable one is integrated:
seeded from its asymptotic series (kept through U^(-88/3)) at
Re U = -RE_START = -40 and shot along Im U = -rho to the imaginary axis,
where -i rho is its own mirror point.  The difference Delta Y(-i rho)
determines the Stokes constant estimate theta_rho = |Delta Y| e^rho, which
plateaus near 1.63.  A table of rho shoots once to its smallest rho and
carries the solution down the imaginary axis to the others, starting a
fresh shooting after a descent of 7.

All fractional powers of U live on the branch cut along the positive
imaginary axis, arg U in [-3pi/2, pi/2), so the shooting line, the legs
down the imaginary axis and the evaluation points -i rho stay on a single
sheet, which S maps onto itself.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from . import rpc3bp, separatrix
from .numerics import L3labError, fit_line, integrate_chain

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
    "mirror",
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


def _J_parts(U, W, X, Y, u23, u43):
    """J, then the subexpressions of it that grad_K reuses, each formed once."""
    u23_3, u23_9 = 3.0 * u23, 9.0 * u23
    u43_3, u43_9, u43_27 = 3.0 * u43, 9.0 * u43, 27.0 * u43
    U_9, xy_sum, xy_diff = 9.0 * U, X + Y, X - Y
    xy_sq = X * X + Y * Y
    w_shift = W - 2.0 / u23_3
    xy_lin = 4.0 * xy_sum / U_9
    Jv = (4.0 * W * W / u23_9
          - 16.0 * W / u43_27
          + 16.0 / (81.0 * U * U)
          + xy_lin * w_shift
          - 4j * xy_diff / u23_3
          - xy_sq / u43_3
          + 10.0 * X * Y / u43_9)
    return (Jv, u23_3, u23_9, u43_3, u43_9, u43_27, U_9, xy_sum, xy_diff,
            xy_sq, w_shift, xy_lin)


def J(U, Z) -> complex:
    """The algebraic function under the square root of K."""
    W, X, Y = Z
    _, u23, u43 = inner_powers(U)
    return _J_parts(U, W, X, Y, u23, u43)[0]


def K(U, Z) -> complex:
    """Nonquadratic part of the inner Hamiltonian."""
    W, X, Y = Z
    _, u23, u43 = inner_powers(U)
    Jv = _J_parts(U, W, X, Y, u23, u43)[0]
    if abs(1.0 + Jv) <= 0.1:
        raise SqrtDomain(f"|1 + J| = {abs(1.0 + Jv):.3f} <= 0.1 at U = {U}")
    return -0.75 * u23 * W * W - (1.0 / (3.0 * u23)) * ((1.0 + Jv) ** -0.5 - 1.0)


def grad_K(U, Z):
    """Closed-form partials (dK/dU, dK/dW, dK/dX, dK/dY), in one pass.

    One cube root gives every power of U, and each subexpression shared by
    J and the partials is formed once, but only where the term-by-term form
    has the same parentheses (10 X Y stays (10 X) Y): every value and raise
    keeps the bits of that form.
    """
    W, X, Y = Z
    u13 = cbrt_inner(U)
    u23 = u13 * u13
    u43 = u23 * u23
    u53 = u43 * u13
    u73 = u43 * U
    u83 = u43 * u43
    U2 = U * U
    (Jv, u23_3, u23_9, u43_3, u43_9, u43_27, U_9, xy_sum, xy_diff, xy_sq,
     w_shift, xy_lin) = _J_parts(U, W, X, Y, u23, u43)
    Jv1 = 1.0 + Jv
    if abs(Jv1) <= 0.1:
        raise SqrtDomain(f"|1 + J| = {abs(Jv1):.3f} <= 0.1 at U = {U}")
    s = Jv1 ** -0.5
    pref = s / Jv1 / (6.0 * u23)
    u53_9 = 9.0 * u53
    dJ_dW = 8.0 * W / u23_9 - 16.0 / u43_27 + xy_lin
    dJ_even = (4.0 / U_9) * w_shift
    dJ_odd = 4j / u23_3
    dJ_dX = dJ_even - dJ_odd - 2.0 * X / u43_3 + 10.0 * Y / u43_9
    dJ_dY = dJ_even + dJ_odd - 2.0 * Y / u43_3 + 10.0 * X / u43_9
    dJ_dU = (-8.0 * W * W / (27.0 * u53)
             + 64.0 * W / (81.0 * u73)
             - 32.0 / (81.0 * U2 * U)
             + (4.0 * xy_sum / 9.0) * (-W / U2 + 10.0 / (9.0 * u83))
             + 8j * xy_diff / u53_9
             + 4.0 * xy_sq / (9.0 * u73)
             - 40.0 * X * Y / (27.0 * u73))
    dK_dU = -0.5 * W * W / u13 + (2.0 / u53_9) * (s - 1.0) + pref * dJ_dU
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
    """dZ/dU of the graph-form equation A Z + (f - g A Z)/(1 + g).

    One :func:`grad_K` pass, A Z = (0, iX, -iY), f = (-dK/dU, i dK/dY,
    -i dK/dX) and g = dK/dW; the zero in A Z stays in, for signed zeros.
    """
    _, X, Y = Z
    dU, g, dX, dY = grad_K(U, Z)
    den = 1.0 + g
    if abs(den) < 0.5:
        raise TimeReparamSingular(f"|1 + g| = {abs(den):.3f} < 0.5 at U = {U}")
    aX = 1j * X
    aY = -1j * Y
    return (0.0 + (-dU - g * 0.0) / den,
            aX + (1j * dY - g * aX) / den,
            aY + (-1j * dX - g * aY) / den)


# Decaying-solution asymptotics: power of v = U^(-1/3) -> coefficient.  They
# are the truncated power-series fixed point, in v, of the graph-form equation
# (1 + K_W) W' = -K_U, (1 + K_W) X' = i (X + K_Y), (1 + K_W) Y' = -i (Y + K_X)
# with d/dU = -(v^4/3) d/dv, iterated in exact Gaussian-rational arithmetic
# (sympy's QQ_I) until no coefficient changed; truncating the iteration at
# v^92 or at v^100 gives the same table, and tests/test_inner.py re-derives it
# in floating point.  X and Y carry the powers 4 + 3k, Y mirrors X (same
# real, negated imaginary parts), and W carries 8 + 6k; every denominator is
# a power of 3.  The series diverges, each X coefficient being about m/3
# times the one three powers below, so it is cut at a fixed top: through
# v^88 its residual in the equation is at most 2.1e-18 at Re U = -40 on the
# depths rho in [8, 30].
_W_SERIES = {
    8: 4 / 3**5,
    14: -172 / 3**7,
    20: 1333976 / 3**13,
    26: -970248164 / 3**16,
    32: 3973610086792 / 3**20,
    38: -79202986668276536 / 3**25,
    44: 779149160292994584944 / 3**29,
    50: -3552274627284507269625412 / 3**32,
    56: 21508896760990274341863902296 / 3**35,
    62: -4510334580224728599126661576757864 / 3**41,
    68: 14574216105026700481631085255981959120 / 3**43,
    74: -4657926530915330191022228899929338969229304 / 3**49,
    80: 198372835366791843242110208630962795389203073904 / 3**53,
    86: -3326904665133361532426109318753178441829225194320976 / 3**56,
}
_X_SERIES = {
    4: -2 / 3**2 * 1j,
    7: 28 / 3**4,
    10: 20 / 3**3 * 1j,
    13: -16424 / 3**8,
    16: -69392 / 3**8 * 1j,
    19: 10061752 / 3**11,
    22: 1700387296 / 3**14 * 1j,
    25: -37549850000 / 3**15,
    28: -2796825005824 / 3**17 * 1j,
    31: 706432764111208 / 3**20,
    34: 7266824339775232 / 3**20 * 1j,
    37: -2227114191216813776 / 3**23,
    40: -739272671402772352000 / 3**26 * 1j,
    43: 88812120838692255465488 / 3**28,
    46: 3809943949913089815044096 / 3**29 * 1j,
    49: -1578649343855152681769090528 / 3**32,
    52: -8579334619271808327666909184 / 3**31 * 1j,
    55: 446419852738017828718854037160 / 3**32,
    58: 5957857845057109520471640437620736 / 3**38 * 1j,
    61: -1037216695994344903534132785317643248 / 3**40,
    64: -21065565096306587798808246666139664384 / 3**40 * 1j,
    67: 36417130970759415204795313733849962746032 / 3**44,
    70: 30093843325541242269555571773190137315328 / 3**41 * 1j,
    73: -512082328752785812589587259748154232651380448 / 3**47,
    76: -336165938176630447884241005371633942306244001792 / 3**50 * 1j,
    79: 76669459022646676877559353600237324805519692407696 / 3**52,
    82: 6052709130725688775689705593955394799979187608223744 / 3**53 * 1j,
    85: -4468081798710621731695764969118197669790986172111433056 / 3**56,
    88: -14057811613556192295424044919751077322966348788171538432 / 3**54 * 1j,
}
_Y_SERIES = {m: c.conjugate() for m, c in _X_SERIES.items()}
# the seed of shoot keeps every term; series_Z keeps those through v^40, the
# truncation whose residual order check 9 fits
_SEED_SERIES = (_W_SERIES, _X_SERIES, _Y_SERIES)
_SERIES = tuple({m: c for m, c in s.items() if m <= 40} for s in _SEED_SERIES)
# -Re U at which the shooting line is seeded from the series
RE_START = 40.0
# the bounds shoot puts on re_start: at rho = 8 the seed's residual is
# 5.2e-18 at 38, 9.8e-18 at 37, 4.9e-17 at 35 and 3.9e-15 at 30, the
# TooClose edge of the series; above 1e4 the horizontal leg grows without
# bound for no gain, the seed being at the round-off floor
_RE_START_MIN = 38.0
_RE_START_MAX = 1e4
# the depths rho that shoot and theta_table accept
_RHO_MIN, _RHO_MAX = 8.0, 30.0


def _series_state(U, series, derivative=False) -> InnerState:
    """The sum of ``series``, or of its term-by-term dZ/dU, at U."""
    if abs(U) < 30.0:
        raise TooClose(f"series only trusted for |U| >= 30, got {abs(U)}")
    v = 1.0 / cbrt_inner(U)
    if derivative:
        # d/dU of v^m with v = U^(-1/3) is -(m/3) v^(m+3)
        return InnerState(*(sum(c * (-m / 3.0) * v ** (m + 3)
                                for m, c in s.items()) for s in series))
    return InnerState(*(sum(c * v ** m for m, c in s.items())
                        for s in series))


def series_Z(U) -> InnerState:
    """Asymptotic series of the decaying solutions through v^40, |U| >= 30."""
    return _series_state(U, _SERIES)


def series_Z_derivative(U) -> InnerState:
    """Term-by-term dZ/dU of :func:`series_Z`."""
    return _series_state(U, _SERIES, derivative=True)


def _residual(U, series) -> float:
    # sup-norm defect of the summed series in the graph-form equation
    z = _series_state(U, series).as_tuple()
    dz = _series_state(U, series, derivative=True).as_tuple()
    rhs = graph_rhs(U, z)
    return max(abs(a - b) for a, b in zip(dz, rhs))


def series_residual(U) -> float:
    """Sup-norm defect of :func:`series_Z` in the graph-form equation.

    Decays like |U|^(-43/3); the coefficient is set by the first dropped
    series term, X and Y at v^43.
    """
    return _residual(U, _SERIES)


def shoot(rho: float, points, re_start: float = RE_START,
          rtol: float = 1e-12) -> list[InnerState]:
    """The unstable solution at each U in ``points``, in order.

    It is seeded from its series at U = -re_start - i rho and carried through
    the points, given in the order of travel, as one chain of straight legs;
    its :func:`mirror` is the stable one.  The seed keeps the series through
    v^88.  ``re_start`` must lie in [38, 1e4].
    """
    if not _RHO_MIN <= rho <= _RHO_MAX:
        raise ValueError(f"rho {rho} leaves [{_RHO_MIN:g}, {_RHO_MAX:g}]")
    # a NaN fails too
    if not _RE_START_MIN <= re_start <= _RE_START_MAX:
        raise ValueError(f"re_start must lie in [{_RE_START_MIN:g}, "
                         f"{_RE_START_MAX:g}], got {re_start}")
    U0 = complex(-re_start, -rho)
    ys = integrate_chain(graph_rhs, U0, points,
                         _series_state(U0, _SEED_SERIES).as_tuple(),
                         rtol=rtol, atol=1e-14)
    return [InnerState(*map(complex, y)) for y in ys]


_OMEGA = complex(0.5, 0.5 * math.sqrt(3.0))    # e^(i pi/3)


def mirror(z: InnerState) -> InnerState:
    """S, the stable solution at -conj U from the unstable one at U.

    S: (U, W, X, Y) -> (-conj U, w^2 conj W, w conj X, w conj Y) with
    w = e^(i pi/3) maps the graph-form equation and its series onto
    themselves, and decay as Re U -> -infinity onto decay as Re U -> +infinity.
    """
    w = _OMEGA
    return InnerState(w * w * z.W.conjugate(), w * z.X.conjugate(),
                      w * z.Y.conjugate())


@dataclass
class StokesRecord:
    rho: float
    delta_y: complex
    theta: float
    digits_lost: float
    y_unstable: complex
    y_stable: complex          # mirror of the unstable state at -i rho


def theta(rho: float) -> StokesRecord:
    """Stokes-constant estimate theta_rho = |Y^u - Y^s|(-i rho) * e^rho.

    The one-row case of :func:`theta_table`: the unstable solution is shot
    along Im U = -rho.  Raises :class:`PrecisionLoss` where the table
    refuses the row.
    """
    rec = theta_table([rho])[0]
    if isinstance(rec, PrecisionLoss):
        raise rec
    return rec


# A chained row may sit at most this far below its anchor.  Going down the
# imaginary axis, the Y-mode of the linearised equation decays like e^(-rho),
# as Delta Y does, so Y errors carried from the anchor keep their relative
# size; X-mode errors grow like e^(rho - rho_anchor), and their leak into
# Delta Y like e^(2 (rho - rho_anchor)) relative to Delta Y.  Measured on
# theta_rho against per-row shootings at rtol 1e-14, with the seed at
# Re U = -40: rows chained at rtol 1e-12 from anchors at rho = 10, 13, 15
# and 16 over descents of up to 7 had at most 1.1x the largest error of
# per-row shootings at rtol 1e-12 over the same rows; from one anchor at
# rho = 8, rows 18-22 had 100x to 1,700x the per-row error.
_MAX_DESCENT = 7.0


def theta_table(rho_list,
                rtol: float = 1e-12) -> list[StokesRecord | PrecisionLoss]:
    """Stokes records for a grid of rho values, in input order.

    The unstable solution is shot once along Im U = -rho_0 from
    Re U = -RE_START to the anchor -i rho_0, rho_0 the smallest rho, and
    then carried down the imaginary axis through the larger rho, one
    vertical leg per row.  A row more than ``_MAX_DESCENT`` below its anchor
    starts a fresh anchor shooting.  Y^s at -i rho, its own mirror point, is
    ``mirror(u).Y``.  Delta Y is a single subtraction of the two
    full-precision values; the base-10 digits lost to that cancellation are
    recorded, and a row with fewer than 3 significant digits left is
    refused: its entry is the :class:`PrecisionLoss` that says so, not a
    record (this caps usable rho near 23 in binary64 at rtol 1e-12).  A rho
    outside [8, 30] or NaN raises :class:`ValueError` before any
    integration.
    """
    rhos = [float(r) for r in rho_list]
    for r in rhos:
        if not _RHO_MIN <= r <= _RHO_MAX:
            raise ValueError(f"rho {r} leaves [{_RHO_MIN:g}, {_RHO_MAX:g}]")
    grid = sorted(set(rhos))
    rows = {}
    while grid:
        # the anchor grid[0] and the rows it carries
        chain = [r for r in grid if r - grid[0] <= _MAX_DESCENT]
        grid = grid[len(chain):]
        points = [complex(0.0, -r) for r in chain]
        zu = shoot(chain[0], points, rtol=rtol)
        for r, u in zip(chain, zu):
            rows[r] = _stokes_row(r, u.Y, mirror(u).Y, rtol)
    return [rows[r] for r in rhos]


# The refusal rule is pessimistic: against rtol 1e-14, the rtol-1e-12 rows
# of the rho = 8..30 table differ by 1.4e-9 relative at rho = 20, 1.2e-8 at
# 22 (3.07 digits left by the rule), 4.4e-8 to 9.6e-7 at 23-27 (refused)
# and 4.3e-6 to 3.7e-5 at 28-30, where the rtol-1e-14 table itself is up to
# 3.5e-4 from per-row shootings at rtol 1e-14 (seed at Re U = -40).
def _stokes_row(rho, y_u, y_s, rtol):
    """The record for one row, or the PrecisionLoss that refuses it."""
    dy = y_u - y_s
    digits_lost = math.log10(abs(y_u) / abs(dy)) if dy != 0 else math.inf
    # the shooting carries a relative accuracy of roughly 100 x rtol, so
    # this is what the cancellation eats into
    digits_available = -math.log10(100.0 * rtol)
    if digits_available - digits_lost < 3.0:
        return PrecisionLoss(
            f"only {digits_available - digits_lost:.1f} significant digits "
            f"left in Delta Y at rho = {rho}"
        )
    return StokesRecord(rho=rho, delta_y=dy, theta=abs(dy) * math.exp(rho),
                        digits_lost=digits_lost, y_unstable=y_u, y_stable=y_s)


@dataclass
class DiffStructure:
    rho: float
    x_samples: list[float]
    ey_values: list[complex]   # e^{iU} Delta Y per sample
    ex_values: list[complex]   # e^{iU} Delta X per sample
    ew_values: list[complex]   # e^{iU} Delta W per sample
    rel_spread_y: float
    xy_suppression: float
    arg_spread_y: float


# the depth Im U = -rho of diff_structure's samples
_DIFF_RHO = 15.0


def diff_structure() -> DiffStructure:
    """Shape of the two-solution difference across Re U in the overlap zone.

    Samples Re U = -5, -4, ..., 5 at Im U = -15.  e^{iU} Delta Y should
    plateau (it tends to the Stokes constant), while Delta X and Delta W are
    suppressed by extra powers of U.  The grid is symmetric, so the stable
    state at x - 15i is the mirror of the unstable one at -x - 15i.
    """
    rho = _DIFF_RHO
    xs = [float(x) for x in range(-5, 6)]
    points = [complex(x, -rho) for x in xs]
    zu = shoot(rho, points)
    zs = [mirror(u) for u in reversed(zu)]
    ey, ex, ew = [], [], []
    for U, u, s in zip(points, zu, zs):
        fac = cmath.exp(1j * U)
        ey.append(fac * (u.Y - s.Y))
        ex.append(fac * (u.X - s.X))
        ew.append(fac * (u.W - s.W))
    mags = [abs(z) for z in ey]
    spread = (max(mags) - min(mags)) / (math.fsum(mags) / len(mags))
    # the argument of e^{iU} Delta Y, unwrapped along the samples
    args = [cmath.phase(z) for z in ey]
    for k in range(1, len(args)):
        args[k] -= _TWO_PI * round((args[k] - args[k - 1]) / _TWO_PI)
    return DiffStructure(
        rho=rho, x_samples=xs, ey_values=ey, ex_values=ex, ew_values=ew,
        rel_spread_y=spread,
        xy_suppression=max(abs(a) / abs(b) for a, b in zip(ex, ey)),
        arg_spread_y=max(args) - min(args),
    )


# ---------------------------------------------------------------------------
# consistency with the full model near the singularity
# ---------------------------------------------------------------------------

@dataclass
class InnerLimitFit:
    deltas: tuple[float, ...]
    residuals: tuple[float, ...]
    exponent: float


# The default inner samples (U, (W, X, Y)), the points check 12 has always
# used, so its residuals stay comparable: six draws of
# U = uniform(0.9, 2.5) e^(i uniform(-2.5, -0.6)) and, per component,
# 0.12 (N(0, 1) + i N(0, 1)), as numpy's default_rng(7) made them.
_LIMIT_SAMPLES = (
    ((1.330249468807057-1.3568407463760925j),
     ((-0.03289654264346611-0.11899758659957548j),
      (-0.10687102065087291+0.0072172323116926175j),
      (-0.0545604942206067+0.16082582946654403j))),
    ((-0.08726585601757772-2.1735599810592445j),
     ((0.05878104602222378-0.11165616536498456j),
      (0.042826440979207285-0.0035102186955928184j),
      (0.012649709879747827+0.08343638333499453j))),
    ((1.3595476797171202-2.089421979285375j),
     ((-0.2281467287761013-0.02821093572896175j),
      (-0.15474452877419712-0.15209357777324437j),
      (-0.22100820453500786+0.03255172305860418j))),
    ((0.04695990561456563-0.9559356990946795j),
     ((-0.30201116529846156+0.013597078320396907j),
      (-0.06464314750159639-0.1836162918606472j),
      (-0.005820113448128638-0.05733039312407168j))),
    ((0.45435240082082634-1.119128968516147j),
     ((0.12730783480632943+0.10612678408598086j),
      (-0.09690416103982757-0.07003205192919623j),
      (-0.0039026045934624715-0.013404233950099155j))),
    ((0.0909299911419625-2.306739945374635j),
     ((-0.1470066991701232-0.18565736137541788j),
      (0.00913682764524097+0.10312592256259179j),
      (0.1630588106089845+0.014322483083589748j))),
)


def _random_limit_samples(seed):
    # as many draws from the distribution of _LIMIT_SAMPLES, from the stdlib
    # generator
    rng = random.Random(seed)
    return [(rng.uniform(0.9, 2.5) * cmath.exp(1j * rng.uniform(-2.5, -0.6)),
             tuple(0.12 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                   for _ in range(3)))
            for _ in range(len(_LIMIT_SAMPLES))]


def _compose_inner_hamiltonian(state, Z, delta, l3_offsets):
    """Value of the full scaled Hamiltonian at the inner point (U, Z).

    The chain is: inner scaling (U,W,X,Y) -> (u,w,x,y), the separatrix graph
    change Lambda = Lambda_h(u) - w/(3 Lambda_h(u)), the equilibrium offset,
    and the scaled Poincare Hamiltonian.  ``state`` is (lambda_h, Lambda_h)
    at u = iA + delta^2 U, continued up the imaginary axis and down the ray
    into iA (:func:`verify_inner_limit`); below iA sigma is single-valued,
    so the path does not matter.  Along such paths the square root of the
    near-collision factor D[mu-1] stays on its principal sheet (verified by
    winding tracking), the sheet :func:`~l3lab.rpc3bp.h_scaled` evaluates.
    """
    ap = separatrix.ALPHA_PLUS
    lam_h, Lam_h = state.lam, state.Lam
    W, X, Y = Z
    d13 = delta ** (1.0 / 3.0)
    w = 2.0 * ap * ap * W / delta ** (4.0 / 3.0)
    x = d13 * math.sqrt(2.0) * ap * X
    y = d13 * math.sqrt(2.0) * ap * Y
    lam_hat, x_hat, y_hat = l3_offsets
    Lam = Lam_h - w / (3.0 * Lam_h) + delta * delta * lam_hat
    h = rpc3bp.h_scaled(lam_h, Lam, x + delta ** 3 * x_hat,
                        y + delta ** 3 * y_hat, delta)
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
    Jv = _J_parts(U, W, X, Y, u23, u43)[0]
    Kc = -0.75 * u23 * W * W + (1.0 / (3.0 * u23)) * ((1.0 + Jv) ** -0.5 - 1.0)
    return W + X * Y + Kc


# the deltas at which verify_inner_limit measures the residual
_LIMIT_DELTAS = (0.05, 0.08, 0.12, 0.2)


def verify_inner_limit(seed: int | None = None) -> InnerLimitFit:
    """Order of the error between the composed and the limit Hamiltonians.

    For each delta, evaluates the fully composed scaled Hamiltonian at fixed
    inner samples (U, Z), aligns the unrecoverable additive constant by
    subtracting the first sample, and measures the worst deviation from the
    limit Hamiltonian at delta = 0.05, 0.08, 0.12 and 0.2.  The fitted
    decay order should be >= 1.2 (the asymptotic claim is delta^(4/3)).
    Without a ``seed`` the six fixed samples ``_LIMIT_SAMPLES`` are used;
    with one, six drawn from ``random.Random(seed)``.

    One chain per sample continues sigma up the imaginary axis, then down
    the ray u = iA + delta^2 U through the deltas, largest first.  As
    Im U < 0 it stays in the strip |Im t| < A, where sigma is single-valued,
    so the states do not depend on the path.
    """
    deltas = _LIMIT_DELTAS
    samples = (_LIMIT_SAMPLES if seed is None
               else _random_limit_samples(seed))
    A = separatrix.compute_A()
    down = sorted(deltas, reverse=True)
    states = []
    for U, _ in samples:
        ray = [1j * A + d * d * U for d in down]
        chain = separatrix.sigma_sweep([1j * 0.85 * ray[0].imag, *ray])
        states.append(dict(zip(down, chain[1:])))
    residuals = []
    for d in deltas:
        offsets = rpc3bp.L3_scaled(d)
        vals = []
        for (U, Z), at in zip(samples, states):
            composed = _compose_inner_hamiltonian(at[d], Z, d, offsets)
            vals.append(composed - _cal_h_limit(U, Z))
        residuals.append(max(abs(v - vals[0]) for v in vals))
    expo = fit_line([math.log(d) for d in deltas],
                    [math.log(r) for r in residuals])[0]
    return InnerLimitFit(deltas=deltas, residuals=tuple(residuals),
                         exponent=expo)
