"""Shared high-accuracy primitives.

The tools used everywhere else in the package:

* :func:`ode_steps` -- the package's one ODE stepper, an embedded
  Dormand--Prince 8(5,3) pair (Hairer's DOP853) with compensated (Kahan)
  accumulation of the solution, as a generator of accepted steps along one
  :class:`Line`; each step carries the method's seventh-order dense output.
* :func:`integrate_ode` -- adaptive integration of a complex ODE along one
  straight leg a -> b in the complex plane of the independent variable.
* :func:`integrate_chain` -- the states of such an ODE at a chain of
  checkpoints, one :func:`integrate_ode` leg per step of the chain
  (separatrix sweeps, inner shooting and the zero scan's walk around its
  contour);
  each leg after the first starts from the step size the controller
  proposed at the end of the previous leg instead of Hairer's
  starting-step heuristic.
* :func:`quad_path` -- tanh-sinh (double exponential) quadrature along one
  :class:`Line` or :class:`Arc`, so integrable endpoint singularities
  |x|^alpha with alpha > -1 need no special casing.  Each node is sampled
  by a closure bound to the segment before the first level: the chord of a
  Line is taken once, and one ``cmath.exp`` gives an Arc node's point and
  derivative.  An integrand that is not finite raises :class:`NonFinite`.
* :func:`find_root` -- safeguarded Newton iteration on a bracket; it
  refuses an end, a tol or a value of ``g`` that is not finite.
* :func:`fit_line` -- the least-squares line through sample points, and
  :func:`linspace` / :func:`geomspace`, the sample grids of the fits.

The routines above are pure functions of their inputs and safe to call
concurrently.  The package's one fan-out is not; ``l3lab._fanout``
describes it.

:class:`L3labError` is the base of every exception the package raises for a
numerical failure; each module's concrete classes subclass it directly.
Invalid arguments raise :class:`ValueError` instead.

The same stepper serves the complex-time paths and the real-time manifold
tracing of :mod:`l3lab.splitting`, which steps it in time units on real
states and finds the section crossings on the dense output.  States are
lists of Python scalars, as everywhere in the package, which needs no array
library: the fields here have 2 to 4 components.
Each step attempt is straight-line code generated from the tableau for the
length of the state, with every stage in scalar locals.  It evaluates the
field at each stage with the chain rule written out (inline arithmetic on a
:class:`Line`), and ends with the step's error norm and error scale, so the
step loop around it only runs the step-size controller.  One attempt serves
float and complex states: its finiteness test ``0.0 * x != 0.0`` holds for
both, and its error norm is summed as ``x * x`` first, with the real and
imaginary halves summed apart only when that sum is not a float, so real
states skip the imaginary half, exactly ``+ 0.0`` on floats, with the same
bits.  A field that turns complex on real states steps on in the same
attempt.  An autonomous field written as straight-line statements, a
:class:`_FieldBody` (:func:`l3lab.rpc3bp.cart_flow`'s in real time, the
separatrix field of :mod:`l3lab.separatrix` in complex time), is not called
by the attempt: each stage runs the statements on its components, the same
operations with the same bits, which spares twelve calls per attempt.  On
a 2-component linear field stepped along ``Line(0, 1)`` an accepted step
takes about 25 us on complex states and 10 us on real ones; one attempt on
the 4-component ``cart_flow`` field takes about 16.5 us, against 19 us when
it calls the field, and one on the 2-component separatrix field on complex
states about 23 us, against 26-27 us (best of 15 runs of 2,000 attempts,
on a 2-vCPU Xeon host whose speed drifts by up to 2x).  A field should
therefore return Python numbers: numpy scalars would carry their
per-operation cost into every stage sum.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import math

from . import _dop853 as _tab

__all__ = [
    "Line",
    "Arc",
    "OdeResult",
    "OdeStep",
    "QuadResult",
    "ode_steps",
    "integrate_ode",
    "integrate_chain",
    "quad_path",
    "find_root",
    "fit_line",
    "linspace",
    "geomspace",
    "L3labError",
    "StepUnderflow",
    "NonFinite",
    "NoConvergence",
    "NoBracket",
]


class L3labError(Exception):
    """Base class for every numerical failure raised by the package."""


class StepUnderflow(L3labError):
    """Adaptive step fell below 1e-14 in the segment parameter.

    Usually means a singularity of the field sits on or very near the path.
    """


class NonFinite(L3labError):
    """The field or the state overflowed, divided by zero or became NaN."""


class NoConvergence(L3labError):
    """Successive quadrature refinements disagree by more than 10x tol."""


class NoBracket(L3labError):
    """Root bracket endpoints do not straddle a sign change."""


class _Record:
    """Base of the package's records, whose ``__slots__`` are their fields.

    Gives field-wise ``==`` within one class, the repr
    ``Name(field=value, ...)`` and pickling through ``__init__``.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class _Value(_Record):
    """A :class:`_Record` that refuses assignment and hashes by its fields;
    its ``__init__`` sets them with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class Line(_Value):
    """Straight segment from ``a`` to ``b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def start(self) -> complex:
        return self.a

    @property
    def end(self) -> complex:
        return self.b

    def length(self) -> float:
        return abs(self.b - self.a)


class Arc(_Value):
    """Circular arc ``center + radius*exp(i*phi)``, ``phi`` from start to end.

    ``phi_end < phi_start`` traverses clockwise; a full turn is allowed.
    """

    __slots__ = ("center", "radius", "phi_start", "phi_end")

    def __init__(self, center: complex, radius: float, phi_start: float,
                 phi_end: float):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "phi_start", phi_start)
        object.__setattr__(self, "phi_end", phi_end)

    @property
    def start(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.phi_start)

    @property
    def end(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.phi_end)

    def length(self) -> float:
        return self.radius * abs(self.phi_end - self.phi_start)


Segment = Line | Arc


def _check_segment(seg: Segment):
    length = seg.length()
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("segment length must be finite and positive")


class OdeResult(_Record):
    """End state and work of one leg.

    ``next_step`` is the step the controller proposed after the last
    accepted step, in units of the independent variable: |h| * |b - a|.
    """

    __slots__ = ("y_end", "steps", "rejected", "max_err_est", "next_step")

    def __init__(self, y_end: list[complex], steps: int, rejected: int,
                 max_err_est: float, next_step: float):
        self.y_end, self.steps, self.rejected = y_end, steps, rejected
        self.max_err_est, self.next_step = max_err_est, next_step


class QuadResult(_Record):
    __slots__ = ("value", "err", "evals")

    def __init__(self, value: complex, err: float, evals: int):
        self.value, self.err, self.evals = value, err, evals


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_EXP = -1.0 / (_tab.ERROR_ESTIMATOR_ORDER + 1)
_MIN_STEP = 1e-14  # in the segment parameter: 1e-14 of an integrate_ode leg


def _nonzero(coeffs):
    """(stage, coefficient) pairs of the nonzero entries of a tableau row."""
    return tuple((j, c) for j, c in enumerate(coeffs) if c != 0.0)


# (node, nonzero row of A) for stages 1..11; stage 0 is the field at the
# start of the step
_STAGES = tuple((_tab.C[i], _nonzero(_tab.A[i][:i]))
                for i in range(1, _tab.N_STAGES))
_B = _nonzero(_tab.B)
_E3 = _nonzero(_tab.E3)
_E5 = _nonzero(_tab.E5)
# (node, nonzero row of A) for the dense-output stages 13..15, and the rows
# of D; both reach stage 12, the field at the end of the step
_DENSE = tuple((c, _nonzero(row))
               for c, row in zip(_tab.C_EXTRA, _tab.A_EXTRA))
_D = tuple(_nonzero(row) for row in _tab.D)


class _FieldBody(_Value):
    """An autonomous field written as straight-line statements, which the
    step attempt pastes at each stage in place of a call.

    ``text`` reads the state components, the locals named in ``state``, and
    the constants named in ``params``, which may be empty, and binds the
    components of dy/dt to the names in ``out``; it reads the module-level
    names of ``scope``, a tuple of (name, value) pairs, and never the
    independent variable.  Its names must not be the attempt's own: ``a``,
    ``d``, ``s``, ``h``, ``y``, ``f``, ``comp``, ``rtol``, ``atol``,
    ``params``, ``sqrt``, ``NonFinite`` and the indexed names of
    :func:`_attempt_source`.
    :func:`_inline_field` binds the params to values and returns the field
    as a callable compiled from the same text.

    A body is a compile unit: :func:`_attempt` and :func:`_field_binder`
    cache on it, and it compares and hashes by identity, so a lookup does
    not hash its text and scope on every leg; a second body with equal
    fields compiles its own.  Like every :class:`_Value`, it refuses
    assignment.
    """

    __slots__ = ("params", "state", "out", "text", "scope")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, params: tuple[str, ...], state: tuple[str, ...],
                 out: tuple[str, ...], text: str,
                 scope: tuple[tuple[str, object], ...]):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "scope", scope)


def _target(vs):
    """An assignment target or tuple display of the names ``vs``."""
    return ", ".join(vs) + ("," if len(vs) == 1 else "")


def _compile(source, label, name, body):
    """The function ``name`` that the generated ``source`` defines, run
    with the names of ``body``'s scope among its globals."""
    scope = {"sqrt": math.sqrt, "NonFinite": NonFinite}
    if body is not None:
        scope.update(body.scope)
    exec(compile(source, f"<{label}>", "exec"), scope)
    return scope[name]


def _attempt_source(n, body=None):
    """Source of one straight-line DOP853 step attempt on states of length n.

    The attempt steps y' = d * field(a + s*d, y) along the line ``a + s*d``.
    Without a ``body``, each stage calls ``field`` itself and applies the
    chain rule inline: the node is ``a + (s + c*h) * d`` and each component
    is multiplied by ``d``, the operations of :meth:`Line.point` and
    :meth:`Line.derivative` with ``d = b - a``.  With a :class:`_FieldBody`,
    the attempt takes the tuple of the body's params in place of ``field``
    (unpacked only when there are any), and each stage binds the body's
    state names to its components, runs the body's text and multiplies the
    body's outputs by ``d``: the same operations on the same values as the
    call, without the call, its argument list, its tuple and the node, which
    an autonomous field never reads.  Component k of stage i is the local
    ``k<i>_<k>``; stage 0 is ``f``, the field at the start of the step, and
    stage 12 the field at its end.  Every stage sum, the B update and each
    E5/E3 error sum is one expression over the nonzero tableau entries as
    ``repr`` literals, in row order from 0.0.  Each stage is checked for
    finiteness before the next field evaluation, by one test
    ``0.0 * k<i>_0 + 0.0 * k<i>_1 + ... != 0.0``: ``0.0 * x`` is a zero for
    every finite float or complex x and NaN otherwise, so the sum is nonzero
    exactly when some component is not finite, on either scalar type.  A
    called field of the wrong length fails its unpacking with
    ``ValueError``.  The error sums are divided by the scale
    ``atol + rtol * max(|y_k|, |y_new_k|)``, the larger taken by a
    comparison, and reduced to the mixed 5/3 error norm.

    The norm is first summed as ``x * x`` over the E5 terms.  When that sum
    is a float, every E5 term is a float, and so is every E3 term, which
    weighs the same stages (0 and 5-11): the E3 norm is summed the same way,
    which is the generic form's bits on floats, whose imaginary half is
    exactly ``+ 0.0``.  Otherwise (complex states, numpy scalars, or a field
    that turns complex on real states) both norms are taken in the generic
    form, real parts summed before imaginary parts.
    """
    comps = range(n)

    def names(prefix):
        return [f"{prefix}{k}" for k in comps]

    def stage(i):
        return names(f"k{i}_")

    def dot(terms, k):
        return " + ".join(["0.0", *(f"{c!r} * k{j}_{k}" for j, c in terms)])

    def check(vs, what):
        test = " + ".join(f"0.0 * {v}" for v in vs)
        return [f"    if ({test}) != 0.0:",
                f"        raise NonFinite(f'{what} not finite near path point"
                f" {{a + s * d}}')"]

    def call(node, vs, args):
        # the field at line parameter `node`, times the line's derivative
        if body is None:
            lines = [f"    {_target(vs)} = field(a + ({node}) * d,"
                     f" [{', '.join(args)}])"]
            lines += [f"    {v} = d * {v}" for v in vs]
        else:
            lines = [f"    {z} = {x}" for z, x in zip(body.state, args)]
            lines += [f"    {line}" for line in body.text.splitlines()]
            lines += [f"    {v} = d * {o}" for v, o in zip(vs, body.out)]
        return lines + check(vs, "field")

    def sq_norm(v, parts):
        # sum_k |v_k|^2, one sum per part: x * x alone, or the real parts'
        # sum plus the imaginary parts' sum
        return " + ".join(
            f"({' + '.join(['0.0', *(f'{x}{p} * {x}{p}' for x in v)])})"
            for p in parts)

    first = "field" if body is None else "params"
    lines = [f"def attempt({first}, a, d, s, h, y, comp, f, rtol, atol):"]
    if body is not None and body.params:
        lines += [f"    {_target(body.params)} = params"]
    lines += [f"    {_target(names('y'))} = y",
              f"    {_target(names('comp'))} = comp",
              f"    {_target(stage(0))} = f"]
    for i, (c, row) in enumerate(_STAGES, start=1):
        y_i = [f"y{k} + h * ({dot(row, k)})" for k in comps]
        lines += call(f"s + {c!r} * h", stage(i), y_i)
    # compensated update: y_new = y + t, carrying the rounding term
    lines += [f"    t{k} = h * ({dot(_B, k)}) + comp{k}" for k in comps]
    lines += [f"    yn{k} = y{k} + t{k}" for k in comps]
    lines += check(names("yn"), "state")
    last = len(_STAGES) + 1
    lines += call("s + h", stage(last), names("yn"))
    # |y_k| and |y_new_k| are finite floats, so the comparison picks as max()
    for k in comps:
        lines += [f"    u{k}, v{k} = abs(y{k}), abs(yn{k})",
                  f"    sc{k} = atol + rtol * (u{k} if u{k} >= v{k} else v{k})"]
    lines += [f"    x5_{k} = ({dot(_E5, k)}) / sc{k}" for k in comps]
    lines += [f"    x3_{k} = ({dot(_E3, k)}) / sc{k}" for k in comps]
    stages = ", ".join(f"[{', '.join(f'k{i}_{k}' for i in range(last + 1))}]"
                       for k in comps)
    generic = (".real", ".imag")
    # n5 = 0 makes the norm exactly 0, whatever n3 is: on a leg of ~1e-161
    # n5 underflows to 0 while n3 is subnormal, and 0.01 * n3 rounds to 0
    lines += [
        f"    n5 = {sq_norm(names('x5_'), ('',))}",
        "    if n5.__class__ is float:",
        f"        n3 = {sq_norm(names('x3_'), ('',))}",
        "    else:",
        f"        n5 = {sq_norm(names('x5_'), generic)}",
        f"        n3 = {sq_norm(names('x3_'), generic)}",
        "    if n5 == 0.0:",
        "        err_norm = 0.0",
        "    else:",
        f"        err_norm = abs(h) * n5 / sqrt((n5 + 0.01 * n3) * {n})",
        f"    return ([{', '.join(names('yn'))}],",
        f"            [{', '.join(f't{k} - (yn{k} - y{k})' for k in comps)}],",
        f"            [{', '.join(stage(last))}],",
        f"            err_norm, max([{', '.join(names('sc'))}]),",
        f"            [{stages}])",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _attempt(n, body=None):
    """The compiled step attempt for states of length n, made at first use.

    ``attempt(field, a, d, s, h, y, comp, f, rtol, atol)`` steps the line
    ``a + s*d`` from s by h and returns
    ``(y_new, comp_new, f_new, err_norm, max_scale, K)``: the state, its
    Kahan carry and the chain-ruled field at the end of the step,
    the mixed 5/3 error norm (accept below 1), the largest component of the
    error scale, and ``K[k][i]``, component k of stage i for i = 0..12.
    With a :class:`_FieldBody`, the attempt pastes the body at each stage
    and takes the tuple of the body's param values in place of ``field``;
    it compiles once per body, whatever the values.  One attempt serves
    float and complex states alike.
    """
    return _compile(_attempt_source(n, body), f"DOP853 attempt, n={n}",
                    "attempt", body)


@functools.cache
def _field_binder(body):
    """``bind(*values)``, compiled from ``body``'s text at first use, which
    returns the field ``f(t, z)`` with the body's params bound to values."""
    state, out = _target(body.state), _target(body.out)
    lines = [f"def bind({', '.join(body.params)}):",
             "    def field(t, z):",
             f"        {state} = z",
             *(f"        {line}" for line in body.text.splitlines()),
             f"        return ({out})",
             "    return field"]
    return _compile("\n".join(lines) + "\n", "field body", "bind", body)


def _inline_field(body, values):
    """The field ``f(t, z)`` that ``body`` computes at its param ``values``.

    The callable is compiled from the body's text, and carries
    ``_inline = (body, values)``, from which :func:`_steps` takes the
    attempt that pastes the body at each stage.
    """
    field = _field_binder(body)(*values)
    field._inline = body, values
    return field


def _combine(terms, K):
    """sum_j c_j K[k][j] for each component k, over the nonzero (j, c_j)."""
    out = []
    for Kk in K:
        acc = 0.0
        for j, c in terms:
            acc += c * Kk[j]
        out.append(acc)
    return out


def _sq_norm(v, scale):
    """sum_k |v_k / scale_k|^2, by multiplication so it overflows to inf."""
    re = im = 0.0
    for x, sc in zip(v, scale):
        x /= sc
        re += x.real * x.real
        im += x.imag * x.imag
    return re + im


def _finite(v):
    return all(map(cmath.isfinite, v))


def _check_length(k, n):
    if len(k) != n:
        raise ValueError(
            f"field returned {len(k)} components for a state of {n}")


def _initial_step(fun, y0, f0, rtol, atol, s_end):
    # Hairer's starting-step heuristic on the segment parameter.
    root_n = math.sqrt(len(y0))
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(_sq_norm(y0, scale)) / root_n
    d1 = math.sqrt(_sq_norm(f0, scale)) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    f1 = fun(h0, [v + h0 * df for v, df in zip(y0, f0)])
    _check_length(f1, len(y0))
    diff = [a - b for a, b in zip(f1, f0)]
    d2 = math.sqrt(_sq_norm(diff, scale)) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_tab.ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, s_end)


class OdeStep:
    """One accepted step, from ``s_old`` to ``s_new`` of the segment parameter.

    ``y_old`` and ``y_new`` are the states at its ends.  ``step(s)`` for s in
    [s_old, s_new] is DOP853's seventh-order dense output, exact at both
    ends; its three extra field calls are made at the first call.
    ``rejected`` counts the attempts rejected just before this step and
    ``err_est`` is its error estimate in state units.
    """

    __slots__ = ("s_old", "s_new", "y_old", "y_new", "rejected", "err_est",
                 "_fun", "_h", "_h_next", "_K", "_F")

    def __init__(self, fun, s_old, s_new, h, h_next, y_old, y_new, K,
                 rejected, err_est):
        # h_next: the step the controller proposes after this one
        self.s_old, self.s_new, self._h, self._h_next = s_old, s_new, h, h_next
        self.y_old, self.y_new = y_old, y_new
        self.rejected, self.err_est = rejected, err_est
        self._fun, self._K, self._F = fun, K, None

    def _coefficients(self):
        # per component k, F[k] = [F_0, ..., F_6] of the interpolant
        h, K, y_old = self._h, self._K, self.y_old
        for c, row in _DENSE:
            y_i = [yk + h * dk for yk, dk in zip(y_old, _combine(row, K))]
            k_i = self._fun(self.s_old + c * h, y_i)
            _check_length(k_i, len(y_old))
            if not _finite(k_i):
                raise NonFinite(
                    f"field not finite in the dense output at s={self.s_old}")
            for Kk, v in zip(K, k_i):
                Kk.append(v)
        high = [_combine(row, K) for row in _D]
        F = []
        for k, (yo, yn, Kk) in enumerate(zip(y_old, self.y_new, K)):
            dy = yn - yo
            F.append([dy, h * Kk[0] - dy, 2 * dy - h * (Kk[12] + Kk[0]),
                      *(h * d[k] for d in high)])
        return F

    def __call__(self, s):
        if s == self.s_new:
            return list(self.y_new)
        if self._F is None:
            with _scalar_errors():
                self._F = self._coefficients()
        x = (s - self.s_old) / self._h
        out = []
        for yo, Fk in zip(self.y_old, self._F):
            acc = 0.0
            for i, f in enumerate(reversed(Fk)):
                acc = (acc + f) * (x if i % 2 == 0 else 1.0 - x)
            out.append(yo + acc)
        return out


@contextlib.contextmanager
def _scalar_errors():
    # Python scalars raise where IEEE arithmetic would give inf or nan
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFinite(f"overflow or division by zero: {exc}") from exc


def _check_s_end(s_end, name="s_end"):
    """Refuse an ``s_end`` that is not finite or is below ``_MIN_STEP``, so
    that no step fits in it; the message calls it ``name``."""
    # written so that a NaN fails it
    if not _MIN_STEP <= s_end < math.inf:
        raise ValueError(f"{name} must be finite and at least {_MIN_STEP:.0e},"
                         f" the smallest step, got {s_end!r}")


def _check_tolerances(rtol, atol):
    if not (1e-14 <= rtol <= 1e-2) or not (1e-14 <= atol <= 1e-2):
        raise ValueError("rtol and atol must lie in [1e-14, 1e-2]")


def _steps(field, a, d, y, rtol, atol, s_end, h0=None):
    """Accepted steps of y' = d * field(a + s*d, y) over s in [0, s_end].

    The state ``y``, the stage values and the Kahan carry are lists of
    Python scalars; each attempt is the straight-line code that
    :func:`_attempt` generates for the length of ``y``, and calls ``field``
    itself, whatever the scalar type of the state and of the field's
    values, which may turn from float to complex along the way.  A field
    that carries ``_inline = (body, values)``, as :func:`_inline_field`
    makes them, has attempts that run that body at each stage instead;
    ``field`` itself is then called only at the start, for the starting
    step and by the dense output.  The first attempt takes the step ``h0``,
    clamped like every step to the end; Hairer's starting step replaces it
    when ``h0`` is None or below the smallest step allowed, ``_MIN_STEP`` in
    s whatever ``s_end`` is (a step carried from a far shorter leg).
    """
    n = len(y)
    if n == 0:
        raise ValueError("the state needs at least one component")

    def fun(s, yy):
        # the chain-ruled field for the starting step and the dense output
        return [d * v for v in field(a + s * d, yy)]

    # _scalar_errors written out: a leg is cheaper to enter without the
    # context manager
    try:
        # Kahan carry for the y accumulator, zero of the state's scalar type
        comp = [0j if isinstance(v, complex) else 0.0 for v in y]
        s = 0.0
        f = fun(s, y)
        _check_length(f, n)
        if not _finite(f):
            raise NonFinite("field not finite at the start of a segment")
        inline = getattr(field, "_inline", None)
        if inline is None:
            attempt, first = _attempt(n), field
        else:
            body, first = inline
            attempt = _attempt(n, body)
        h = h0
        if h is None or h < _MIN_STEP:
            h = _initial_step(fun, y, f, rtol, atol, s_end)
        rejected = 0

        while True:
            remaining = s_end - s
            if remaining <= 1e-15 * s_end:
                return
            if h < _MIN_STEP:
                raise StepUnderflow(
                    f"step {h:.3e} under {_MIN_STEP:.0e} at s={s:.6f} "
                    f"(path point {a + s * d})"
                )
            final = h >= remaining
            if final:
                h = remaining
            y_new, comp_new, f_new, err_norm, max_scale, K = attempt(
                first, a, d, s, h, y, comp, f, rtol, atol)
            if err_norm < 1.0:
                factor = _MAX_FACTOR if err_norm == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err_norm ** _ERR_EXP
                )
                s_old, s = s, (s_end if final else s + h)
                step = OdeStep(fun, s_old, s, h, h * factor, y, y_new, K,
                               rejected, err_norm * max_scale)
                y, comp, f = y_new, comp_new, f_new
                rejected = 0
                h *= factor
                yield step
            else:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ERR_EXP)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFinite(f"overflow or division by zero: {exc}") from exc


def ode_steps(field, seg: Line, y0, rtol: float = 1e-10,
              atol: float = 1e-12, s_end: float = 1.0):
    """Generator of the accepted :class:`OdeStep` along one :class:`Line`.

    Steps y' = (b - a) * field(a + s*(b - a), y) from s = 0 to ``s_end``,
    which need not be 1: on ``Line(0, 1)`` or ``Line(0, -1)`` the parameter
    is time itself, so the step sequence does not depend on how far
    ``s_end`` reaches.  ``y0`` is a sequence of Python floats, which step as
    floats, or of complex numbers.  A segment that is not a :class:`Line`,
    or whose length is zero or not finite, raises :class:`ValueError`, and
    so does an ``s_end`` that is not finite or is below the smallest step,
    1e-14.
    """
    if not isinstance(seg, Line):
        raise ValueError(f"ode_steps steps along a Line, not {seg!r}")
    _check_segment(seg)
    _check_tolerances(rtol, atol)
    _check_s_end(s_end)
    return _steps(field, seg.a, seg.b - seg.a, list(y0), rtol, atol, s_end)


def _sample_steps(steps, samples):
    """The dense-output states of ``steps`` at increasing ``samples`` of s.

    Each sample is read from the first step whose ``s_new`` >= s, so a
    sample at a step end is that step's ``y_new``.  ``steps`` is consumed
    lazily and no further than the step that holds the last sample.
    """
    steps = iter(steps)
    out = []
    step = None
    for s in samples:
        while step is None or step.s_new < s:
            step = next(steps)
        out.append(step(s))
    return out


def integrate_ode(field, a: complex, b: complex, y0, rtol: float = 1e-10,
                  atol: float = 1e-12, *,
                  _first_step: float | None = None) -> OdeResult:
    """Analytic continuation of y' = field(t, y) along the straight leg a -> b.

    ``field(t, y)`` takes the complex point t and the complex state vector
    and returns dy/dt; the leg is traversed in its parameter s in [0, 1] via
    the chain rule dy/ds = (b - a) * field(a + s*(b - a), y).  ``a == b``
    or an end that is not finite raises :class:`ValueError`.
    ``_first_step``, for :func:`integrate_chain` only, replaces Hairer's
    starting step by a step of that size in units of the independent
    variable, clamped to the leg.
    """
    seg = Line(complex(a), complex(b))
    _check_segment(seg)
    _check_tolerances(rtol, atol)
    length = seg.length()
    h0 = None if _first_step is None else _first_step / length
    steps = rejected = 0
    max_err_est = 0.0
    for step in _steps(field, seg.a, seg.b - seg.a,
                       [complex(v) for v in y0], rtol, atol, 1.0, h0):
        steps += 1
        rejected += step.rejected
        max_err_est = max(max_err_est, step.err_est)
    return OdeResult(y_end=step.y_new, steps=steps, rejected=rejected,
                     max_err_est=max_err_est,
                     next_step=step._h_next * length)


def integrate_chain(field, start: complex, points, y0, rtol: float = 1e-10,
                    atol: float = 1e-12) -> list[list[complex]]:
    """States of y' = field(t, y) at a chain of checkpoints, one leg at a time.

    Starting from ``y0`` at ``start``, each leg to the next distinct point is
    one :func:`integrate_ode` call; a point equal to its predecessor reuses
    that state.  Returns one state per point.

    The first leg starts from Hairer's starting-step heuristic.  Every later
    leg starts from the step the controller proposed at the end of the
    previous leg, carried in units of the independent variable and clamped
    to the new leg, as Hairer, Norsett and Wanner (Solving ODEs I, II.4)
    advise when integration resumes on a smooth solution: it spares each
    leg the ramp up from a cautious first step.
    """
    _check_tolerances(rtol, atol)
    out = []
    y = [complex(v) for v in y0]
    prev = complex(start)
    h = None
    for t in points:
        t = complex(t)
        if t != prev:
            res = integrate_ode(field, prev, t, y, rtol=rtol, atol=atol,
                                _first_step=h)
            y, h = res.y_end, res.next_step
        out.append(y)
        prev = t
    return out


# ---------------------------------------------------------------------------
# tanh-sinh quadrature
# ---------------------------------------------------------------------------

_TS_TMAX = 6.5
_TS_MAX_LEVEL = 11
_TS_W_FLOOR = 1e-290


def _ts_nodes(h, only_odd):
    """Yield (endpoint offset in [0, 1/2], weight) for the tanh-sinh rule."""
    j = 1 if only_odd else 0
    step = 2 if only_odd else 1
    while True:
        t = j * h
        if t > _TS_TMAX:
            return
        u = 0.5 * math.pi * math.sinh(t)
        em = math.exp(-2.0 * u)
        # (pi/2) cosh t / cosh^2 u rewritten overflow-free via em = e^{-2u}
        w = 2.0 * math.pi * math.cosh(t) * em / (1.0 + em) ** 2
        if w < _TS_W_FLOOR:
            return
        off = em / (1.0 + em)  # (1 - tanh u)/2, exact near the endpoints
        yield off, w
        j += step


def quad_path(f, seg: Segment, tol: float = 1e-12) -> QuadResult:
    """Contour integral of ``f`` along one :class:`Line` or :class:`Arc`.

    ``f`` must be continuous on the segment except possibly at its endpoints,
    where an integrable |x|^alpha, alpha > -1 singularity is allowed.  The
    tanh-sinh nodes are laid out symmetrically as offsets from both segment
    endpoints, but a node's coordinate is the segment's point, so a node at
    distance e from an endpoint x carries a relative error of about
    1e-16 |x| / e in that distance.  A singular endpoint must therefore sit
    at the coordinate origin: callers shift the variable so that it does.
    Near an endpoint far from the origin the lost digits reach well beyond
    the nodes that round onto it; those are skipped, and the associated
    truncation is double-exponentially small for any integrable
    singularity.  A segment whose length is zero or not finite raises
    :class:`ValueError`.

    The nodes are sampled by one closure bound to the segment before the
    refinement starts: on a :class:`Line` the point is ``a + s * (b - a)``
    with ``b - a`` taken once, which is also the derivative; on an
    :class:`Arc` one ``cmath.exp`` per node gives both the point and the
    derivative.  With an ``f`` that returns a constant, an evaluation costs
    about 0.7 us on a Line and 1.2 us on an Arc, the node table included
    (best of 20 calls, on a 2-vCPU Xeon host).

    A level whose sum is not finite raises :class:`NonFinite`, and so does
    an ``f`` that overflows or divides by zero; successive levels that
    still disagree by more than ``10 * tol`` after the last one raise
    :class:`NoConvergence`.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    _check_segment(seg)
    evals = 0

    # a node samples s = off and s = 1 - off, and skips a side whose point
    # rounds onto the segment's end there
    if isinstance(seg, Line):
        a, b = seg.a, seg.b
        d = b - a

        def sample(off):
            nonlocal evals
            za = a + off * d
            total = 0.0 + 0.0j
            if za != a or off == 0.5:
                total += f(za) * d
                evals += 1
            if off != 0.5:
                zb = a + (1.0 - off) * d
                if zb != b:
                    total += f(zb) * d
                    evals += 1
            return total
    else:
        exp = cmath.exp
        center, radius, phi0 = seg.center, seg.radius, seg.phi_start
        dphi = seg.phi_end - phi0
        k = 1j * dphi * radius
        start, end = seg.start, seg.end

        def sample(off):
            nonlocal evals
            ea = exp(1j * (phi0 + off * dphi))
            za = center + radius * ea
            total = 0.0 + 0.0j
            if za != start or off == 0.5:
                total += f(za) * (k * ea)
                evals += 1
            if off != 0.5:
                eb = exp(1j * (phi0 + (1.0 - off) * dphi))
                zb = center + radius * eb
                if zb != end:
                    total += f(zb) * (k * eb)
                    evals += 1
            return total

    with _scalar_errors():
        h = 1.0
        acc = 0.5 * math.pi * sample(0.5)  # t = 0 node sits at the midpoint
        for off, w in _ts_nodes(h, only_odd=False):
            if off == 0.5:
                continue
            acc += w * sample(off)
        _check_level(acc, 0)
        est = acc * (0.5 * h)
        err = math.inf
        for level in range(1, _TS_MAX_LEVEL + 1):
            h *= 0.5
            for off, w in _ts_nodes(h, only_odd=True):
                acc += w * sample(off)
            _check_level(acc, level)
            new_est = acc * (0.5 * h)
            err = abs(new_est - est)
            est = new_est
            if err < tol and level >= 4:
                break
    # written so that a NaN fails it
    if not err <= 10.0 * tol:
        raise NoConvergence(
            f"tanh-sinh stalled at err {err:.3e} (> 10 x tol {tol:.1e})"
        )
    return QuadResult(value=est, err=err, evals=evals)


def _check_level(acc, level):
    if not cmath.isfinite(acc):
        raise NonFinite(f"integrand not finite on tanh-sinh level {level}")


# ---------------------------------------------------------------------------
# root finding, line fits and their sample grids
# ---------------------------------------------------------------------------

def find_root(g, bracket, tol: float = 1e-12) -> float:
    """Safeguarded Newton on a bracket; bisection whenever Newton misbehaves.

    The two ends may come in either order.  Stops when |g(x)| <= tol or the
    bracket width drops below tol, and after 200 iterations at the latest.

    An end or a ``tol`` that is not finite, or a ``tol`` that is not
    positive, raises :class:`ValueError`; a ``g`` that is not finite at an
    end, or has the same sign at both, raises :class:`NoBracket`, and one
    that is not finite inside the bracket raises :class:`NonFinite`.
    """
    lo, hi = sorted((float(bracket[0]), float(bracket[1])))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"find_root needs a finite bracket, got {bracket!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"find_root needs a finite, positive tol, got {tol!r}")
    glo, ghi = g(lo), g(hi)
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        raise NoBracket(f"g({lo}) = {glo} and g({hi}) = {ghi}: not finite")
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0.0) == (ghi < 0.0):
        raise NoBracket(f"g({lo}) = {glo:.3e} and g({hi}) = {ghi:.3e} agree in sign")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        gx = g(x)
        if not math.isfinite(gx):
            raise NonFinite(f"g({x}) = {gx} inside the bracket [{lo}, {hi}]")
        if abs(gx) <= tol or (hi - lo) <= tol:
            return x
        if (glo < 0.0) != (gx < 0.0):
            hi, ghi = x, gx
        else:
            lo, glo = x, gx
        step_h = max(1e-7 * max(abs(x), 1.0), 1e-12)
        dg = (g(x + step_h) - g(x - step_h)) / (2.0 * step_h)
        x_new = x - gx / dg if dg != 0.0 else math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x


def fit_line(x, y) -> tuple[float, float]:
    """Least-squares line through the points (x_k, y_k): (slope, intercept)."""
    x, y = list(x), list(y)
    n = len(x)
    if n < 2 or len(y) != n:
        raise ValueError("a line fit needs two or more (x, y) pairs")
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((a - mx) * (a - mx) for a in x)
    if not sxx > 0.0:
        raise ValueError("a line fit needs two distinct x values")
    slope = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    return slope, my - slope * mx


def linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from a to b, both ends exact."""
    if n < 2:
        raise ValueError(f"need n >= 2 points, got {n}")
    step = (b - a) / (n - 1)
    return [a + k * step for k in range(n - 1)] + [b]


def geomspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 points from a > 0 to b > 0, evenly spaced in log10."""
    exps = linspace(math.log10(a), math.log10(b), n)
    return [a] + [10.0 ** e for e in exps[1:-1]] + [b]
