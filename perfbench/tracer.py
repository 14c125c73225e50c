"""Outside-in tracing of the l3lab layers.

The tracer replaces public functions of the package modules with timing
wrappers, under the name each caller looks the function up by, and puts the
originals back afterwards.  Nothing inside ``src/`` is edited.

* Entry points (``integrate_ode``, ``sigma``, the acceptance checks, ...)
  record one span per call: name, parent span, start, end, and the work
  counts read off the returned ``OdeResult`` / ``QuadResult`` / scipy result.
* Hot field functions (``graph_rhs``, ``grad_K``, ``pend_rhs``,
  ``cart_vector_field``; up to about a million calls per pass) keep only an
  aggregated call count and time, so memory stays flat.

Every wrapper adds its duration to the child time of its caller, so a layer's
self time is its duration minus the time of the wrapped calls it made.  For
``integrate_ode`` and scipy's ``solve_ivp`` that is the stepper overhead
outside the field function.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

# (layer, [(module, attribute), ...]) for functions whose calls become spans.
# Aliases matter: ``inner`` and ``separatrix`` import ``integrate_ode`` by
# name, so patching ``numerics.integrate_ode`` alone would miss their calls.
SPAN_LAYERS = (
    ("numerics.integrate_ode", [("numerics", "integrate_ode"),
                                ("inner", "integrate_ode"),
                                ("separatrix", "integrate_ode")]),
    ("numerics.quad_path", [("numerics", "quad_path"),
                            ("separatrix", "quad_path")]),
    ("inner.theta", [("inner", "theta")]),
    ("inner.diff_structure", [("inner", "diff_structure")]),
    ("inner.verify_inner_limit", [("inner", "verify_inner_limit")]),
    ("separatrix.sigma", [("separatrix", "sigma")]),
    ("separatrix.t_star", [("separatrix", "t_star")]),
    ("separatrix.fit_branch", [("separatrix", "fit_branch")]),
    ("separatrix.check_zero_of_Lambda", [("separatrix",
                                          "check_zero_of_Lambda")]),
    ("rpc3bp.locate_L3", [("rpc3bp", "locate_L3"),
                          ("splitting", "locate_L3")]),
    ("splitting.manifold_section_point", [("splitting",
                                           "manifold_section_point")]),
    ("splitting.solve_ivp", [("splitting", "solve_ivp")]),
    ("cli.main", [("cli", "main")]),
)

# Field functions evaluated per ODE stage: aggregated, no spans.
HOT_LAYERS = (
    ("inner.graph_rhs", [("inner", "graph_rhs")]),
    ("inner.grad_K", [("inner", "grad_K")]),
    ("separatrix.pend_rhs", [("separatrix", "pend_rhs")]),
    ("rpc3bp.cart_vector_field", [("rpc3bp", "cart_vector_field"),
                                  ("splitting", "cart_vector_field")]),
)


def _scipy_counts(sol):
    # no t_eval is passed on the traced paths, so sol.t holds every
    # accepted step point
    return sol.nfev, len(sol.t) - 1, abs(float(sol.t[-1]))


# layer -> (names of the counts, function of the returned value giving them)
COUNTS = {
    "numerics.integrate_ode": (("steps", "rejected", "max_err_est"),
                               lambda r: (r.steps, r.rejected, r.max_err_est)),
    "numerics.quad_path": (("evals",), lambda r: (r.evals,)),
    "splitting.manifold_section_point": (("t_hit",),
                                         lambda p: (abs(p.t_hit),)),
    "splitting.solve_ivp": (("nfev", "steps", "t_integrated"), _scipy_counts),
}


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = math.nan
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Install with ``with Tracer(modules) as tr:``; read ``tr.metrics()``.

    ``modules`` maps the short module names used in the layer tables
    (``"numerics"``, ``"inner"``, ...) to the imported module objects.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        # per hot layer: [calls, total seconds, self seconds]
        self.hot: dict[str, list] = {}
        # child seconds of each open call, innermost last; ids of open spans
        self._frames: list[list] = []
        self._ids: list[int] = []
        self._saved: list[tuple] = []
        self._t0 = 0.0

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self._frames = [[0.0]]
        self._ids = [0]
        self._t0 = time.perf_counter()
        try:
            for layer, aliases in SPAN_LAYERS:
                self._patch(aliases, lambda fn, layer=layer:
                            self._span_wrapper(layer, fn))
            for layer, aliases in HOT_LAYERS:
                self.hot[layer] = [0, 0.0, 0.0]
                self._patch(aliases, lambda fn, layer=layer:
                            self._hot_wrapper(self.hot[layer], fn))
            self._patch_checks()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch(self, aliases, make):
        # An alias that no longer exists or holds another function is left
        # alone: nothing calls the traced function under that name.  This
        # keeps the benchmark running when a later change drops an import.
        home, name = aliases[0]
        original = getattr(self.modules[home], name, None)
        if original is None:
            return
        wrapped = make(original)
        for mod_name, attr in aliases:
            module = self.modules[mod_name]
            if getattr(module, attr, None) is original:
                self._set(module, attr, wrapped)

    def _patch_checks(self):
        # run_all iterates acceptance.CHECKS and picks the checks that take
        # map_fn by identity against the module globals, so both are patched
        # with the same wrapper objects.
        acc = self.modules["acceptance"]
        wrapped = []
        for fn in acc.CHECKS:
            layer = "acceptance." + "_".join(fn.__name__.split("_")[:2])
            w = self._span_wrapper(layer, fn)
            self._set(acc, fn.__name__, w)
            wrapped.append(w)
        self._set(acc, "CHECKS", tuple(wrapped))

    def _restore(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, layer, fn):
        keys, counts_of = COUNTS.get(layer, ((), None))
        frames, ids, spans = self._frames, self._ids, self.spans
        pc = time.perf_counter
        t0 = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            span = Span(id=len(spans) + 1, parent=ids[-1], name=layer,
                        start=pc() - t0)
            spans.append(span)
            ids.append(span.id)
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
                if counts_of is not None:
                    span.counts = dict(zip(keys, counts_of(result)))
                return result
            finally:
                span.end = pc() - t0
                frames.pop()
                ids.pop()
                span.child_s = frame[0]
                frames[-1][0] += span.duration

        return traced

    def _hot_wrapper(self, agg, fn):
        frames = self._frames
        pc = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - start
                frames.pop()
                frames[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, keyed ``<layer>.<quantity>``."""
        out: dict[str, float] = {}
        layers = [layer for layer, _ in SPAN_LAYERS]
        layers += ["acceptance.check_%02d" % k for k in range(1, 14)]
        for layer in layers:
            mine = [s for s in self.spans if s.name == layer]
            out[layer + ".calls"] = len(mine)
            out[layer + ".s"] = sum((s.duration for s in mine), 0.0)
            out[layer + ".self_s"] = sum((s.self_s for s in mine), 0.0)
            for key in COUNTS.get(layer, ((), None))[0]:
                vals = [s.counts[key] for s in mine if s.counts]
                out[f"{layer}.{key}"] = (float(max(vals, default=0.0))
                                         if key == "max_err_est" else sum(vals))
        for layer, (calls, total, self_s) in self.hot.items():
            out[layer + ".calls"] = calls
            out[layer + ".s"] = total
            out[layer + ".self_s"] = self_s

        ode = "numerics.integrate_ode"
        tries = out[ode + ".steps"] + out[ode + ".rejected"]
        out[ode + ".accept_frac"] = (out[ode + ".steps"] / tries
                                     if tries else 0.0)
        out["splitting.useful_time_frac"] = self._useful_time_frac()
        return out

    def _useful_time_frac(self) -> float:
        """Sum |t_hit| / sum |time integrated| over the manifold tracings.

        The section event is not terminal, so each trajectory runs on to
        ``t_max``; this is the share of the integrated time that was needed.
        """
        by_id = {s.id: s for s in self.spans}
        hit = integrated = 0.0
        for s in self.spans:
            if s.name == "splitting.manifold_section_point":
                hit += s.counts.get("t_hit", 0.0)
            elif (s.name == "splitting.solve_ivp" and s.parent in by_id
                  and by_id[s.parent].name
                  == "splitting.manifold_section_point"):
                integrated += s.counts.get("t_integrated", 0.0)
        return hit / integrated if integrated else 0.0

    def span_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "self_s": s.self_s,
                 **s.counts} for s in self.spans]
