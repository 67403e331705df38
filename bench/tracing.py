"""Spans around the calls into each circfun layer, for the traced run.

The tracer replaces, for the length of a ``with tracer.installed():`` block,
the names each circfun module looks up at call time: every module attribute
bound to a traced function (``circfun.solver.from_spectrum``,
``circfun.functions.spectrum``, ``circfun.core.mul_fft``, ...) and the traced
methods on the function classes. A span records its name, start, end, parent
and, for a few layers, a summary of the call's result. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from circfun import characterize, core, functions, solver, spectral

#: Layer name -> (owner, attribute) pairs. A module owner means: every loaded
#: circfun module attribute bound to that function; a class owner means that
#: class's own method.
LAYERS = {
    "core.mul": [(core, "mul")],
    "core.mul_fft": [(core, "mul_fft")],
    "core.mul_naive": [(core, "mul_naive")],
    "core.add": [(core, "add")],
    "spectral.spectrum": [(spectral, "spectrum")],
    "spectral.from_spectrum": [(spectral, "from_spectrum")],
    "spectral.pseudoinverse": [(spectral, "pseudoinverse")],
    "functions.evaluate": [
        (functions.CircPoly, "evaluate"),
        (functions.CircFunction, "evaluate_with_report"),
        (functions.PolyFunction, "evaluate_with_report"),
        (functions.RationalFunction, "evaluate_with_report"),
        (functions.CircFunction, "derivative"),
        (functions, "numeric_derivative"),
    ],
    "functions.channel_matrix": [(functions.CircPoly, "channel_matrix")],
    "functions.polyval_with_scale": [(functions, "polyval_with_scale")],
    "functions.classify": [(functions, "classify")],
    "solver.scalar": [(solver, "solve_scalar_poly")],
    "solver.recombine": [(solver, "solve_circ_poly")],
    "solver.residual": [(solver, "residual")],
    "characterize.estimate": [
        (characterize, "estimate_divisor"),
        (characterize, "detect_poly_degree"),
        (characterize, "entire_zero_bound"),
    ],
}

_MAX_ITER = inspect.signature(solver.solve_scalar_poly).parameters["max_iter"].default


def _scalar_summary(out, kwargs):
    return {"iterations": out.iterations, "max_iter": kwargs.get("max_iter", _MAX_ITER)}


def _solve_summary(out, kwargs):
    return {"status": out.status.value, "roots": len(out.roots)}


def _estimate_summary(out, kwargs):
    defined = [c for c in out.channels if c.flag != "indeterminate"]
    converged = sum(c.flag == "converged" for c in defined)
    return {"retries": out.retries_used, "converged": converged, "defined": len(defined)}


SUMMARIES = {
    "solver.scalar": _scalar_summary,
    "solver.recombine": _solve_summary,
    "characterize.estimate": _estimate_summary,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end=0.0, parent=-1, info=None):
        self.name, self.start, self.end, self.parent, self.info = name, start, end, parent, info


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, summary=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        kwargs = kwargs or {}
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.end = time.perf_counter()
            span.info = {"error": type(exc).__name__}
            raise
        else:
            span.end = time.perf_counter()
            if summary is not None:
                span.info = summary(out, kwargs)
            return out
        finally:
            self._stack.pop()

    def wrap(self, name, fn):
        summary = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, summary)

        return traced

    @contextmanager
    def installed(self):
        """Install a wrapper at every lookup site of every traced layer."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "circfun"]
        undo = []
        try:
            for name, targets in LAYERS.items():
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    wrapped = self.wrap(name, original)
                    sites = [owner] if isinstance(owner, type) else [
                        m for m in modules if vars(m).get(attr) is original
                    ]
                    for site in sites:
                        undo.append((site, attr, original))
                        setattr(site, attr, wrapped)
            yield self
        finally:
            for site, attr, original in reversed(undo):
                setattr(site, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0.0 if hi is None else hi - lo
        out.append(s.end - s.start - covered)
    return out


def _ratio(num, den):
    """num / den, or 0.0 when the workload never reached the layer (den == 0)."""
    return num / den if den else 0.0


def _ancestor(spans, span, name):
    """The nearest enclosing span called ``name``, or None."""
    p = span.parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return spans[p] if p >= 0 else None


def self_time_ratio(spans: list[Span]) -> float:
    """Sum of all self times over the total duration of the top-level spans;
    exactly 1 when every child lies inside its parent and siblings do not overlap."""
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    return _ratio(sum(self_times(spans)), roots)


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced window of
    ``rounds`` whole rounds. Counts and self times are per round."""
    own = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += t
    m = {}
    for name in (
        "core.mul", "core.add", "spectral.spectrum", "spectral.from_spectrum",
        "spectral.pseudoinverse", "functions.channel_matrix",
        "functions.polyval_with_scale", "solver.scalar", "solver.residual",
    ):  # fmt: skip
        m[f"{name}.calls"] = (calls[name] / rounds, "count/round")
    for name in (
        "core.mul", "core.add", "spectral.spectrum", "spectral.from_spectrum",
        "spectral.pseudoinverse", "functions.evaluate", "functions.channel_matrix",
        "functions.polyval_with_scale", "functions.classify", "solver.scalar",
        "solver.recombine", "solver.residual", "characterize.estimate",
    ):  # fmt: skip
        m[f"{name}.self_s"] = (self_s[name] / rounds, "s/round")

    fft = sum(
        s.name == "core.mul_fft" and s.parent >= 0 and spans[s.parent].name == "core.mul"
        for s in spans
    )
    m["core.mul_fft.share"] = (_ratio(fft, calls["core.mul"]), "ratio")

    # Scalar root finder: a solve is useful when its enclosing solve_circ_poly
    # returned a result other than no-solution.
    scalar = [s for s in spans if s.name == "solver.scalar" and "iterations" in (s.info or {})]
    useful = 0
    for s in scalar:
        top = _ancestor(spans, s, "solver.recombine")
        useful += top is not None and (top.info or {}).get("status") not in (None, "no-solution")
    iterations = sum(s.info["iterations"] for s in scalar)
    fallback = sum(s.info["iterations"] == s.info["max_iter"] for s in scalar)
    m["solver.scalar.iterations_mean"] = (_ratio(iterations, len(scalar)), "count")
    m["solver.scalar.fallback_ratio"] = (_ratio(fallback, calls["solver.scalar"]), "ratio")
    m["solver.scalar.useful_ratio"] = (_ratio(useful, calls["solver.scalar"]), "ratio")

    # Recombination: every from_spectrum call made directly by solve_circ_poly
    # rebuilds one candidate root.
    per_solve = Counter(
        s.parent for s in spans
        if s.name == "spectral.from_spectrum" and s.parent >= 0
        and spans[s.parent].name == "solver.recombine"
    )  # fmt: skip
    candidates = sum(per_solve.values())
    kept = [(s.info["roots"], per_solve[i]) for i, s in enumerate(spans)
            if s.name == "solver.recombine" and (s.info or {}).get("status") == "finite"]  # fmt: skip
    m["solver.recombine_us_per_root"] = (_ratio(self_s["solver.recombine"] * 1e6, candidates), "us")
    m["solver.candidates"] = (candidates / rounds, "count/round")
    m["solver.keep_ratio"] = (_ratio(sum(r for r, _ in kept), sum(c for _, c in kept)), "ratio")

    estimates = [s.info for s in spans if s.name == "characterize.estimate" and "retries" in (s.info or {})]
    retries = sum(e["retries"] for e in estimates)
    converged = sum(e["converged"] for e in estimates)
    m["characterize.retry_ratio"] = (_ratio(retries, calls["characterize.estimate"]), "ratio")
    m["characterize.converged_ratio"] = (_ratio(converged, sum(e["defined"] for e in estimates)), "ratio")
    return m
