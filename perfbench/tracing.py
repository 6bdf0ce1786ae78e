"""Spans around the calls into each quantfolio module, for the traced run.

`install(tracer)` replaces each traced function with a wrapper at the place
its caller looks it up (for example ``quantfolio.mean_risk.solve``, not
``quantfolio.solver.solve``) and returns a function that puts the originals
back, so untraced passes run the unmodified program.

Spans are kept in memory: name, start, end, parent, op id and thread. The
parent stack is per thread; a span opened on a thread with an empty stack
(a ``cross_val_predict`` pool worker) takes the open ``cross_val_predict``
span as its parent. The op id of a span is the id of the outermost span on
its thread: the benchmark's own op span, or one per-split fit in a pool.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import quantfolio.cli
import quantfolio.hierarchical
import quantfolio.mean_risk
import quantfolio.moments
import quantfolio.priors
import quantfolio.reformulations


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "thread": self.thread, "start": self.start,
                "end": self.end, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.fork_parent: Span | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self.fork_parent
        with self._lock:
            span_id = next(self._ids)
        span = Span(id=span_id, name=name, parent=parent.id if parent else None,
                    op=stack[0].id if stack else span_id,
                    thread=threading.get_ident(), start=time.perf_counter(),
                    attrs=dict(attrs))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def span_or_null(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# wrappers


def _solve_counts(span, args, kwargs, result):
    problem = args[0]
    n = problem.q.size
    eq = 0 if problem.A_eq is None else problem.A_eq.shape[0]
    ineq = 0 if problem.G is None else problem.G.shape[0]
    nnz = sum(int((M != 0).sum()) for M in (problem.A_eq, problem.G) if M is not None)
    finite = [np.isfinite(b) for b in (problem.lb, problem.ub) if b is not None]
    bounded = int(np.logical_or.reduce(finite).sum()) if finite else 0
    span.attrs.update(rows=eq + ineq, cols=n, nnz=nnz, m=eq + ineq + bounded,
                      iterations=int(result.iterations), status=result.status)


def _load_counts(span, args, kwargs, result):
    span.attrs["rows"] = int(result.n_periods)


def _cvp_counts(span, args, kwargs, result):
    span.attrs["threads"] = int(kwargs.get("n_jobs", args[3] if len(args) > 3 else 1))


# (owner, attribute, span name, records counts from (span, args, kwargs, result))
_TARGETS = [
    (quantfolio.mean_risk, "solve", "solver.solve", _solve_counts),
    (quantfolio.mean_risk, "reformulate_risk", "reformulations.reformulate_risk", None),
    (quantfolio.reformulations.ProblemBuilder, "build", "reformulations.build", None),
    (quantfolio.mean_risk, "optimize", "mean_risk.optimize", None),
    (quantfolio.mean_risk.MeanRisk, "fit", "mean_risk.fit", None),
    (quantfolio.cli, "cross_val_predict", "model_selection.cross_val_predict", _cvp_counts),
    (quantfolio.hierarchical, "linkage_cluster", "hierarchical.linkage_cluster", None),
    (quantfolio.hierarchical.HierarchicalRiskParity, "fit", "hierarchical.fit", None),
    (quantfolio.hierarchical.NestedClustersOptimization, "fit", "hierarchical.fit", None),
    (quantfolio.hierarchical.InverseVolatility, "fit", "hierarchical.fit", None),
    (quantfolio.hierarchical.EqualWeighted, "fit", "hierarchical.fit", None),
    (quantfolio.priors.EmpiricalPrior, "fit", "priors.fit", None),
    (quantfolio.priors.FactorModel, "fit", "priors.fit", None),
    (quantfolio.priors.BlackLitterman, "fit", "priors.fit", None),
    (quantfolio.moments, "sample_moments", "moments.estimate", None),
    (quantfolio.moments, "ew_moments", "moments.estimate", None),
    (quantfolio.moments, "bayes_stein", "moments.estimate", None),
    (quantfolio.moments, "ledoit_wolf", "moments.estimate", None),
    (quantfolio.moments, "gerber", "moments.estimate", None),
    (quantfolio.moments, "denoise_rmt", "moments.estimate", None),
    (quantfolio.cli, "load_prices", "market_data.load_prices", _load_counts),
    (quantfolio.cli, "summary", "analytics.summary", None),
    (quantfolio.cli, "line_chart", "svg.line_chart", None),
]


def _wrap(tracer, func, name, counts, fork):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            if fork:
                previous, tracer.fork_parent = tracer.fork_parent, span
            try:
                result = func(*args, **kwargs)
            finally:
                if fork:
                    tracer.fork_parent = previous
            if counts is not None:
                counts(span, args, kwargs, result)
            return result
    return wrapper


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that restores the originals."""
    saved = []
    for owner, attr, name, counts in _TARGETS:
        original = owner.__dict__.get(attr)
        if original is None:
            print(f"trace: {owner.__name__}.{attr} not found; layer {name} unmeasured",
                  file=sys.stderr)
            continue
        fork = name == "model_selection.cross_val_predict"
        setattr(owner, attr, _wrap(tracer, original, name, counts, fork))
        saved.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

# name: (unit, better); the order here is the order they are printed in
LAYER_METRICS = {
    "solver.solve_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.solves": ("count", "lower"),
    "solver.optimal_ratio": ("ratio", "higher"),
    "solver.matvec_bytes_computed": ("B", "lower"),
    "reformulations.reformulate_s": ("s", "lower"),
    "reformulations.build_s": ("s", "lower"),
    "reformulations.rows": ("count", "lower"),
    "reformulations.nnz": ("count", "lower"),
    "reformulations.density": ("ratio", "higher"),
    "mean_risk.optimize_s": ("s", "lower"),
    "mean_risk.assembly_self_s": ("s", "lower"),
    "model_selection.cross_val_predict_s": ("s", "lower"),
    "model_selection.splits": ("count", "higher"),
    "model_selection.fit_busy_s": ("s", "lower"),
    "model_selection.parallel_efficiency": ("ratio", "higher"),
    "hierarchical.linkage_s": ("s", "lower"),
    "hierarchical.fit_s": ("s", "lower"),
    "priors.fit_s": ("s", "lower"),
    "priors.fits": ("count", "lower"),
    "moments.estimate_s": ("s", "lower"),
    "market_data.load_prices_s": ("s", "lower"),
    "market_data.rows_parsed": ("count", "lower"),
    "analytics.summary_s": ("s", "lower"),
    "svg.line_chart_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# counts that must repeat exactly from pass to pass
EXACT_COUNTS = ("solver.iterations", "solver.solves", "reformulations.rows",
                "reformulations.nnz")


def _outermost(spans, by_id, names):
    """Spans named in `names` that have no ancestor also named in `names`."""
    result = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            result.append(span)
    return result


def _covered(span, children) -> float:
    """Time within `span` covered by the union of `children` (same thread)."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, reach = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _descendants(span, children_of, names):
    found, todo = [], list(children_of.get(span.id, ()))
    while todo:
        child = todo.pop()
        if child.name in names:
            found.append(child)
        else:
            todo.extend(children_of.get(child.id, ()))
    return found


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_ratio)."""
    by_id = {s.id: s for s in spans}
    children_of: dict[int, list[Span]] = {}
    for s in spans:
        children_of.setdefault(s.parent, []).append(s)

    def total(*names):
        return sum(s.duration for s in _outermost(spans, by_id, set(names)))

    # a solve that raised recorded no counts
    solves = [s for s in spans if s.name == "solver.solve" and "iterations" in s.attrs]
    rows = sum(s.attrs["rows"] for s in solves)
    nnz = sum(s.attrs["nnz"] for s in solves)
    cells = sum(s.attrs["rows"] * s.attrs["cols"] for s in solves)

    optimize = _outermost(spans, by_id, {"mean_risk.optimize"})
    inner = {"solver.solve", "reformulations.reformulate_risk", "reformulations.build"}
    assembly = sum(s.duration - _covered(s, _descendants(s, children_of, inner))
                   for s in optimize)

    cvp = [s for s in spans if s.name == "model_selection.cross_val_predict"]
    cvp_s = sum(s.duration for s in cvp)
    split_fits = [c for s in cvp for c in children_of.get(s.id, ())]
    busy = sum(s.duration for s in split_fits)
    capacity = sum(s.duration * s.attrs.get("threads", 1) for s in cvp)

    cli_spans = [s for s in spans if s.name == "cli.main"]
    cli_self = sum(s.duration - _covered(s, [c for c in children_of.get(s.id, ())
                                             if c.thread == s.thread])
                   for s in cli_spans)

    return {
        "solver.solve_s": total("solver.solve"),
        "solver.iterations": sum(s.attrs["iterations"] for s in solves),
        "solver.solves": len(solves),
        "solver.optimal_ratio": (sum(s.attrs["status"] == "Optimal" for s in solves)
                                 / len(solves)) if solves else 0.0,
        "solver.matvec_bytes_computed": sum(s.attrs["iterations"] * 2 * 8
                                            * s.attrs["m"] * s.attrs["cols"]
                                            for s in solves),
        "reformulations.reformulate_s": total("reformulations.reformulate_risk"),
        "reformulations.build_s": total("reformulations.build"),
        "reformulations.rows": rows,
        "reformulations.nnz": nnz,
        "reformulations.density": nnz / cells if cells else 0.0,
        "mean_risk.optimize_s": sum(s.duration for s in optimize),
        "mean_risk.assembly_self_s": assembly,
        "model_selection.cross_val_predict_s": cvp_s,
        "model_selection.splits": len(split_fits),
        "model_selection.fit_busy_s": busy,
        "model_selection.parallel_efficiency": busy / capacity if capacity else 0.0,
        "hierarchical.linkage_s": total("hierarchical.linkage_cluster"),
        "hierarchical.fit_s": total("hierarchical.fit"),
        "priors.fit_s": total("priors.fit"),
        "priors.fits": len(_outermost(spans, by_id, {"priors.fit"})),
        "moments.estimate_s": total("moments.estimate"),
        "market_data.load_prices_s": total("market_data.load_prices"),
        "market_data.rows_parsed": sum(s.attrs.get("rows", 0) for s in spans
                                       if s.name == "market_data.load_prices"),
        "analytics.summary_s": total("analytics.summary"),
        "svg.line_chart_s": total("svg.line_chart"),
        "cli.self_s": cli_self,
    }


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each metric over traced passes, and whether the exact counts repeated."""
    repeated = all(len({m[name] for m in per_pass}) == 1 for name in EXACT_COUNTS)
    summary = {}
    for name, value in per_pass[0].items():
        median = statistics.median_low if isinstance(value, int) else statistics.median
        summary[name] = median(m[name] for m in per_pass)
    return summary, repeated
