"""Span recording at tamsde's layer boundaries, from outside the package.

A Tracer rebinds the names one layer uses to call the next (for example
`tamsde.montecarlo.simulate_coupled_pair`, which the Monte Carlo workers
look up at call time) to wrappers that record one span per call while it
is entered as a context manager, and puts the originals back on exit.
Spans stay in memory; the caller writes them out once the run is over.
Per-draw noise calls and per-coefficient calls run millions of times a
run and get no spans: layers.py times them.
"""

import importlib
from contextlib import contextmanager
from time import perf_counter

from tamsde.errors import PathExplosion

# (module, name) pairs rebound while tracing
BOUNDARIES = (
    ("tamsde.cli", "estimate_mse"),
    ("tamsde.cli", "estimate_moment"),
    ("tamsde.cli", "compare_schemes"),
    ("tamsde.analysis", "estimate_mse"),
    ("tamsde.analysis", "estimate_tm_mse"),
    ("tamsde.montecarlo", "simulate_coupled_pair"),
    ("tamsde.montecarlo", "simulate_coupled_tm_pair"),
    ("tamsde.montecarlo", "simulate_path"),
)

ESTIMATORS = ("estimate_mse", "estimate_tm_mse", "estimate_moment")
PATHS = ("simulate_coupled_pair", "simulate_coupled_tm_pair", "simulate_path")


class Span:
    __slots__ = ("run", "name", "start", "end", "parent", "attrs")

    def __init__(self, run, name, parent):
        self.run = run
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"run": self.run, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


def _result_attrs(result):
    # the counts each boundary's return value carries
    if hasattr(result, "fine_steps"):            # CoupledSample
        return {"fine": result.fine_steps, "coarse": result.coarse_steps}
    if hasattr(result, "step_count"):            # Trajectory
        return {"steps": result.step_count}
    if hasattr(result, "n_failures"):            # MseRow, MomentEstimate
        return {"k": getattr(result, "k", None),
                "n_failures": result.n_failures}
    return None


class Tracer:
    """Records spans; one run id per traced job, shared by all its spans."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = Span(self.run, name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """Record a span around the benchmark's own call into a layer."""
        span = self._open(name)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except PathExplosion as exc:
                span.attrs = {"failed_leg": exc.leg or "path",
                              "steps": exc.steps}
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.attrs = _result_attrs(result)
            return result
        return traced

    def __enter__(self):
        """Rebind every boundary name to its span-recording wrapper."""
        for mod_name, attr in BOUNDARIES:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc):
        """Put the original functions back."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def children(spans):
    """Index lists of each span's direct children."""
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def descendants(kids, root):
    """Indices of span root and of every span under it."""
    found = [root]
    for i in found:  # grows while iterating
        found.extend(kids[i])
    return found


def self_seconds(spans, kids, i):
    """Span i's duration minus the time its (sequential) children cover."""
    return spans[i].seconds - sum(spans[c].seconds for c in kids[i])


def leg_steps(span):
    """Leg-steps of one completed path span (0 for a failed one)."""
    attrs = span.attrs or {}
    if "fine" in attrs:
        return attrs["fine"] + attrs["coarse"]
    return attrs.get("steps", 0) if "failed_leg" not in attrs else 0


def summarize_job(spans, root):
    """Layer figures of one traced CLI job whose `main` span is spans[root]."""
    kids = children(spans)
    sub = descendants(kids, root)
    estimators = [i for i in sub if spans[i].name in ESTIMATORS]
    paths = [i for i in sub if spans[i].name in PATHS]
    failed = {"fine": 0, "coarse": 0, "path": 0}
    for i in paths:
        leg = (spans[i].attrs or {}).get("failed_leg")
        if leg:
            failed[leg] += 1
    return {
        "wall_s": spans[root].seconds,
        "cli_self_s": self_seconds(spans, kids, root),
        "montecarlo_self_s": sum(self_seconds(spans, kids, i)
                                 for i in estimators),
        "cell_s_max": max((spans[i].seconds for i in estimators),
                          default=0.0),
        "paths_attempted": len(paths),
        "paths_failed": sum(failed.values()),
        "failed_legs": failed,
        "estimator_failures": sum((spans[i].attrs or {}).get("n_failures")
                                  or 0 for i in estimators),
        "failures_by_k": _failures_by_k(spans, kids, estimators),
        "leg_steps": sum(leg_steps(spans[i]) for i in paths),
    }


def _failures_by_k(spans, kids, estimators):
    # keyed by str(k), the form rate.csv and a JSON round trip both use
    by_k = {}
    for i in estimators:
        k = (spans[i].attrs or {}).get("k")
        if k is not None:
            bad = sum(1 for c in kids[i]
                      if "failed_leg" in (spans[c].attrs or {}))
            by_k[str(k)] = by_k.get(str(k), 0) + bad
    return by_k
