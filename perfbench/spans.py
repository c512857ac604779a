"""Spans around calls into allocgen's public functions, recorded from outside the program.

A traced function is replaced by a wrapper at every module attribute that binds
it, not only in its defining module: ``scenario`` imports
``allocate_independent`` by name and ``dependence`` imports ``assemble_table``
by name, so wrapping only ``allocation.assemble_table`` would miss those calls.
Spans are kept in memory and written out when the traced process ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

# Public functions timed in a traced run, by defining module.
TRACED = {
    "scenario": (
        "load_scenario",
        "build_portfolio",
        "allocate_portfolio",
        "run_scenario",
        "write_allocations_csv",
        "conditional_mean_distribution",
        "write_cond_mean_dist_csv",
    ),
    "allocation": ("allocate_independent", "allocate_compound_poisson_pool", "assemble_table"),
    "dependence": ("frailty_allocation", "shock_allocation_table", "gamma_mixture_allocation"),
    "gf": ("dft", "idft"),
    "risk_measures": ("rvar", "euler_rvar_contributions"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the trace, -1 for a root


class Tracer:
    """Records nested spans and counters of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, after=None):
        """A stand-in for ``fn`` that records a span, then calls ``after(tracer, args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _after_transform(tracer, args, result):
    buf = np.asarray(args[0])
    tracer.add("gf.points", len(buf))
    tracer.add("gf.bytes_computed", buf.nbytes + result.nbytes)


def _after_build(tracer, args, result):
    tracer.counters["rss_after_build_mb"] = _peak_rss_mb()


def _after_allocate(tracer, args, result):
    tracer.counters["rss_after_allocate_mb"] = _peak_rss_mb()
    tracer.add("scenario.risks_built", result.n_risks)


def _after_assemble(tracer, args, result):
    arrays = (getattr(result, f.name) for f in fields(result))
    tracer.add(
        "allocation.table_bytes_computed",
        sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)),
    )


# Counters recorded when a traced call returns.  Byte counts come from array
# shapes and dtypes: they are bytes computed, not bytes moved through caches.
AFTER = {
    "gf.dft": _after_transform,
    "gf.idft": _after_transform,
    "scenario.build_portfolio": _after_build,
    "scenario.allocate_portfolio": _after_allocate,
    "allocation.assemble_table": _after_assemble,
}


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every binding of each TRACED function in the loaded allocgen modules.

    Returns, for each span name, the ``module.attribute`` bindings replaced.
    """
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "allocgen" or n.startswith("allocgen."))
    ]
    bound: dict[str, list[str]] = {}
    for mod_name, names in TRACED.items():
        home = sys.modules[f"allocgen.{mod_name}"]
        for name in names:
            span = f"{mod_name}.{name}"
            original = getattr(home, name)
            wrapper = tracer.wrap(span, original, AFTER.get(span))
            bound[span] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bound[span].append(f"{module.__name__}.{attr}")
    return bound


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, self time and span time per span name.

    Self time is a span's duration minus the durations of its direct child
    spans.  Spans come from one thread's call stack, so the children of a span
    lie inside it and do not overlap.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child_s):
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "span_s": 0.0})
        entry["calls"] += 1
        entry["span_s"] += s.end - s.start
        entry["self_s"] += (s.end - s.start) - covered
    return out
