"""Spans and work counters around legseq's public functions.

``Tracer.install()`` replaces every function named in TIMED, in each
legseq module namespace that holds it, by a wrapper that records a span
(name, start, end, parent span); functions in COUNTED get a wrapper
that only counts calls, because they run thousands of times per job.
``uninstall()`` puts the original objects back.  Spans stay in memory;
``metrics()`` turns them into the benchmark's per-layer metrics.

A module's self time is the time inside its spans minus the time inside
their child spans, so the self times of all modules plus the harness
(the traced pass outside any ``cli.main`` span) add up to the traced
pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("cli", "constructions", "ff", "conditions", "measures", "bounds")

TIMED = {
    "cli": ("main",),
    "constructions": ("construct_single", "construct_triple",
                      "construct_combined", "build_theorem2_polys",
                      "BinarySequence.load", "BinarySequence.dumps"),
    "ff": ("legendre_table", "parse_poly"),
    "conditions": ("check_squarefree_triple", "check_divisibility_condition",
                   "check_divisibility_condition_symmetric",
                   "check_theorem2_sets", "check_correlation_order"),
    "measures": ("well_distribution", "correlation", "correlation_sampled",
                 "cross_correlation", "cross_correlation_sampled"),
    "bounds": ("bound_W", "bound_C", "bound_theoremA_C", "bound_theorem3",
               "weil_incomplete_bound"),
}
COUNTED = {"ff": ("Poly.shift", "Poly.gcd")}


def _args(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _w_steps(fn, args, kwargs, result):
    return {"measures.well_distribution.steps":
            _args(fn, args, kwargs)["E"].n ** 2}


def _corr_tuples(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return {"measures.correlation.tuples":
            comb(a["E"].n - 1, a["order"] - 1)}


def _cross_tuples(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    family = list(a["family"])
    n, order = family[0].n, a["order"]
    return {"measures.cross_correlation.tuples":
            len(family) ** order * comb(n + order - 2, order - 1)}


def _elements(fn, args, kwargs, result):
    return {"constructions.elements": result.n}


# work predicted from the inputs by the budget formulas; deterministic
WORK = {
    "measures.well_distribution": _w_steps,
    "measures.correlation": _corr_tuples,
    "measures.cross_correlation": _cross_tuples,
    "constructions.construct_single": _elements,
    "constructions.construct_triple": _elements,
    "constructions.construct_combined": _elements,
}


def _timed_names():
    return [f"{m}.{f}" for m in MODULES if m != "bounds"
            for f in TIMED.get(m, ())]


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in _timed_names():
        specs += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "count",
                                                  "lower")]
    specs += [("bounds.ms", "ms", "lower"), ("bounds.calls", "count", "lower")]
    specs += [(f"{m}.{f}.calls", "count", "lower")
              for m, fs in COUNTED.items() for f in fs]
    specs += [
        ("measures.well_distribution.steps", "count", "lower"),
        ("measures.correlation.tuples", "count", "lower"),
        ("measures.correlation.us_per_tuple", "us", "lower"),
        ("measures.cross_correlation.tuples", "count", "lower"),
        ("measures.cross_correlation.us_per_tuple", "us", "lower"),
        ("constructions.elements", "count", "lower"),
    ]
    specs += [(f"{m}.self_ms", "ms", "lower") for m in MODULES]
    specs += [
        ("harness.self_ms", "ms", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("untraced_wall_s", "s", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
    return specs


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patched = []      # (namespace, attribute, original object)

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if work:
                counts.update(work(fn, args, kwargs, result))
            return result
        return wrapper

    def _counted(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, ns, attr, new):
        self._patched.append((ns, attr, ns.__dict__[attr]))
        setattr(ns, attr, new)

    def _wrap(self, module, qualname, make):
        home = importlib.import_module(f"legseq.{module}")
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                self._patch(cls, meth, staticmethod(make(name, raw.__func__)))
            else:
                self._patch(cls, meth, make(name, raw))
            return
        orig = getattr(home, qualname)
        wrapper = make(name, orig)
        # every legseq namespace that imported the function by name
        for mod_name in ("legseq",) + tuple(f"legseq.{m}" for m in
                                            MODULES + ("tables",)):
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, names in TIMED.items():
            for qualname in names:
                self._wrap(module, qualname, self._timed)
        for module, names in COUNTED.items():
            for qualname in names:
                self._wrap(module, qualname, self._counted)

    def uninstall(self):
        while self._patched:
            ns, attr, orig = self._patched.pop()
            setattr(ns, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def metrics(self, traced_wall_s, untraced_wall_s) -> dict:
        ms = Counter()
        calls = Counter()
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            dur = (end - start) * 1000
            ms[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_ms[parent] += dur
        self_ms = Counter()
        for (name, start, end, _), child in zip(self.spans, child_ms):
            self_ms[name.split(".")[0]] += (end - start) * 1000 - child

        out = {}
        for name in _timed_names():
            out[f"{name}.ms"] = ms[name]
            out[f"{name}.calls"] = calls[name]
        out["bounds.ms"] = sum(ms[f"bounds.{f}"] for f in TIMED["bounds"])
        out["bounds.calls"] = sum(calls[f"bounds.{f}"]
                                  for f in TIMED["bounds"])
        out.update(self.counts)
        for kind in ("correlation", "cross_correlation"):
            tuples = self.counts[f"measures.{kind}.tuples"]
            out[f"measures.{kind}.us_per_tuple"] = (
                ms[f"measures.{kind}"] * 1000 / tuples if tuples else 0.0)
        for m in MODULES:
            out[f"{m}.self_ms"] = self_ms[m]
        out["harness.self_ms"] = traced_wall_s * 1000 - ms["cli.main"]
        out["traced_wall_s"] = traced_wall_s
        out["untraced_wall_s"] = untraced_wall_s
        out["trace_overhead_frac"] = traced_wall_s / untraced_wall_s - 1
        specs = metric_specs()
        return {name: out.get(name, 0) for name, _, _ in specs}
