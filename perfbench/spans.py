"""Span tracer that wraps the library's public functions from outside.

Each layer is one module of ``structdae``.  Every public function defined
in a layer module is replaced, in every ``structdae`` namespace that holds
the function object (modules import each other's functions by name), by a
wrapper that records a span: name, layer, start, end, parent and whether
the call raised.  A few methods that carry per-point work are wrapped on
their classes.  Spans stay in memory; ``summary`` turns them into per-layer
self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("matfun", "structure", "factor", "canonical", "reduce", "flow", "models", "cli")

# (layer, class, method): per-point work that plain function wrapping misses
METHODS = (
    ("matfun", "MatrixFunction", "eval_on"),
    ("matfun", "MatrixFunction", "derivative_on"),
    ("matfun", "ConstantMatrixFunction", "eval_on"),
    ("matfun", "ConstantMatrixFunction", "derivative_on"),
    ("matfun", "SampledMatrixFunction", "__init__"),
    ("matfun", "SampledMatrixFunction", "eval"),
    ("matfun", "SampledMatrixFunction", "derivative"),
    ("matfun", "SampledMatrixFunction", "eval_on"),
    ("matfun", "SampledMatrixFunction", "derivative_on"),
    ("reduce", "ReducedSystem", "reconstruct"),
)


def _grid_n(args, kwargs):
    """Points of the first TimeGrid argument (0 when there is none)."""
    for a in (*args, *kwargs.values()):
        if type(a).__name__ == "TimeGrid":
            return int(a.n)
    return 0


def _count_point_eval(counts, args, kwargs, result):
    counts["matfun.point_evals"] += 1


def _count_sampled_bytes(counts, args, kwargs, result):
    smf = args[0]
    extra = smf.deriv_values.nbytes if smf.deriv_values is not None else 0
    counts["matfun.sampled_bytes"] += smf.values.nbytes + extra


def _count_factor_points(counts, args, kwargs, result):
    counts["factor.points"] += _grid_n(args, kwargs)


def _count_flow_steps(counts, args, kwargs, result):
    counts["flow.steps"] += max(_grid_n(args, kwargs) - 1, 0)


def _count_stages(counts, args, kwargs, result):
    counts["canonical.stages"] += len(result.stage_residuals)


# counters keyed by "layer.qualname", updated after a successful call
COUNTERS = {
    "matfun.SampledMatrixFunction.eval": _count_point_eval,
    "matfun.SampledMatrixFunction.derivative": _count_point_eval,
    "matfun.SampledMatrixFunction.__init__": _count_sampled_bytes,
    "factor.rank_split": _count_factor_points,
    "factor.sym_rank_split": _count_factor_points,
    "factor.smooth_inertia": _count_factor_points,
    "factor.row_rank_normalize": _count_factor_points,
    "factor.smooth_kernel_frame": _count_factor_points,
    "flow.integrate_linear": _count_flow_steps,
    "flow.fundamental_solution": _count_flow_steps,
    "canonical.global_canonical_self": _count_stages,
    "canonical.global_canonical_skew": _count_stages,
}


class Tracer:
    """Records spans of the wrapped calls made inside ``recording()``."""

    def __init__(self, package):
        self.layers = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        self.modules = [package, *self.layers.values()]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._plan()

    def _plan(self):
        for layer, mod in self.layers.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for owner in self.modules:
                    for attr, val in vars(owner).items():
                        if val is fn:
                            self._patches.append((owner, attr, fn, wrapper))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.layers[layer], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn, self._wrap(layer, f"{cls_name}.{meth}", fn)))

    def _wrap(self, layer, qualname, fn):
        tracer = self
        key = f"{layer}.{qualname}"
        counter = COUNTERS.get(key)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            failed = True
            start = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (key, layer, start, end, stack[-1] if stack else -1, failed)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def recording(self):
        """Install the wrappers for the duration of the block."""
        self.spans, self.counts, self._stack = [], Counter(), []
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _durations(self):
        """Duration and self time (duration minus direct children) per span."""
        dur = np.array([s[3] - s[2] for s in self.spans])
        parent = np.array([s[4] for s in self.spans], dtype=int)
        child = np.zeros(len(dur))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        return dur, dur - child

    def summary(self):
        """Per-layer self time, failures and counts of the recorded spans.

        A span's self time is its duration minus that of its direct child
        spans; summing over a layer's spans gives the layer's time minus the
        time covered by other layers it called.
        """
        spans = self.spans
        n = len(spans)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({"reduce.reconstruct_s": 0.0, "reduce.reconstruct_calls": 0,
                    "reduce.attempts": 0, "reduce.failed_attempts": 0,
                    "reduce.wasted_s": 0.0, "trace.failed_calls": 0,
                    "trace.failed_s": 0.0, "trace.spans": n})
        for name in ("matfun.point_evals", "matfun.sampled_bytes", "factor.points",
                     "flow.steps", "canonical.stages"):
            out[name] = self.counts.get(name, 0)
        dur, excl = self._durations()
        for i, (key, layer, _, _, p, failed) in enumerate(spans):
            out[f"{layer}.self_s"] += excl[i]
            entry = p < 0 or spans[p][1] != layer  # call into the layer from outside
            if key == "reduce.ReducedSystem.reconstruct":
                out["reduce.reconstruct_calls"] += 1
                out["reduce.reconstruct_s"] += dur[i]
            elif layer == "reduce" and entry:
                out["reduce.attempts"] += 1
                if failed:
                    out["reduce.failed_attempts"] += 1
                    out["reduce.wasted_s"] += dur[i]
            if failed and entry:
                out["trace.failed_calls"] += 1
                out["trace.failed_s"] += dur[i]
        return {k: (float(v) if isinstance(v, (float, np.floating)) else int(v))
                for k, v in out.items()}

    def functions(self):
        """Calls, total and self seconds per wrapped function, for the trace dump."""
        table = {}
        dur, excl = self._durations()
        for i, (key, _, _, _, _, failed) in enumerate(self.spans):
            row = table.setdefault(key, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(failed)
            row["total_s"] += float(dur[i])
            row["self_s"] += float(excl[i])
        return table
