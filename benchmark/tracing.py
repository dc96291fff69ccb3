"""Spans around the public functions of chipfire's modules, from outside.

The traced run replaces each function listed in LAYERS by a wrapper at every
place the function object is bound: its own module, every chipfire module
that imported it by name (``reduction`` binds ``j_function``, ``jacobian``
binds ``reduce``) and the package namespace.  The ``jacobian`` module is
looked up in ``sys.modules`` because ``chipfire.jacobian`` is the function
of that name, which the package re-exports over the submodule.

Spans (name, operation index, start, end, parent span) stay in memory and
are written out by the caller when the run ends.  A layer's self time is
its span's duration minus the durations of its direct child spans, with
the speed probe's time taken out and the rest rescaled (see speed.py).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _generator_bits(pres):
    return max(
        (abs(c).bit_length() for g in pres.generators for c in g), default=0
    )


def _one(_out):
    return 1


# (span name, module, function, time metric suffix or None, counters)
# A counter maps the function's return value to a per-call count, which
# the run sums and reports per operation under the counter's metric name.
LAYERS = (
    ("exact.det", "chipfire.exact", "det", "ms", {}),
    ("exact.solve", "chipfire.exact", "solve", "ms", {}),
    ("potential.j_function", "chipfire.potential", "j_function", "ms",
     {"potential.j_function.calls": _one}),
    ("graph.apply_laplacian", "chipfire.graph", "apply_laplacian", "ms", {}),
    ("reduction.reduce", "chipfire.reduction", "reduce", "self_ms", {}),
    ("kernels.borrow", "chipfire._kernels", "borrow_until_effective", "ms",
     {"kernels.borrow.moves": lambda out: out[2]}),
    ("kernels.fire", "chipfire._kernels", "fire_until_reduced", "ms",
     {"kernels.fire.set_firings": lambda out: len(out[1])}),
    ("kernels.burn", "chipfire._kernels", "burn", "ms",
     {"kernels.burn.calls": _one}),
    ("kernels.tree_from_reduced", "chipfire._kernels", "tree_from_reduced",
     "ms", {}),
    ("kernels.divisor_from_tree", "chipfire._kernels", "divisor_from_tree",
     "ms", {}),
    ("treebij.divisor_to_tree", "chipfire.treebij", "divisor_to_tree",
     "self_ms", {}),
    ("treebij.tree_to_divisor", "chipfire.treebij", "tree_to_divisor",
     "self_ms", {}),
    ("jacobian.smith_normal_form", "chipfire.jacobian", "smith_normal_form",
     "ms", {}),
    # Traced for its child spans and its output; its own self time is not
    # a metric.
    ("jacobian.jacobian", "chipfire.jacobian", "jacobian", None,
     {"jacobian.generator_bits": _generator_bits}),
    ("jacobian.sample_spanning_tree", "chipfire.jacobian",
     "sample_spanning_tree", "self_ms", {}),
    ("metric.metric_make_effective", "chipfire.metric",
     "metric_make_effective", "ms", {}),
    ("metric.metric_laplacian", "chipfire.metric", "metric_laplacian", "ms",
     {}),
    ("metric.metric_reduce", "chipfire.metric", "metric_reduce", "self_ms",
     {"metric.luo_moves": lambda out: len(out.iterations)}),
)


def metric_names():
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for prefix, _mod, _fn, suffix, counters in LAYERS:
        if suffix is not None:
            out.append((f"{prefix}.{suffix}", "ms"))
        for name in counters:
            out.append((name, "bits" if name.endswith("_bits") else "count"))
    return out


class Tracer:
    """Records spans while enabled; pass-through while disabled."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self.enabled = False
        self._stack = []
        self._restore = []

    def _wrap(self, prefix, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (prefix, self.op, start, end, parent)
            for name, count in counters.items():
                counts[name] += count(out)
            return out

        return wrapper

    def install(self):
        """Wrap every LAYERS function wherever a chipfire module binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "chipfire" or name.startswith("chipfire.")
        ]
        for prefix, mod_name, fn_name, _suffix, counters in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(prefix, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self, n_ops, probe, factors):
        """Per-operation self times (ms) and counts, keyed by metric name.

        A span's time excludes the speed probes that ran inside it and is
        rescaled by its operation's factor (see speed.py), as the
        end-to-end latencies are.
        """
        own_ns = [end - start - probe.probe_ns(start, end)
                  for _name, _op, start, end, _parent in self.spans]
        child_ns = [0] * len(self.spans)
        for i, (_name, _op, _start, _end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += own_ns[i]
        self_ns = defaultdict(float)
        for i, (name, op, start, end, _parent) in enumerate(self.spans):
            factor = factors[op] if op in factors else probe.factor(start, end)
            self_ns[name] += (own_ns[i] - child_ns[i]) * factor
        out = {}
        for prefix, _mod, _fn, suffix, counters in LAYERS:
            if suffix is not None:
                out[f"{prefix}.{suffix}"] = self_ns[prefix] / 1e6 / n_ops
            for name in counters:
                out[name] = self.counts[name] / n_ops
        return out
