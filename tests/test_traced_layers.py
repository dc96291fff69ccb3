"""The benchmark's tracer sees the layers the sampler and metric reduction
run through: the sampler's presentation comes from the public `jacobian`,
which the tracer counts `jacobian.generator_bits` on, and `metric_reduce`'s
first step is the public `metric_make_effective`, which it times.

The tracer and the speed probe are imported from `benchmark/`, read-only,
as `benchmark/test_checks.py` does.
"""

import os
import sys

import chipfire
from chipfire.graph import Graph
from chipfire.metric import MetricDivisor, MetricGraph

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmark"))

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def _traced(call):
    """call()'s output and the per-operation layer metrics of one traced
    run of it.  call looks its function up on chipfire when it runs, so it
    gets the tracer's wrapper."""
    tracer = Tracer()
    probe = SpeedProbe()
    tracer.install()
    probe.start()
    try:
        tracer.op = 0
        tracer.enabled = True
        out = call()
        tracer.enabled = False
    finally:
        probe.stop()
        tracer.uninstall()
    return out, tracer.layer_metrics(1, probe, {0: 1.0})


def test_sampler_traces_its_presentation():
    # the 5-vertex multigraph of benchmark/test_checks.py
    G = Graph(5, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4), (3, 4)))
    trees, layers = _traced(lambda: chipfire.sample_spanning_tree(G, 0, 3, count=4))
    assert len(trees) == 4
    assert layers["jacobian.generator_bits"] > 0
    assert layers["potential.j_function.calls"] == 4
    assert layers["kernels.burn.calls"] == 4


def test_metric_reduce_traces_make_effective():
    # the unit-length C10(1, 2) and the divisor of CI's metric example
    G = Graph(10, [(i, (i + s) % 10) for s in (1, 2) for i in range(10)])
    gamma = MetricGraph(G, [1] * G.m)
    D = MetricDivisor({gamma.vertex_point(3): 15, gamma.vertex_point(5): 12,
                       gamma.vertex_point(7): -10})
    report, layers = _traced(lambda: chipfire.metric_reduce(gamma, gamma.vertex_point(0), D))
    assert len(report.iterations) == 9
    assert layers["metric.metric_make_effective.ms"] > 0
    assert layers["metric.luo_moves"] == 9
