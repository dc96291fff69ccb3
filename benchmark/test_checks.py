"""Each output checker of the benchmark accepts a true output and rejects a
corrupted one; the tracer finds functions at every import site; the speed
probe takes its own time out of an interval and rescales the rest.

Run with ``PYTHONPATH=src python -m pytest benchmark``.
"""

import signal
import sys
import time

import pytest

import chipfire
from chipfire.graph import Divisor, Graph

import checks
from checks import CheckError
from speed import REF_NS, SpeedProbe
from tracing import Tracer, metric_names

N = 5
EDGES = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4), (3, 4))
G = Graph(N, EDGES)


def test_reduction_check_accepts_library_result():
    D = [7, -3, 5, 0, -2]
    rep = chipfire.reduce(G, 0, Divisor(D))
    checks.check_reduction(N, EDGES, 0, D, rep.result.coeffs, rep.script.values)


def test_reduction_check_rejects_result_off_the_script():
    D = [7, -3, 5, 0, -2]
    rep = chipfire.reduce(G, 0, Divisor(D))
    result = list(rep.result.coeffs)
    result[0] -= 1
    result[4] += 1
    with pytest.raises(CheckError, match="D - Q"):
        checks.check_reduction(N, EDGES, 0, D, result, rep.script.values)


def test_reduction_check_rejects_equivalent_but_unreduced_result():
    D = [7, -3, 5, 0, -2]
    rep = chipfire.reduce(G, 0, Divisor(D))
    # Borrowing at q keeps the class and the script consistent but leaves
    # a divisor that the fire from q cannot enter.
    script = [x - 1 if v != 0 else x for v, x in enumerate(rep.script.values)]
    moved = checks.apply_laplacian(N, EDGES, script)
    result = [d - x for d, x in zip(D, moved)]
    with pytest.raises(CheckError, match="not q-reduced"):
        checks.check_reduction(N, EDGES, 0, D, result, script)


def test_own_burn_agrees_with_library_on_small_divisors():
    for chips in ([0, 0, 0, 0, 0], [0, 1, 1, 1, 0], [0, 2, 1, 2, 1], [3, 0, 0, 3, 0]):
        assert checks.is_q_reduced(N, EDGES, 0, chips) == chipfire.is_reduced(
            G, 0, Divisor(chips)
        )


def test_spanning_tree_check():
    checks.check_spanning_tree(N, EDGES, [0, 2, 3, 6])
    with pytest.raises(CheckError, match="cycle"):
        checks.check_spanning_tree(N, EDGES, [0, 1, 2, 6])
    with pytest.raises(CheckError, match="expected 4"):
        checks.check_spanning_tree(N, EDGES, [0, 2, 3])
    with pytest.raises(CheckError, match="out of range"):
        checks.check_spanning_tree(N, EDGES, [0, 2, 3, 99])


def test_group_order_check():
    pres = chipfire.jacobian(G, 0)
    checks.check_group_order(pres.invariant_factors, N, EDGES)
    with pytest.raises(CheckError, match="group order"):
        checks.check_group_order((*pres.invariant_factors, 2), N, EDGES)


def test_edge_frequency_check():
    trees = [t.tree_edges for t in chipfire.sample_spanning_tree(G, 0, 7, count=300)]
    checks.check_edge_frequencies(N, EDGES, trees, z=4.5)
    with pytest.raises(CheckError, match="frequency"):
        checks.check_edge_frequencies(N, EDGES, [trees[0]] * 300, z=4.5)


def test_edge_probabilities_sum_to_tree_size():
    assert sum(checks.edge_inclusion_probabilities(N, EDGES)) == pytest.approx(N - 1)


def test_bijection_check():
    tree = frozenset([0, 2, 3, 6])
    D = chipfire.tree_to_divisor(G, 0, tree)
    back = chipfire.divisor_to_tree(G, 0, D).tree_edges
    checks.check_bijection(N, EDGES, 0, tree, D.coeffs, back)
    with pytest.raises(CheckError, match="round trip"):
        checks.check_bijection(N, EDGES, 0, tree, D.coeffs, frozenset([1, 2, 3, 6]))
    heavier = list(D.coeffs)
    heavier[1] += 1
    with pytest.raises(CheckError, match="genus"):
        checks.check_bijection(N, EDGES, 0, tree, heavier, back)
    moved = list(D.coeffs)
    moved[0] += moved[4] + 1
    moved[4] = -1
    with pytest.raises(CheckError, match="not q-reduced"):
        checks.check_bijection(N, EDGES, 0, tree, moved, back)


def test_metric_result_check():
    checks.check_metric_result([1, 0, 2], [1, 0, 2])
    with pytest.raises(CheckError, match="differs"):
        checks.check_metric_result([1, 1, 1], [1, 0, 2])
    with pytest.raises(CheckError, match="inside an edge"):
        checks.check_metric_result(None, [1, 0, 2])


def test_tracer_wraps_every_import_site_and_restores():
    jac_module = sys.modules["chipfire.jacobian"]
    original_reduce = jac_module.reduce
    original_j = chipfire.potential.j_function
    tracer = Tracer()
    probe = SpeedProbe()
    tracer.install()
    probe.start()
    try:
        assert jac_module.reduce is chipfire.reduce is not original_reduce
        assert chipfire.reduction.j_function is not original_j
        tracer.op = 0
        tracer.enabled = True
        chipfire.sample_spanning_tree(G, 0, 3, count=4)
        tracer.enabled = False
    finally:
        probe.stop()
        tracer.uninstall()
    layers = tracer.layer_metrics(1, probe, {0: 1.0})
    assert jac_module.reduce is original_reduce
    assert chipfire.reduction.j_function is original_j
    assert layers["potential.j_function.calls"] == 4
    assert layers["kernels.burn.calls"] == 4
    assert layers["jacobian.smith_normal_form.ms"] > 0
    assert all(v >= 0 for v in layers.values())
    assert set(layers) == {name for name, _unit in metric_names()}


def test_speed_probe_takes_out_and_rescales():
    probe = SpeedProbe()
    probe.starts = [100, 200, 300, 400, 500, 600, 700, 800]
    probe.durations = [10, 20, 30, 40, 50, 60, 70, 80]
    probe.stop()
    assert probe.probe_ns(150, 450) == 20 + 30 + 40
    # [150, 450) holds three probes, so the seven nearest set the speed.
    assert probe.factor(150, 450) == REF_NS / 40
    assert probe.rescale(150, 450) == (300 - 90) * REF_NS / 40


def test_speed_probe_samples_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 5
    assert probe.probe_ns(0, float("inf")) == sum(probe.durations)
