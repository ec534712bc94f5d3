"""Max-flow kernel: values, incremental reuse, residual cuts, thresholds."""

from fractions import Fraction

from qfmarket.flow import FlowNetwork

F = Fraction


def _diamond():
    net = FlowNetwork(4)
    edges = {
        "s1": net.add_edge(0, 1, F(3)),
        "s2": net.add_edge(0, 2, F(2)),
        "13": net.add_edge(1, 3, F(2)),
        "23": net.add_edge(2, 3, F(2)),
        "12": net.add_edge(1, 2, F(1)),
    }
    return net, edges


def test_max_flow_value_and_conservation():
    net, edges = _diamond()
    assert net.max_flow(0, 3) == F(4)
    inflow = net.flow_on(edges["s1"]) + net.flow_on(edges["s2"])
    outflow = net.flow_on(edges["13"]) + net.flow_on(edges["23"])
    assert inflow == outflow == F(4)
    # node 1 conserves: in from source = out via the two edges
    assert net.flow_on(edges["s1"]) == net.flow_on(edges["13"]) + net.flow_on(edges["12"])


def test_max_flow_is_incremental():
    net, _ = _diamond()
    assert net.max_flow(0, 3) == F(4)
    assert net.max_flow(0, 3) == F(0)  # already maximal
    net.add_edge(0, 3, F(5))
    assert net.max_flow(0, 3) == F(5)  # only the increment comes back


def test_reachable_from_gives_min_cut_side():
    net = FlowNetwork(4)
    net.add_edge(0, 1, F(5))
    bottleneck = net.add_edge(1, 2, F(1))
    net.add_edge(2, 3, F(5))
    assert net.max_flow(0, 3) == F(1)
    reach = net.reachable_from(0)
    assert reach == [True, True, False, False]
    assert net.reaching(3) == [False, False, True, True]
    assert net.flow_on(bottleneck) == F(1)


def test_float_zero_threshold_treats_tiny_residuals_as_saturated():
    net = FlowNetwork(3, zero=1e-9)
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 1.0 + 1e-12)
    total = net.max_flow(0, 2)
    assert abs(total - 1.0) <= 1e-9
    # the hair of residual left on the second edge must not count as a path
    assert net.max_flow(0, 2) == 0.0


def test_exact_fractional_capacities_stay_exact():
    net = FlowNetwork(3)
    net.add_edge(0, 1, F(1, 3))
    net.add_edge(0, 1, F(1, 7))
    net.add_edge(1, 2, F(1))
    assert net.max_flow(0, 2) == F(1, 3) + F(1, 7)
