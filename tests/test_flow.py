"""Max-flow kernel: values, incremental reuse, residual cuts, thresholds."""

import random
from fractions import Fraction

import pytest

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


# --- the sweep of three-edge paths against Edmonds-Karp's searches alone ---


def _reference_max_flow(net, source, sink):
    """Edmonds-Karp with nothing but breadth-first searches: the kernel's
    answer on every network, layered or not."""
    to, residual = net.to, net.residual
    total = 0 * net.zero if net.zero else 0
    while True:
        parent_edge = net._find_path(source, sink)
        if parent_edge is None:
            return total
        path = []
        v = sink
        while v != source:
            path.append(parent_edge[v])
            v = to[parent_edge[v] ^ 1]
        bottleneck = residual[path[0]]
        for eid in path[1:]:
            if residual[eid] < bottleneck:
                bottleneck = residual[eid]
        for eid in path:
            residual[eid] -= bottleneck
            residual[eid ^ 1] += bottleneck
        total += bottleneck


def _layered(rng, number, spend=None):
    """(edges, n_nodes, left, right): the edges of a random network layered
    source 0 -> left -> right -> sink, as (u, v, capacity) in insertion
    order. Spend edges carry `spend` when given, as _route and _Routing
    build them, else random capacities."""
    m, n = rng.randint(1, 12), rng.randint(1, 5)
    left = list(range(1, m + 1))
    right = list(range(m + 1, m + n + 1))
    sink = m + n + 1
    edges = []
    for b in left:
        if rng.random() < 0.85:
            edges.append((0, b, number()))
        for g in rng.sample(right, rng.randint(0, n)):
            edges.append((b, g, spend if spend is not None else number()))
    for g in right:
        edges.append((g, sink, number()))
        if rng.random() < 0.1:
            edges.append((g, sink, number()))  # a parallel sink edge
    if rng.random() < 0.2 and edges and edges[0][0] == 0:
        edges.append(edges[0])  # a parallel source edge
    return edges, sink + 1, left, right


def _both(edges, n_nodes, zero):
    kernel, reference = FlowNetwork(n_nodes, zero), FlowNetwork(n_nodes, zero)
    for u, v, cap in edges:
        kernel.add_edge(u, v, cap)
        reference.add_edge(u, v, cap)
    return kernel, reference


def _same(kernel, reference, source, sink):
    got, want = kernel.max_flow(source, sink), _reference_max_flow(reference, source, sink)
    assert (got, type(got)) == (want, type(want))
    assert [(r, type(r)) for r in kernel.residual] == [
        (r, type(r)) for r in reference.residual
    ]
    return got


def _numbers(rng, exact):
    if exact:
        return lambda: rng.choice((0, rng.randint(1, 9), rng.randint(1, 10**6)))
    # Capacities at or just above the threshold 1e-9 leave residuals that
    # count as saturated.
    return lambda: rng.choice((0.0, 1e-10, 1.0 + 1e-12, rng.random(), rng.uniform(0, 1e6), 1.0 / 3))


@pytest.mark.parametrize("exact", [True, False], ids=["int", "float"])
def test_sweep_matches_breadth_first_search_on_layered_networks(exact):
    rng = random.Random(13 if exact else 31)
    zero = 0 if exact else 1e-9
    for trial in range(400):
        number = _numbers(rng, exact)
        spend = None
        if trial % 2:  # finite spend edges above every budget and capacity
            spend = 10**7 if exact else 2e6
        edges, n_nodes, left, right = _layered(rng, number, spend)
        kernel, reference = _both(edges, n_nodes, zero)
        sink = n_nodes - 1
        _same(kernel, reference, 0, sink)
        # A second call after new source edges, as _Routing's extension
        # phase adds its flexible buyers.
        for b in rng.sample(left, rng.randint(0, len(left))):
            cap = number()
            kernel.add_edge(0, b, cap)
            reference.add_edge(0, b, cap)
        _same(kernel, reference, 0, sink)


def test_sweep_takes_most_augmentations_on_spending_networks():
    """A _Routing-shaped network is layered and swept: its searches then
    run only for longer paths, and once more to find none. The searches
    alone need seven on this one; the sweep leaves the last."""
    rng = random.Random(5)
    edges, n_nodes, _, _ = _layered(rng, _numbers(rng, True), 10**7)
    net, reference = _both(edges, n_nodes, 0)
    assert net._layers(0, n_nodes - 1) is not None
    searches = []
    find = net._find_path
    net._find_path = lambda s, t: searches.append(1) or find(s, t)
    assert net.max_flow(0, n_nodes - 1) == _reference_max_flow(reference, 0, n_nodes - 1)
    assert len(searches) == 1


@pytest.mark.parametrize(
    "extra",
    ["left_to_left", "source_to_sink", "left_to_sink", "right_to_left", "into_source"],
)
@pytest.mark.parametrize("exact", [True, False], ids=["int", "float"])
def test_networks_that_are_not_layered_run_the_searches(extra, exact):
    rng = random.Random(len(extra) + exact)
    zero = 0 if exact else 1e-9
    searched_alone = 0
    for _ in range(150):
        number = _numbers(rng, exact)
        edges, n_nodes, left, right = _layered(rng, number)
        sink = n_nodes - 1
        u, v = {
            "left_to_left": (rng.choice(left), rng.choice(left)),
            "source_to_sink": (0, sink),
            "left_to_sink": (rng.choice(left), sink),
            "right_to_left": (rng.choice(right), rng.choice(left)),
            "into_source": (rng.choice(left), 0),
        }[extra]
        edges.insert(rng.randint(0, len(edges)), (u, v, number() or (7 if exact else 7.0)))
        kernel, reference = _both(edges, n_nodes, zero)
        # A left node whose only edge goes to the sink is a right node, so
        # that network is still layered.
        searched_alone += kernel._layers(0, sink) is None
        _same(kernel, reference, 0, sink)
    assert searched_alone >= 100
