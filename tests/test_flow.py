"""Max-flow kernel: values, incremental reuse, residual cuts, thresholds."""

import random
from fractions import Fraction

import pytest

from qfmarket.flow import FlowNetwork

F = Fraction


def _diamond():
    """Source 0, patterns 1 and 2, goods 3 and 4, sink 5. The sweep routes
    4 of the 5 units; the fifth takes the five-edge path
    0 -> 2 -> 3 -> 1 -> 4 -> 5, back through the flow on 1 -> 3."""
    net = FlowNetwork(2, 2)
    edges = {
        "s1": net.add_edge(0, 1, F(3)),
        "s2": net.add_edge(0, 2, F(2)),
        "13": net.add_edge(1, 3, F(2)),
        "14": net.add_edge(1, 4, F(2)),
        "23": net.add_edge(2, 3, F(2)),
        "3t": net.add_edge(3, 5, F(3)),
        "4t": net.add_edge(4, 5, F(2)),
    }
    return net, edges


def test_layout_is_fixed_by_the_layer_sizes():
    net = FlowNetwork(2, 3)
    assert (net.source, net.sink, net.n_nodes) == (0, 6, 7)


def test_max_flow_value_and_conservation():
    net, edges = _diamond()
    assert net.max_flow() == F(5)
    flow = {name: net.flow_on(eid) for name, eid in edges.items()}
    assert flow["s1"] + flow["s2"] == flow["3t"] + flow["4t"] == F(5)
    # each pattern and each good conserves
    assert flow["s1"] == flow["13"] + flow["14"]
    assert flow["s2"] == flow["23"]
    assert flow["13"] + flow["23"] == flow["3t"]
    assert flow["14"] == flow["4t"]
    assert flow["13"] == F(1)  # the longer path took one unit back


def test_max_flow_is_incremental():
    net, _ = _diamond()
    assert net.max_flow() == F(5)
    assert net.max_flow() == F(0)  # already maximal
    net.add_edge(0, 2, F(4))
    net.add_edge(2, 4, F(4))
    net.add_edge(4, 5, F(3))
    assert net.max_flow() == F(3)  # only the increment comes back


def test_reachable_from_gives_min_cut_side():
    net = FlowNetwork(1, 1)
    net.add_edge(0, 1, F(5))
    bottleneck = net.add_edge(1, 2, F(1))
    net.add_edge(2, 3, F(5))
    assert net.max_flow() == F(1)
    reach = net.reachable_from()
    assert reach == [True, True, False, False]
    assert net.reaching() == [False, False, True, True]
    assert net.flow_on(bottleneck) == F(1)


def test_float_zero_threshold_treats_tiny_residuals_as_saturated():
    net = FlowNetwork(1, 1, zero=1e-9)
    net.add_edge(0, 1, 1.0 + 1e-12)
    net.add_edge(1, 2, 2.0)
    net.add_edge(2, 3, 1.0)
    total = net.max_flow()
    assert abs(total - 1.0) <= 1e-9
    # the hair of residual left on the source edge must not count as a path,
    # even once a new sink edge opens one
    net.add_edge(2, 3, 1.0)
    assert net.max_flow() == 0.0


def test_exact_fractional_capacities_stay_exact():
    net = FlowNetwork(1, 1)
    net.add_edge(0, 1, F(1, 3))
    net.add_edge(0, 1, F(1, 7))
    net.add_edge(1, 2, F(1))
    net.add_edge(2, 3, F(1))
    assert net.max_flow() == F(1, 3) + F(1, 7)


# --- the sweep of three-edge paths against Edmonds-Karp's searches alone ---


def _reference_max_flow(net):
    """Edmonds-Karp with nothing but breadth-first searches: what the
    kernel's sweep and searches together must leave."""
    to, residual, source, sink = net.to, net.residual, net.source, net.sink
    total = 0 * net.zero if net.zero else 0
    while True:
        parent_edge = net._search(source, 0, sink)
        if parent_edge[sink] == -1:
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
    """(edges, m, n): the edges of a random network with m left and n right
    nodes, as (u, v, capacity) in insertion order. Spend edges carry
    `spend` when given, as feasibility.pattern_network builds them for the
    flow checks and the descent alike, else random capacities."""
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
    return edges, m, n


def _network(edges, m, n, zero):
    net = FlowNetwork(m, n, zero)
    for u, v, cap in edges:
        net.add_edge(u, v, cap)
    return net


def _same(kernel, reference):
    got, want = kernel.max_flow(), _reference_max_flow(reference)
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
        edges, m, n = _layered(rng, number, spend)
        kernel, reference = _network(edges, m, n, zero), _network(edges, m, n, zero)
        _same(kernel, reference)
        # A second call after new source edges, as _flow_check's extension
        # phase adds its flexible patterns.
        for b in rng.sample(range(1, m + 1), rng.randint(0, m)):
            cap = number()
            kernel.add_edge(0, b, cap)
            reference.add_edge(0, b, cap)
        _same(kernel, reference)


def test_sweep_takes_most_augmentations_on_spending_networks():
    """A _flow_check-shaped network is swept: its searches then run only for
    longer paths, and once more to find none. The searches alone need
    seven on this one; the sweep leaves the last."""
    rng = random.Random(5)
    edges, m, n = _layered(rng, _numbers(rng, True), 10**7)
    net, reference = _network(edges, m, n, 0), _network(edges, m, n, 0)
    searches = []
    search = net._search
    net._search = lambda *args: searches.append(1) or search(*args)
    assert net.max_flow() == _reference_max_flow(reference)
    assert len(searches) == 1


@pytest.mark.parametrize(
    "extra",
    ["left_to_left", "source_to_sink", "left_to_sink", "right_to_left", "into_source"],
)
@pytest.mark.parametrize("exact", [True, False], ids=["int", "float"])
def test_networks_that_are_not_layered_run_the_searches(extra, exact):
    """No network that is not layered can be built any more: each edge kind
    that would break the layering is refused, and the network is left as it
    was. (The name is kept from when such networks ran the searches alone,
    so the suite's test ids stay stable.)"""
    rng = random.Random(len(extra) + exact)
    zero = 0 if exact else 1e-9
    for _ in range(50):
        number = _numbers(rng, exact)
        edges, m, n = _layered(rng, number)
        net = _network(edges, m, n, zero)
        left, right = range(1, m + 1), range(m + 1, m + n + 1)
        u, v = {
            "left_to_left": (rng.choice(left), rng.choice(left)),
            "source_to_sink": (net.source, net.sink),
            "left_to_sink": (rng.choice(left), net.sink),
            "right_to_left": (rng.choice(right), rng.choice(left)),
            "into_source": (rng.choice(left), net.source),
        }[extra]
        before = ([list(a) for a in net.adj], list(net.to), list(net.residual))
        with pytest.raises(ValueError, match="is not source -> left"):
            net.add_edge(u, v, number())
        assert ([list(a) for a in net.adj], net.to, net.residual) == before
