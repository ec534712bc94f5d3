"""Small deterministic max-flow kernel.

Edmonds-Karp (BFS shortest augmenting paths) over adjacency lists. Capacities
may be any ordered numbers. In this package exact callers hand it Python
ints and float-mode callers floats: exact callers scale their rational
amounts to integers with `scale_to_integers` and read flows back as
Fraction(flow, unit). The kernel only compares residuals and takes minima,
and both keep their order under one positive scale, so the scaled network
takes the same augmenting paths as the rational one without Fraction
arithmetic. Augmentation order is fixed by edge insertion order, which
callers use to make allocations reproducible.

Every network this package builds is layered: the source's edges go to
left nodes (buyers), left nodes' edges go to right nodes (goods), right
nodes' edges go to the sink, and no other edge exists. On such a network
the shortest augmenting paths are source -> left -> right -> sink, and
Edmonds-Karp's breadth-first search takes them in a fixed order: by the
source's adjacency order, then by each left node's, then by each right
node's edges to the sink. Augmenting one closes one of its three edges,
and no path of three edges reopens an edge of another (only reverse
residuals grow). So max_flow first augments every such path in one sweep in
that order, which is exactly the phase of Edmonds-Karp that runs on
three-edge paths, and its searches then only find the rare longer paths.
The residuals and the returned total are the ones the searches alone would
leave. Layering is read off the edges at each call; a network that is not
layered runs the searches alone.

`zero` is the residual threshold: residual capacities at or below it count as
saturated (0 for exact arithmetic, a tiny scale-relative slack for floats).
"""

from __future__ import annotations

import math
from collections import deque


def scale_to_integers(amounts):
    """(unit, integers): the least common denominator of the rational
    `amounts` and each amount times it."""
    unit = math.lcm(*(a.denominator for a in amounts))
    return unit, [a.numerator * (unit // a.denominator) for a in amounts]


class FlowNetwork:
    def __init__(self, n_nodes: int, zero=0):
        self.n_nodes = n_nodes
        self.adj = [[] for _ in range(n_nodes)]
        self.to = []
        self.residual = []
        self.zero = zero

    def add_edge(self, u: int, v: int, capacity) -> int:
        """Add a directed edge; returns its id. The reverse edge is id ^ 1."""
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.residual.append(capacity)
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.residual.append(0 * capacity)
        return eid

    def flow_on(self, eid: int):
        """Flow currently pushed through edge eid (= residual of its reverse)."""
        return self.residual[eid ^ 1]

    def _find_path(self, source: int, sink: int):
        adj, to, residual, zero = self.adj, self.to, self.residual, self.zero
        parent_edge = [-1] * self.n_nodes
        parent_edge[source] = -2
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                v = to[eid]
                if parent_edge[v] == -1 and residual[eid] > zero:
                    parent_edge[v] = eid
                    if v == sink:
                        return parent_edge
                    queue.append(v)
        return None

    def _layers(self, source: int, sink: int):
        """The edges leaving each node, in adjacency order, when the network
        is layered source -> left -> right -> sink (see the module
        docstring); else None. Right nodes are those with an edge to the
        sink, left nodes all others but the source and the sink."""
        to = self.to
        if source == sink:
            return None
        right = {to[eid + 1] for eid in range(0, len(to), 2) if to[eid] == sink}
        if source in right or sink in right:
            return None
        out = [[] for _ in range(self.n_nodes)]
        for eid in range(0, len(to), 2):
            u, v = to[eid + 1], to[eid]
            if u == source:
                layered = v != source and v != sink and v not in right
            elif u in right:
                layered = v == sink
            else:
                layered = u != sink and v in right
            if not layered:
                return None
            out[u].append(eid)
        return out

    def _sweep(self, source: int, out):
        """Augment every path source -> left -> right -> sink of a layered
        network, in breadth-first order; returns the flow added."""
        to, residual, zero = self.to, self.residual, self.zero
        total = 0 * zero if zero else 0
        for es in out[source]:
            for eb in out[to[es]]:
                for et in out[to[eb]]:
                    rs, rb = residual[es], residual[eb]
                    if rs <= zero or rb <= zero:
                        break
                    rt = residual[et]
                    if rt <= zero:
                        continue
                    # The search's bottleneck: the sink edge's residual,
                    # replaced only by a strictly smaller one.
                    bottleneck = min(rt, rb, rs)
                    residual[et] -= bottleneck
                    residual[et ^ 1] += bottleneck
                    residual[eb] -= bottleneck
                    residual[eb ^ 1] += bottleneck
                    residual[es] -= bottleneck
                    residual[es ^ 1] += bottleneck
                    total += bottleneck
                if residual[es] <= zero:
                    break
        return total

    def max_flow(self, source: int, sink: int):
        """Push flow until no augmenting path remains; returns the added value.

        May be called repeatedly (e.g. after adding edges); each call returns
        only the increment, so totals are the caller's bookkeeping. A layered
        network first has its three-edge paths swept (see the module
        docstring).
        """
        to, residual = self.to, self.residual
        out = self._layers(source, sink)
        if out is None:
            total = 0 * self.zero if self.zero else 0
        else:
            total = self._sweep(source, out)
        while True:
            parent_edge = self._find_path(source, sink)
            if parent_edge is None:
                return total
            bottleneck = None
            v = sink
            while v != source:
                eid = parent_edge[v]
                r = residual[eid]
                if bottleneck is None or r < bottleneck:
                    bottleneck = r
                v = to[eid ^ 1]
            v = sink
            while v != source:
                eid = parent_edge[v]
                residual[eid] -= bottleneck
                residual[eid ^ 1] += bottleneck
                v = to[eid ^ 1]
            total += bottleneck

    def reachable_from(self, source: int):
        """Nodes reachable through positive residuals; after max_flow this is
        the source side of a minimum cut."""
        return self._search(source, 0)

    def reaching(self, target: int):
        """Nodes with a positive-residual path to target; after max_flow, the
        nodes that could still pass more flow on to the sink."""
        return self._search(target, 1)

    def _search(self, start: int, flip: int):
        """Breadth-first search from start along each adjacent edge eid whose
        residual at eid ^ flip is positive: the edge itself (flip 0) walks
        forward, its reverse (flip 1) walks backward."""
        seen = [False] * self.n_nodes
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if not seen[v] and self.residual[eid ^ flip] > self.zero:
                    seen[v] = True
                    queue.append(v)
        return seen
