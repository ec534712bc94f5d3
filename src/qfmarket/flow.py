"""Small deterministic max-flow kernel.

Edmonds-Karp (BFS shortest augmenting paths) over adjacency lists. Capacities
may be any ordered numbers. In this package exact callers hand it Python
ints and float-mode callers floats: exact callers scale their rational
amounts to integers with `scale_to_integers` and read flows back as
Fraction(flow, unit). The kernel only compares residuals and takes minima,
and both keep their order under one positive scale, so the scaled network
takes the same augmenting paths as the rational one without Fraction
arithmetic. Graphs in this package have at most a few hundred nodes, so no
effort is spent on asymptotics. Augmentation order is fixed by edge
insertion order, which callers use to make allocations reproducible.

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

    def max_flow(self, source: int, sink: int):
        """Push flow until no augmenting path remains; returns the added value.

        May be called repeatedly (e.g. after adding edges); each call returns
        only the increment, so totals are the caller's bookkeeping.
        """
        to, residual = self.to, self.residual
        total = 0 * self.zero if self.zero else 0
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
