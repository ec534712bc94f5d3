"""Small deterministic max-flow kernel on layered networks.

A FlowNetwork's layout is fixed when it is built: the source is node 0, the
`left` nodes (demand patterns) come next, then the `right` nodes (goods), and
the sink is the last node. Every edge runs source -> left, left -> right or
right -> sink; add_edge refuses any other.

max_flow is Edmonds-Karp (BFS shortest augmenting paths) over adjacency
lists. Capacities may be any ordered numbers. In this package its one
builder, `feasibility.pattern_network`, hands it Python ints in exact mode
and floats in float mode: it brings the budgets (on the market's
`integer_budgets` scale) and the capacities onto one integer unit, and its
callers read flows back as Fraction(flow, unit). The kernel only compares residuals and takes
minima, and both keep their order under one positive scale, so the scaled
network takes the same augmenting paths as the rational one without Fraction
arithmetic. Augmentation order is fixed by edge insertion order, which
callers use to make allocations reproducible.

On a layered network the shortest augmenting paths are
source -> left -> right -> sink, and Edmonds-Karp's breadth-first search
takes them in a fixed order: by the source's adjacency order, then by each
left node's, then by each right node's edges to the sink. Augmenting one
closes one of its three edges, and no path of three edges reopens an edge of
another (only reverse residuals grow). So max_flow first augments every such
path in one sweep in that order, which is exactly the phase of Edmonds-Karp
that runs on three-edge paths, and its searches then only find the rare
longer paths. The residuals and the returned total are the ones the searches
alone would leave.

One breadth-first search over the residual graph, `_search`, serves both
uses: it records the edge that first reached each node, and it returns early
once an optional `stop` node is reached. max_flow stops it at the sink and
augments back along the recorded edges; reachable_from and reaching run it to
the end, from the source forward and from the sink backward, for the cuts.

`zero` is the residual threshold: residual capacities at or below it count as
saturated (0 for exact arithmetic, a tiny scale-relative slack for floats).
"""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    """A network layered source -> left -> right -> sink: the source is node
    0, left nodes are 1..left, right nodes left + 1..left + right, and the
    sink is node left + right + 1."""

    def __init__(self, left: int, right: int, zero=0):
        self.left = left
        self.source = 0
        self.sink = left + right + 1
        self.n_nodes = self.sink + 1
        self.adj = [[] for _ in range(self.n_nodes)]
        self.to = []
        self.residual = []
        self.zero = zero

    def add_edge(self, u: int, v: int, capacity) -> int:
        """Add a directed edge source -> left, left -> right or right -> sink
        (ValueError for any other); returns its id, which is even. The
        reverse edge is id ^ 1."""
        left, sink = self.left, self.sink
        if not (u == 0 < v <= left or 0 < u <= left < v < sink or left < u < sink == v):
            raise ValueError(f"edge {u} -> {v} is not source -> left, left -> right or right -> sink")
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

    def _sweep(self):
        """Augment every path source -> left -> right -> sink in breadth-first
        order; returns the flow added.

        Adjacency lists keep insertion order; forward edges have even ids,
        reverse ones odd. No edge enters the source, and a left node's
        forward edges are read off its list by parity. A right node's list
        also holds one reverse edge per left node that reaches it, so its
        edges to the sink are read off the sink's list instead, once per
        call."""
        adj, to, residual, zero = self.adj, self.to, self.residual, self.zero
        total = 0 * zero if zero else 0
        to_sink = {}
        for r in adj[self.sink]:
            to_sink.setdefault(to[r], []).append(r ^ 1)
        for es in adj[self.source]:
            for eb in adj[to[es]]:
                if eb & 1:
                    continue
                for et in to_sink.get(to[eb], ()):
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

    def max_flow(self):
        """Push flow from the source to the sink until no augmenting path
        remains; returns the added value.

        May be called repeatedly (e.g. after adding edges); each call returns
        only the increment, so totals are the caller's bookkeeping. Every
        call sweeps the three-edge paths first and then searches for longer
        ones (see the module docstring).
        """
        to, residual, source, sink = self.to, self.residual, self.source, self.sink
        total = self._sweep()
        while True:
            parent_edge = self._search(source, 0, sink)
            if parent_edge[sink] == -1:
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

    def reachable_from(self):
        """Nodes reachable from the source through positive residuals; after
        max_flow this is the source side of a minimum cut."""
        return [e != -1 for e in self._search(self.source, 0)]

    def reaching(self):
        """Nodes with a positive-residual path to the sink; after max_flow,
        the nodes that could still pass more flow on to it."""
        return [e != -1 for e in self._search(self.sink, 1)]

    def _search(self, start: int, flip: int, stop: int = -1):
        """Breadth-first search from start along each adjacent edge eid whose
        residual at eid ^ flip is above zero: the edge itself (flip 0) walks
        forward, its reverse (flip 1) walks backward. Returns each node's
        parent edge, the edge the search first reached it by: -2 at start
        and -1 where it never arrived. The search returns as soon as it
        reaches node `stop` (-1, no node, searches everything)."""
        adj, to, residual, zero = self.adj, self.to, self.residual, self.zero
        parent_edge = [-1] * self.n_nodes
        parent_edge[start] = -2
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                v = to[eid]
                if parent_edge[v] == -1 and residual[eid ^ flip] > zero:
                    parent_edge[v] = eid
                    if v == stop:
                        return parent_edge
                    queue.append(v)
        return parent_edge
