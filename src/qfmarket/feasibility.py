"""Feasibility and clearing of price vectors via a transportation-flow reduction.

A price vector p is feasible when every buyer can be handed a demanded bundle
without exceeding supply. Routing money instead of units makes this a
bipartite flow problem: buyer i must push exactly beta_i (strict buyer,
money not bang-per-buck-maximal) or at most beta_i (flexible buyer) along
edges to the goods maximizing its bang-per-buck, and good j absorbs at most
p_j * s_j money.

The flow runs in two phases. Phase 1 routes strict budgets only; p is
feasible iff they saturate. Phase 2 adds the flexible buyers and keeps
augmenting, which never unsaturates a source edge, so the final value is the
maximal total spend extractable at p (the "max-extension revenue"). Since
every lower-bounded edge touches the source or the sink, p clears the market
exactly when that value equals sum_j p_j s_j: total inflow equal to total
good capacity forces each positively-priced good to sell out.

Outcome checks ask the same demand question of a given allocation:
outcome_is_feasible (in market, beside demand_sets) and meet_allocation read
every buyer's set from one demand_sets pass, at the prices the flow checks
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .flow import FlowNetwork
from .market import (
    MONEY,
    Allocation,
    BangPerBuckSet,
    Market,
    MarketError,
    PriceVector,
    demand_sets,
    outcome_is_feasible,
    read_prices,
    require_valid,
)
from .numeric import Number, scale_to_integers

__all__ = [
    "FeasibilityCertificate",
    "OutcomeInfeasibleError",
    "OverDemandWitness",
    "SpendingGraph",
    "build_spending_graph",
    "check_clearing",
    "check_feasible",
    "meet",
    "meet_allocation",
]


class OutcomeInfeasibleError(MarketError):
    """An outcome handed in as a precondition failed its feasibility check."""


@dataclass(frozen=True)
class SpendingGraph:
    """Bang-per-buck structure of all buyers at one price vector, and the
    prices as it read them (see read_prices)."""

    prices: PriceVector
    bpb: Tuple[BangPerBuckSet, ...]
    capacities: Tuple[Number, ...]  # p_j * s_j per good

    @property
    def strict_buyers(self) -> Tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bpb) if b.strict)


@dataclass(frozen=True)
class OverDemandWitness:
    """Goods S whose joint capacity cannot absorb the budgets forced into S."""

    goods: Tuple[int, ...]  # 1-based good indices
    forced_budget: Number
    capacity: Number

    @property
    def excess(self) -> Number:
        return self.forced_budget - self.capacity


@dataclass(frozen=True)
class FeasibilityCertificate:
    feasible: bool
    clearing: Optional[bool]  # None when only feasibility was decided
    allocation: Optional[Allocation]
    witness: Optional[OverDemandWitness]
    max_extension_revenue: Optional[Number] = None


def build_spending_graph(market: Market, p: PriceVector) -> SpendingGraph:
    """Each buyer's bang-per-buck set at p, ties read at the market mode's
    tolerance, and each good's money capacity p_j * s_j, both at p as
    read_prices reads it: on an exact market each price is the rational it
    is, so the capacities are exact too. The sets come from demand_sets in
    one pass over the buyers: integer comparisons in exact mode and one
    numpy pass in float mode."""
    prices = read_prices(market, p)
    caps = tuple(price * good.supply for price, good in zip(prices, market.goods))
    return SpendingGraph(prices, demand_sets(market, prices), caps)


class _Routing:
    """Shared two-phase flow state behind check_feasible / check_clearing.

    The prices are those the spending graph read (graph.prices, see
    read_prices): exact rationals on an exact market (Fraction of a float is
    exact). There the network carries every budget and capacity times their
    least common denominator `unit`: its residuals are ints, and flows come
    back as Fraction(flow, unit). On a float market the flow's zero and its
    saturation slack scale the mode's tolerance by the money in play.
    Buyer i is the network's left node 1 + i and good k its right node
    1 + m + k.
    """

    def __init__(self, market: Market, p: PriceVector):
        self.market = market
        exact = market.mode.is_exact
        self.graph = build_spending_graph(market, p)
        m, n = market.m, market.n
        budgets = [b.budget for b in market.buyers]
        caps = list(self.graph.capacities)
        if exact:
            self.unit, scaled = scale_to_integers(budgets + caps)
            budgets, caps = scaled[:m], scaled[m:]
            self.slack = zero = 0
        else:
            self.unit = None
            tol = market.mode.tol
            scale = max(sum(budgets), sum(caps))
            self.slack = tol * scale * (m + n + 4)
            zero = tol * scale
        self.budgets = budgets  # in network units, as is self.slack
        self.net = net = FlowNetwork(m, n, zero=zero)
        self.spend_edges = [[] for _ in range(m)]  # (good index 0-based, edge id)
        # Spend edges hold more than every budget and capacity together, so
        # no minimum cut uses one, and the goods on a cut's source side are
        # the over-demanded set that witness() names.
        unbounded = sum(budgets) + sum(caps) + 1
        for i, bpb in enumerate(self.graph.bpb):
            if bpb.strict:
                net.add_edge(net.source, 1 + i, budgets[i])
            for j in sorted(bpb.goods - {MONEY}):
                eid = net.add_edge(1 + i, 1 + m + (j - 1), unbounded)
                self.spend_edges[i].append((j - 1, eid))
        for k in range(n):
            net.add_edge(1 + m + k, net.sink, caps[k])

    def _money(self, flow):
        """A flow of the network in the market's money."""
        return flow if self.unit is None else Fraction(flow, self.unit)

    def run_strict_phase(self):
        required = sum(self.budgets[i] for i in self.graph.strict_buyers)
        self.strict_flow = self.net.max_flow()
        return required - self.strict_flow <= self.slack

    def run_extension_phase(self):
        for i, bpb in enumerate(self.graph.bpb):
            if not bpb.strict:
                self.net.add_edge(self.net.source, 1 + i, self.budgets[i])
        extension = self.net.max_flow()
        return self._money(self.strict_flow + extension)

    def allocation(self) -> Allocation:
        prices = self.graph.prices
        zeros = [0 * price for price in prices]
        bundles = []
        for i in range(self.market.m):
            bundle = list(zeros)
            for k, eid in self.spend_edges[i]:
                bundle[k] = self._money(self.net.flow_on(eid)) / prices[k]
            bundles.append(tuple(bundle))
        return tuple(bundles)

    def witness(self) -> OverDemandWitness:
        reach = self.net.reachable_from()
        m = self.market.m
        goods = tuple(k + 1 for k in range(self.market.n) if reach[1 + m + k])
        forced = sum(
            self.market.buyers[i].budget
            for i in self.graph.strict_buyers
            if reach[1 + i]
        )
        capacity = sum(self.graph.capacities[j - 1] for j in goods)
        return OverDemandWitness(goods, forced, capacity)


def check_feasible(market: Market, p: PriceVector) -> FeasibilityCertificate:
    """Decide feasibility of p; the certificate carries a witness either way.

    Feasible: an allocation (strict buyers' routed spends, flexible buyers at
    zero) extending p to a feasible outcome. Infeasible: an over-demanded good
    set from the minimum cut.
    """
    require_valid(market)
    routing = _Routing(market, p)
    if routing.run_strict_phase():
        return FeasibilityCertificate(True, None, routing.allocation(), None)
    return FeasibilityCertificate(False, None, None, routing.witness())


def check_clearing(market: Market, p: PriceVector) -> FeasibilityCertificate:
    """Decide whether p is feasible and clears every positively priced good.

    A feasible certificate also carries the max-extension revenue at p and an
    allocation attaining it: strict budgets are routed first as a hard
    requirement, then flexible buyers top the goods up.
    """
    require_valid(market)
    routing = _Routing(market, p)
    if not routing.run_strict_phase():
        return FeasibilityCertificate(False, False, None, routing.witness())
    revenue = routing.run_extension_phase()
    total_capacity = sum(routing.graph.capacities)
    clearing = total_capacity - revenue <= routing.slack
    return FeasibilityCertificate(True, clearing, routing.allocation(), None, revenue)


def meet(p: PriceVector, q: PriceVector) -> PriceVector:
    if len(p) != len(q):
        raise MarketError("price dimensions differ")
    return tuple(min(a, b) for a, b in zip(p, q))


def meet_allocation(
    market: Market,
    p: PriceVector,
    q: PriceVector,
    x: Allocation,
    y: Allocation,
) -> Allocation:
    """Splice two feasible outcomes into one at the elementwise minimum price.

    With B = {j : p_j >= q_j}, a buyer keeps its q-outcome bundle y_i whenever
    it demands some good of B at the meet, and its p-outcome bundle x_i
    otherwise, its demand at the meet read by one demand_sets pass. The
    result extends meet(p, q) to a feasible outcome.
    """
    if not outcome_is_feasible(market, p, x):
        raise OutcomeInfeasibleError("first outcome does not extend p feasibly")
    if not outcome_is_feasible(market, q, y):
        raise OutcomeInfeasibleError("second outcome does not extend q feasibly")
    r = meet(p, q)
    b_side = {j + 1 for j in range(market.n) if p[j] >= q[j]}
    return tuple(
        y_i if bpb.goods & b_side else x_i
        for bpb, x_i, y_i in zip(demand_sets(market, r), x, y)
    )
