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
good capacity forces each positively-priced good to sell out. One function,
_flow_check, builds the network and runs both phases: check_feasible stops
after phase 1, check_clearing runs phase 2 too. A float network counts
residuals at or below tol * scale as saturated and lets the routed flow fall
short by flow_slack, which the grid scans read as well.

Outcome checks ask the same demand question of a given allocation:
outcome_is_feasible (in market, beside demand_sets) and meet_allocation read
every buyer's set from one demand_sets pass, at the prices the flow checks
read.
"""

from __future__ import annotations

import math
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
    integer_budgets,
    outcome_is_feasible,
    read_prices,
    require_valid,
)
from .numeric import Number

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


def flow_slack(market: Market, scale):
    """How far the routed flow may fall short of what it must route, at money
    scale `scale`: the mode's tolerance times the scale and m + n + 4. It is
    0 in exact mode. The flow checks and the grid scans both read it."""
    return market.mode.tol * scale * (market.m + market.n + 4)


def _flow_check(market: Market, p: PriceVector, extend: bool) -> FeasibilityCertificate:
    """The two-phase flow behind check_feasible (extend False) and
    check_clearing (extend True).

    The prices are those the spending graph read (graph.prices, see
    read_prices): exact rationals on an exact market (Fraction of a float is
    exact). There the network carries every budget and capacity times their
    least common denominator `unit`, the lcm of the budgets' own (kept with
    the market, see integer_budgets) and the capacities' denominators: its
    residuals are ints, money flows come back as Fraction(flow, unit), and
    a flow into good k at price P / Q is the bundle entry
    Fraction(flow * Q, unit * P). The flow's zero, tol * scale, and its
    saturation slack (flow_slack) scale the mode's tolerance by the money in
    play, in network units; both are 0 in exact mode. Buyer i is the
    network's left node 1 + i and good k its right node 1 + m + k.

    The strict phase routes the strict budgets. If they fall short, the
    certificate names the goods on the source side of a minimum cut. Else,
    with `extend`, the flexible buyers join and the extension phase reads
    the max-extension revenue and whether it clears; the allocation is the
    routed spend either way.
    """
    require_valid(market)
    graph = build_spending_graph(market, p)
    m, n = market.m, market.n
    caps = list(graph.capacities)
    unit = None
    if market.mode.is_exact:
        budget_unit, budgets = integer_budgets(market)
        unit = math.lcm(budget_unit, *(c.denominator for c in caps))
        budgets = [b * (unit // budget_unit) for b in budgets]
        caps = [c.numerator * (unit // c.denominator) for c in caps]
    else:
        budgets = [b.budget for b in market.buyers]
    scale = max(sum(budgets), sum(caps))
    slack = flow_slack(market, scale)
    net = FlowNetwork(m, n, zero=market.mode.tol * scale)
    spend_edges = []  # (buyer, good index 0-based, edge id)
    # Spend edges hold more than every budget and capacity together, so no
    # minimum cut uses one, and the goods on a cut's source side are the
    # over-demanded set that the witness names.
    unbounded = sum(budgets) + sum(caps) + 1
    for i, bpb in enumerate(graph.bpb):
        if bpb.strict:
            net.add_edge(net.source, 1 + i, budgets[i])
        for j in sorted(bpb.goods - {MONEY}):
            spend_edges.append((i, j - 1, net.add_edge(1 + i, 1 + m + (j - 1), unbounded)))
    for k in range(n):
        net.add_edge(1 + m + k, net.sink, caps[k])

    strict = graph.strict_buyers
    strict_flow = net.max_flow()
    if not sum(budgets[i] for i in strict) - strict_flow <= slack:
        reach = net.reachable_from()
        goods = tuple(k + 1 for k in range(n) if reach[1 + m + k])
        forced = sum(market.buyers[i].budget for i in strict if reach[1 + i])
        capacity = sum(graph.capacities[j - 1] for j in goods)
        witness = OverDemandWitness(goods, forced, capacity)
        return FeasibilityCertificate(False, False if extend else None, None, witness)
    revenue = clearing = None
    if extend:
        for i, bpb in enumerate(graph.bpb):
            if not bpb.strict:
                net.add_edge(net.source, 1 + i, budgets[i])
        routed = strict_flow + net.max_flow()
        revenue = routed if unit is None else Fraction(routed, unit)
        clearing = sum(caps) - routed <= slack
    zeros = [0 * price for price in graph.prices]
    bundles = [list(zeros) for _ in range(m)]
    if unit is None:
        for i, k, eid in spend_edges:
            bundles[i][k] = net.flow_on(eid) / graph.prices[k]
    else:
        for i, k, eid in spend_edges:
            price = graph.prices[k]
            bundles[i][k] = Fraction(net.flow_on(eid) * price.denominator, unit * price.numerator)
    allocation = tuple(map(tuple, bundles))
    return FeasibilityCertificate(True, clearing, allocation, None, revenue)


def check_feasible(market: Market, p: PriceVector) -> FeasibilityCertificate:
    """Decide feasibility of p; the certificate carries a witness either way.

    Feasible: an allocation (strict buyers' routed spends, flexible buyers at
    zero) extending p to a feasible outcome. Infeasible: an over-demanded good
    set from the minimum cut. One strict phase of _flow_check.
    """
    return _flow_check(market, p, extend=False)


def check_clearing(market: Market, p: PriceVector) -> FeasibilityCertificate:
    """Decide whether p is feasible and clears every positively priced good.

    A feasible certificate also carries the max-extension revenue at p and an
    allocation attaining it: strict budgets are routed first as a hard
    requirement, then flexible buyers top the goods up (_flow_check with its
    extension phase).
    """
    return _flow_check(market, p, extend=True)


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
