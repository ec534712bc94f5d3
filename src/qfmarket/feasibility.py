"""Feasibility and clearing of price vectors via a transportation-flow reduction.

A price vector p is feasible when every buyer can be handed a demanded bundle
without exceeding supply. Routing money instead of units makes this a
bipartite flow problem: buyer i must push exactly beta_i (strict buyer,
money not bang-per-buck-maximal) or at most beta_i (flexible buyer) along
edges to the goods maximizing its bang-per-buck, and good j absorbs at most
p_j * s_j money. Buyers with the same bang-per-buck set are parallel in that
network, so one node per demand pattern (a set of goods plus the money flag)
carries their summed budget, and leaves every cut and flow value as it was.
The checks read the patterns off the demand table, grouped by its rows
(market.demand_patterns, which demand_sets and the descent read too), with
no per-buyer set. pattern_network builds that network, for the checks here
and for the descent's probes alike; its node order is sorted, so buyer
order never reaches a verdict or an allocation.

The flow runs in two phases. Phase 1 routes strict budgets only; p is
feasible iff they saturate. Phase 2 adds the flexible patterns and keeps
augmenting, which never unsaturates a source edge, so the final value is the
maximal total spend extractable at p (the "max-extension revenue"). Since
every lower-bounded edge touches the source or the sink, p clears the market
exactly when that value equals sum_j p_j s_j: total inflow equal to total
good capacity forces each positively-priced good to sell out. One function,
_flow_check, runs both phases: check_feasible stops after phase 1,
check_clearing runs phase 2 too. Each pattern's flow is split among its
buyers in proportion to their budgets. A float network counts residuals at
or below tol * scale as saturated and lets the routed flow fall short by
flow_slack, which the grid scans read as well.

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
    Market,
    MarketError,
    PriceVector,
    demand_patterns,
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
    bpb: Tuple[frozenset, ...]  # each buyer's set: 1-based goods, and MONEY
    capacities: Tuple[Number, ...]  # p_j * s_j per good


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
    numpy pass in float mode. The flow checks read the same prices,
    capacities and demand, grouped by pattern, without building this
    graph."""
    prices = read_prices(market, p)
    caps = tuple(price * good.supply for price, good in zip(prices, market.goods))
    return SpendingGraph(prices, demand_sets(market, prices), caps)


def flow_slack(market: Market, scale):
    """How far the routed flow may fall short of what it must route, at money
    scale `scale`: the mode's tolerance times the scale and m + n + 4. It is
    0 in exact mode. The flow checks and the grid scans both read it."""
    return market.mode.tol * scale * (market.m + market.n + 4)


def pattern_network(market: Market, patterns: dict, caps):
    """(net, order, budgets, unit, slack): the max-flow network of demand
    patterns behind every flow check, the descent's included.

    `patterns` maps each demand pattern, a frozenset of 1-based goods that
    may hold MONEY, to its buyers' summed budget: an int on the market's
    budget scale (integer_budgets) in exact mode, a float in float mode.
    caps[j - 1] is good j's money capacity. order[i] is the pattern at left
    node 1 + i: the strict patterns (without MONEY) first, each group sorted
    by its goods, so the network never depends on buyer order. Good j is
    node len(order) + j. A strict pattern's source edge carries its budget;
    a flexible pattern gets its node and spend edges, and the caller adds
    its source edge to extend a flow (see _flow_check). Spend edges hold
    more than every budget and capacity together, so no minimum cut uses
    one, and the goods on a cut's source side are an over-demanded set.

    In exact mode the network runs on ints: every budget and capacity times
    `unit`, the lcm of the budget scale and the capacities' denominators,
    so a flow f is the money Fraction(f, unit). One positive scale leaves
    every augmenting path and cut of the rational network as it was. In
    float mode unit is 1 and residuals at or below tol * scale count as
    saturated. `budgets` are the patterns' budgets in network units, in
    node order, and `slack` is flow_slack at the network's scale.
    """
    order = sorted(patterns, key=lambda goods: (MONEY in goods, sorted(goods)))
    budgets = [patterns[goods] for goods in order]
    unit = 1
    if market.mode.is_exact:
        budget_unit = integer_budgets(market)[0]
        unit = math.lcm(budget_unit, *(c.denominator for c in caps))
        budgets = [b * (unit // budget_unit) for b in budgets]
        caps = [c.numerator * (unit // c.denominator) for c in caps]
    scale = max(sum(budgets), sum(caps))
    net = FlowNetwork(len(order), len(caps), zero=market.mode.tol * scale)
    unbounded = sum(budgets) + sum(caps) + 1
    for node, (goods, budget) in enumerate(zip(order, budgets), start=1):
        if MONEY not in goods:
            net.add_edge(net.source, node, budget)
        for j in sorted(goods - {MONEY}):
            net.add_edge(node, len(order) + j, unbounded)
    for j, cap in enumerate(caps, start=1):
        net.add_edge(len(order) + j, net.sink, cap)
    return net, order, budgets, unit, flow_slack(market, scale)


def _flow_check(market: Market, p: PriceVector, extend: bool) -> FeasibilityCertificate:
    """The two-phase flow behind check_feasible (extend False) and
    check_clearing (extend True), on the pattern network (pattern_network).

    The prices are p as read_prices reads it: exact rationals on an exact
    market. The demand patterns are read off the demand table, grouped by
    its rows (demand_patterns), with no per-buyer bang-per-buck set: the
    buyers with one set form one pattern, which carries their summed
    budget, an int on the integer_budgets scale in exact mode and a
    math.fsum in float mode, so that no sum depends on buyer order.
    Pattern order[i] is the network's left node 1 + i and good j its right
    node len(order) + j (see pattern_network).

    The strict phase routes the strict patterns' budgets. If they fall
    short, the certificate names the goods on the source side of a minimum
    cut. Else, with `extend`, the flexible patterns join and the extension
    phase reads the max-extension revenue and whether it clears. The
    allocation splits each pattern's flow on each good among its buyers in
    proportion to their budgets, one Fraction per exact entry: a flow f into
    good k at price P / Q gives buyer i, of budget b_i in a pattern of
    budget b, Fraction(f * b_i * Q, unit * b * P). A strict pattern's buyers
    each spend their whole budget, and every other buyer at most its own.
    """
    require_valid(market)
    prices, _, _, members = demand_patterns(market, p)  # pattern -> its buyers
    capacities = [price * good.supply for price, good in zip(prices, market.goods)]
    exact = market.mode.is_exact
    budgets = integer_budgets(market)[1] if exact else [b.budget for b in market.buyers]
    total = sum if exact else math.fsum
    patterns = {goods: total(budgets[i] for i in buyers) for goods, buyers in members.items()}
    net, order, routed, unit, slack = pattern_network(market, patterns, capacities)
    strict = [node for node, goods in enumerate(order, start=1) if MONEY not in goods]
    strict_flow = net.max_flow()
    if not sum(routed[node - 1] for node in strict) - strict_flow <= slack:
        reach = net.reachable_from()
        goods = tuple(j for j in range(1, market.n + 1) if reach[len(order) + j])
        forced = sum(routed[node - 1] for node in strict if reach[node])
        forced = Fraction(forced, unit) if exact else forced
        capacity = sum(capacities[j - 1] for j in goods)
        witness = OverDemandWitness(goods, forced, capacity)
        return FeasibilityCertificate(False, False if extend else None, None, witness)
    revenue = clearing = None
    if extend:
        for node, goods in enumerate(order, start=1):
            if MONEY in goods:
                net.add_edge(net.source, node, routed[node - 1])
        revenue = strict_flow + net.max_flow()
        revenue = Fraction(revenue, unit) if exact else revenue
        clearing = sum(capacities) - revenue <= slack
    zeros = [0 * price for price in prices]
    bundles = [list(zeros) for _ in range(market.m)]
    for node, goods in enumerate(order, start=1):
        whole = patterns[goods]
        for eid in net.adj[node]:
            flow = net.flow_on(eid)
            if eid & 1 or not flow:  # the source edge's reverse, or no spend
                continue
            k = net.to[eid] - len(order) - 1
            price = prices[k]
            for i in members[goods]:
                if exact:
                    share = flow * budgets[i] * price.denominator
                    bundles[i][k] = Fraction(share, unit * whole * price.numerator)
                else:
                    bundles[i][k] = flow * budgets[i] / whole / price
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
        y_i if goods & b_side else x_i
        for goods, x_i, y_i in zip(demand_sets(market, r), x, y)
    )
