"""The minimal feasible (competitive-equilibrium) price: a fast certified path
and an exact descent fallback.

`solve_eg` runs proportional-response dynamics on a quasi-linear
Eisenberg-Gale program: maximize sum_i (beta_i log u_i - delta_i) subject to
u_i <= v_i . x_i + delta_i and supply constraints. Buyers split budgets into
bids over goods and a money slot, prices are bid sums over supply, and each
bid is rescaled by the fraction of utility its good contributes. The supply
duals are the prices, and the iteration stops on a computable duality gap.
The gap does not bound the price error linearly: the measured error tracks
its square root, and it stalls near 1e-5 when a buyer is exactly indifferent
to money at the minimum.

Certified rounding turns those prices into the exact answer. Read as
rationals, they are snapped onto the bang-per-buck tie structure they
exhibit: once the ties are known, the prices solve a linear system. A
candidate that passes one exact clearing check is the answer, because
clearing prices are unique.

`lattice_descent` is the fallback when no candidate certifies. It walks
down from a feasible price in exact arithmetic, one event at a time. Each
step finds D, the largest set of goods whose prices can fall together by one
common factor: once they fall, every buyer whose bang-per-buck set meets D
must spend its whole budget inside D, and a max flow shows which goods of D
cannot absorb that. D then falls exactly to the nearest point where this
structure changes: a good of D ties some buyer's best option outside D, or a
subset of D runs out of capacity. The walk ends when D is empty, and that is
a proof of minimality: at any feasible p other than p*, the goods maximizing
p_j / p*_j can fall together, because meet(p, lambda * p*) is feasible for
every lambda >= 1.

`solve` runs proportional response and the rounding, falls back to the
descent, and packages the clearing allocation with revenue, welfare, and
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Tuple

import numpy as np

from .feasibility import (
    FeasibilityCertificate,
    check_clearing,
    check_feasible,
)
from .flow import FlowNetwork
from .market import (
    Allocation,
    Market,
    MarketError,
    Outcome,
    PriceVector,
    aggregate,
    bang_per_buck,
    require_valid,
)
from .metrics import (
    EfficiencyCertificate,
    certify_constrained_efficiency,
    social_welfare,
)
from .numeric import EXACT, Number, float_mode

BID_FLOOR = 1e-250


class SolverConvergenceError(MarketError):
    """An iterative solver ran out of budget; carries the last iterate."""

    def __init__(self, message, last=None, gap=None):
        super().__init__(message)
        self.last = last
        self.gap = gap


class MethodDisagreementError(MarketError):
    """The descent fallback's endpoint failed its clearing check; exposes the
    results of both solvers."""

    def __init__(self, message, eg=None, descent=None):
        super().__init__(message)
        self.eg = eg
        self.descent = descent


class InfeasibleStartError(MarketError):
    """lattice_descent was seeded with an infeasible price."""


@dataclass(frozen=True)
class EGSolution:
    allocation: Allocation
    leftover: Tuple[Number, ...]  # money each buyer keeps
    utilities: Tuple[Number, ...]
    prices: PriceVector
    duality_gap: Number
    iterations: int


@dataclass(frozen=True)
class DescentStep:
    goods: Tuple[int, ...]  # 1-based coordinates scaled together
    before: PriceVector
    after: PriceVector


@dataclass(frozen=True)
class DescentTrace:
    start: PriceVector
    steps: Tuple[DescentStep, ...]
    final: PriceVector
    probes: int  # max flows spent


@dataclass(frozen=True)
class EquilibriumResult:
    p_star: PriceVector
    allocation: Allocation
    revenue: Number
    welfare: Number
    method_agreement: Number  # max per-coordinate discrepancy between methods
    clearing_certificate: FeasibilityCertificate
    efficiency_certificate: EfficiencyCertificate
    eg: EGSolution
    descent: DescentTrace  # empty (no steps, no probes) when rounding certified p_star
    certified_by: str  # "rounding" or "descent"


def initial_feasible_price(market: Market) -> PriceVector:
    """One above every buyer's value per good: everyone demands only money,
    so the zero allocation extends it feasibly."""
    require_valid(market)
    one = market.mode.coerce(1)
    return tuple(
        max(b.values[k] for b in market.buyers) + one for k in range(market.n)
    )


def solve_eg(market: Market, tol: float = 1e-8, max_iter: int = 400_000) -> EGSolution:
    """Proportional-response solve of the quasi-linear Eisenberg-Gale program.

    Runs in floating point regardless of the market's numeric mode; an
    answer's exactness comes from certifying these prices afterwards, not
    from this arithmetic. Goods with zero supply or zero bid mass are
    excluded from the dynamics; their prices are imputed afterwards as the
    lowest level at which no buyer's bang-per-buck strictly prefers them.
    """
    require_valid(market)
    if tol <= 0:
        raise MarketError("solve_eg needs tol > 0")
    m, n = market.m, market.n
    beta = np.array([float(b.budget) for b in market.buyers])
    supply_all = np.array([float(g.supply) for g in market.goods])
    values_all = np.array([[float(v) for v in b.values] for b in market.buyers])
    alive = beta > 0
    active = [
        k
        for k in range(n)
        if supply_all[k] > 0 and np.any(alive & (values_all[:, k] > 0))
    ]
    va = values_all[:, active]
    s = supply_all[active]
    na = len(active)

    valued = (va > 0) & alive[:, None]
    shares = 1.0 / (valued.sum(axis=1) + 1)
    bids = np.where(valued, (beta * shares)[:, None], 0.0)
    money = np.where(alive, beta * shares, 0.0)

    floor_b = np.where(valued, BID_FLOOR, 0.0)
    floor_m = np.where(alive, BID_FLOOR, 0.0)

    def forward():
        p = bids.sum(axis=0) / s
        x = bids / p
        u = (va * x).sum(axis=1) + money
        return p, x, u

    gap = float("inf")
    iterations = 0
    burst = 25
    p = np.zeros(na)
    x = np.zeros((m, na))
    u = np.where(alive, beta, 0.0)
    while na and iterations < max_iter:
        for _ in range(burst):
            p = bids.sum(axis=0) / s
            gains = va * (bids / p)
            u = gains.sum(axis=1) + money
            scale = np.where(alive, beta / np.where(alive, u, 1.0), 0.0)
            bids = gains * scale[:, None]
            money = money * scale
            np.maximum(bids, floor_b, out=bids)
            np.maximum(money, floor_m, out=money)
        iterations += burst
        # Gap from one consistent snapshot: x sells exactly s at these p, and
        # u = v.x + money, so the primal value is genuine.
        p, x, u = forward()
        primal = float(
            np.dot(beta, np.log(np.where(alive, u, 1.0))) - money.sum()
        )
        rmax = np.maximum(1.0, (va / p).max(axis=1, initial=0.0))
        dual = float(
            np.dot(p, s)
            + np.where(alive, beta * np.log(np.where(alive, beta * rmax, 1.0)) - beta, 0.0).sum()
        )
        gap = dual - primal
        if gap <= tol:
            break
    if na == 0:
        gap = 0.0
    if gap > tol:
        raise SolverConvergenceError(
            f"proportional response stalled at gap {gap:.3e} > {tol:.3e} "
            f"after {iterations} iterations",
            last=tuple(float(v) for v in p),
            gap=gap,
        )

    rmax = np.maximum(1.0, (va / p).max(axis=1, initial=0.0)) if na else np.full(m, 1.0)
    prices = [0.0] * n
    for col, k in enumerate(active):
        prices[k] = float(p[col])
    for k in range(n):
        if k in active:
            continue
        # Lowest price at which nobody strictly prefers good k to their
        # current best ratio; positive because someone values k.
        prices[k] = max(
            float(values_all[i, k]) / float(rmax[i]) for i in range(m)
            if values_all[i, k] > 0
        )

    allocation = []
    for i in range(m):
        bundle = [0.0] * n
        for col, k in enumerate(active):
            bundle[k] = float(x[i, col])
        allocation.append(tuple(bundle))
    return EGSolution(
        allocation=tuple(allocation),
        leftover=tuple(float(d) for d in money),
        utilities=tuple(float(v) for v in u),
        prices=tuple(prices),
        duality_gap=float(gap),
        iterations=iterations,
    )


def _tie_components(market: Market, p: PriceVector, band):
    """Tie graph of p at relative width band: who ties what, and how prices link.

    Per buyer, the banded set holds money (0) plus every good whose
    bang-per-buck ratio is within band of the buyer's best. Goods sharing a
    banded set must sit at value-proportional prices, so the graph's connected
    components each carry one scalar degree of freedom; weight[j] is good j's
    exact multiplier relative to its component root. Returns (banded,
    component, weight, members) or None when a linking value is nonpositive
    or two link paths demand different weights.
    """
    n = market.n
    banded = []
    for buyer in market.buyers:
        ratios = [v / price for v, price in zip(buyer.values, p)]
        best = max(ratios + [market.mode.coerce(1)])
        cutoff = (1 - band) * best
        goods = {j + 1 for j, r in enumerate(ratios) if r >= cutoff}
        if 1 >= cutoff:
            goods.add(0)
        banded.append(goods)

    weight = {}
    component = {}
    members = {}
    for root in range(1, n + 1):
        if root in component:
            continue
        cid = len(members)
        members[cid] = [root]
        component[root] = cid
        weight[root] = Fraction(1)
        frontier = [root]
        while frontier:
            j = frontier.pop()
            for i, goods in enumerate(banded):
                if j not in goods:
                    continue
                vj = market.buyers[i].values[j - 1]
                if vj <= 0:
                    return None
                for k in goods:
                    if k == 0 or k == j:
                        continue
                    vk = market.buyers[i].values[k - 1]
                    if vk <= 0:
                        return None
                    w = weight[j] * vk / vj
                    if k in weight:
                        if weight[k] != w:
                            return None
                    else:
                        weight[k] = w
                        component[k] = cid
                        members[cid].append(k)
                        frontier.append(k)
    return banded, component, weight, members


def _tie_snap_candidates(market: Market, p: PriceVector, band: Fraction):
    """Exact price vectors consistent with the ratio ties p exhibits at width band.

    Each tie component is fixed up to a scalar level. Two levels are
    plausible per component: a money tie pins it outright, and budget balance
    of the attached buyers pins it when those buyers must spend. A near-tie
    with money can be a mirage (the iterate stalled just above the price
    where the buyer turns strict), so when both readings exist every
    combination is emitted and the caller certifies each candidate
    independently.
    """
    n = market.n
    built = _tie_components(market, p, band)
    if built is None:
        return []
    banded, component, weight, members = built

    money_level = [None] * len(members)
    for i, goods in enumerate(banded):
        if 0 not in goods:
            continue
        for j in goods:
            if j == 0:
                continue
            cid = component[j]
            pin = market.buyers[i].values[j - 1] / weight[j]
            if money_level[cid] is None:
                money_level[cid] = pin
            elif money_level[cid] != pin:
                return []

    attached_budget = [Fraction(0)] * len(members)
    for i, bset in enumerate(banded):
        goods_part = [j for j in bset if j != 0]
        if not goods_part:
            continue
        attached_budget[component[goods_part[0]]] += market.buyers[i].budget

    options = []
    for cid, goods in members.items():
        picks = []
        if money_level[cid] is not None:
            picks.append(money_level[cid])
        mass = sum(weight[j] * market.goods[j - 1].supply for j in goods)
        if mass > 0 and attached_budget[cid] > 0:
            balance = attached_budget[cid] / mass
            if balance not in picks:
                picks.append(balance)
        if not picks:
            return []
        options.append(picks)

    candidates = []
    for levels in product(*options):
        q = [None] * n
        for j in range(1, n + 1):
            q[j - 1] = levels[component[j]] * weight[j]
        if all(v > 0 for v in q):
            candidates.append(tuple(q))
    return candidates


def _next_event(market: Market, p: PriceVector, down: frozenset) -> Number:
    """Largest factor below 1 at which cutting the prices of `down` makes one
    of them tie some buyer's best option outside it (another good or money);
    0 when there is none.

    Only buyers whose bang-per-buck set misses `down` have such events: for
    the others a good of `down` already beats every outside option, and a
    common factor keeps the order inside `down`.
    """
    nearest = 0
    for buyer in market.buyers:
        inside, outside = 0, 1  # money
        for k, (v, price) in enumerate(zip(buyer.values, p), start=1):
            if k in down:
                inside = max(inside, v / price)
            else:
                outside = max(outside, v / price)
        if inside < outside:
            nearest = max(nearest, inside / outside)
    return nearest


_SNAP_BANDS = tuple(Fraction(1, 2**k) for k in (40, 32, 24, 18, 14, 10, 8, 6, 4))


def _snap_exact(
    market: Market, p: PriceVector
) -> Optional[Tuple[PriceVector, FeasibilityCertificate]]:
    """The clearing price of an exact market, read off a nearby price p.

    p itself is certified first, then the tie-snap candidates of ever wider
    bands; the first to pass the exact clearing check is returned with that
    check's certificate, and None when none does.
    """
    p = tuple(p)
    cert = check_clearing(market, p)
    if cert.feasible and cert.clearing:
        return p, cert
    seen = {p}
    for band in _SNAP_BANDS:
        for candidate in _tie_snap_candidates(market, p, band):
            if candidate in seen:
                continue
            seen.add(candidate)
            cert = check_clearing(market, candidate)
            if cert.feasible and cert.clearing:
                return candidate, cert
    return None


def _certified_rounding(
    market: Market, prices: PriceVector
) -> Optional[Tuple[PriceVector, FeasibilityCertificate]]:
    """The clearing price read off approximate prices, or None if none certifies.

    The prices are read as rationals on the market's rational twin (a float
    market's numbers are rationals too) and handed to _snap_exact, whose exact
    clearing check is conclusive because clearing prices are unique. Returns
    the price, rounded back to floats for a float market, with the twin's
    clearing certificate.
    """
    snapped = _snap_exact(_rational_twin(market), tuple(EXACT.coerce(v) for v in prices))
    if snapped is None or market.mode.is_exact:
        return snapped
    p, cert = snapped
    return tuple(float(v) for v in p), cert


def _rational_twin(market: Market) -> Market:
    return market if market.mode.is_exact else market.coerced(EXACT)


def _captured(market: Market, p: PriceVector, down: frozenset):
    """(budget, goods) of each buyer whose bang-per-buck set meets `down`,
    goods being the members of `down` it demands. Once those prices fall the
    buyer prefers them to money and to every other good, so its whole budget
    must go there."""
    captured = []
    for buyer in market.buyers:
        goods = bang_per_buck(buyer, p).goods & down
        if goods:
            captured.append((buyer.budget, sorted(goods)))
    return captured


def _route(market: Market, p: PriceVector, captured, down: frozenset, factor):
    """Max flow of the captured budgets into `down`, whose capacities
    p_j * s_j are scaled by factor.

    Node 0 is the source, nodes 1..len(captured) the captured buyers, then
    one node per good of `down` (returned as node), then the sink.
    """
    node = {j: 1 + len(captured) + k for k, j in enumerate(sorted(down))}
    sink = 1 + len(captured) + len(down)
    net = FlowNetwork(sink + 1)
    for b, (budget, goods) in enumerate(captured, start=1):
        net.add_edge(0, b, budget)
        for j in goods:
            net.add_edge(b, node[j], budget)
    for j in sorted(down):
        net.add_edge(node[j], sink, factor * p[j - 1] * market.goods[j - 1].supply)
    net.max_flow(0, sink)
    return net, node, sink


def lattice_descent(market: Market, p0: PriceVector) -> DescentTrace:
    """Descend from a feasible price to the minimal one, one exact event per step.

    The walk runs on the market's rational twin. Each step has two parts:

    1. Find D, the goods whose prices can fall together. Starting from all
       goods, the captured buyers (see _captured) are routed into D by max
       flow. A good that cannot reach spare capacity in the residual graph
       sits in a set whose capacity the captured budgets already fill; every
       good demanded by a positive-budget buyer confined to such goods leaves
       D, and the flow is rerun. Goods that no budget is forced into, such as
       zero-supply goods nobody demands, stay in D.
    2. Lower D by one common factor to the nearest event (see _next_event).
       If the captured budgets no longer route there, the factor rises to the
       ratio forced / capacity of the min-cut witness, until they do.

    The walk stops when D is empty, which proves minimality (see the module
    docstring). probes counts the max flows; the trace's prices are in the
    market's own numeric mode.
    """
    twin = _rational_twin(market)
    p = tuple(EXACT.coerce(v) for v in p0)
    if not check_feasible(twin, p).feasible:
        raise InfeasibleStartError(f"start price {tuple(p0)!r} is not feasible")
    start = p
    every = frozenset(range(1, market.n + 1))
    steps = []
    probes = 0
    while True:
        down = every
        while down:
            captured = _captured(twin, p, down)
            net, node, sink = _route(twin, p, captured, down, 1)
            probes += 1
            spare = net.reaching(sink)
            stuck = {j for j in down if not spare[node[j]]}
            blocked = {
                j
                for budget, goods in captured
                if budget > 0 and stuck.issuperset(goods)
                for j in goods
            }
            if not blocked:
                break
            down -= blocked
        if not down:
            break
        factor = _next_event(twin, p, down)
        while True:
            net, node, sink = _route(twin, p, captured, down, factor)
            probes += 1
            reach = net.reachable_from(0)
            forced = sum(b for k, (b, _) in enumerate(captured, start=1) if reach[k])
            if not forced:
                break
            factor = forced / sum(
                p[j - 1] * twin.goods[j - 1].supply for j in down if reach[node[j]]
            )
        if factor == 0:
            raise SolverConvergenceError(
                f"goods {sorted(down)} can fall without bound: no minimal price",
                last=p,
            )
        q = tuple(v * factor if k in down else v for k, v in enumerate(p, start=1))
        steps.append((tuple(sorted(down)), p, q))
        p = q

    def own(prices):
        return tuple(market.mode.coerce(v) for v in prices)

    return DescentTrace(
        own(start),
        tuple(DescentStep(goods, own(a), own(b)) for goods, a, b in steps),
        own(p),
        probes,
    )


def solve(market: Market, tol: float = 1e-8) -> EquilibriumResult:
    """Equilibrium prices with certificates: EG, one exact snap, descent as fallback.

    Proportional response runs first, and its prices are rounded onto the tie
    structure they exhibit (see _certified_rounding). A candidate that passes
    the clearing check in the market's own mode is p_star, and the check is
    the whole certificate: clearing prices are unique. In exact mode the
    rounding's own check is that certificate; a float market's rounded-back
    price is checked again in floats. certified_by is then "rounding" and the
    descent trace is empty.

    Only when no candidate certifies does lattice_descent run from a
    trivially feasible price (certified_by "descent"). Its endpoint must pass
    the same clearing check; a MethodDisagreementError, carrying both
    solutions, is raised if it does not. On either path method_agreement
    reports the largest per-coordinate gap between p_star and the
    proportional-response prices, as a diagnostic.
    """
    require_valid(market)
    if tol <= 0:
        raise MarketError("solve needs tol > 0")
    scale = max(1.0, float(sum(b.budget for b in market.buyers)))
    eg_market = market if not market.mode.is_exact else market.coerced(float_mode())
    eg = solve_eg(eg_market, tol=min(tol, 1e-9) * scale * 1e-2)
    rounded = _certified_rounding(market, eg.prices)
    cert = None
    if rounded is not None:
        p_star, cert = rounded
        if not market.mode.is_exact:
            cert = check_clearing(market, p_star)
    if cert is not None and cert.feasible and cert.clearing:
        certified_by = "rounding"
        trace = DescentTrace(
            tuple(market.mode.coerce(v) for v in eg.prices), (), p_star, 0
        )
    else:
        certified_by = "descent"
        trace = lattice_descent(market, initial_feasible_price(market))
        p_star = trace.final
        cert = check_clearing(market, p_star)
        if not (cert.feasible and cert.clearing):
            raise MethodDisagreementError(
                "descent endpoint failed its clearing check", eg=eg, descent=trace
            )
    agreement = max(abs(float(a) - float(b)) for a, b in zip(p_star, eg.prices))
    allocation = cert.allocation
    totals = aggregate(allocation, market.n)
    revenue = 0
    for price, qty in zip(p_star, totals):
        revenue = revenue + price * qty
    welfare = social_welfare(market, allocation)
    efficiency = certify_constrained_efficiency(
        market, Outcome(p_star, allocation), (), tol=market.mode.tol
    )
    return EquilibriumResult(
        p_star=p_star,
        allocation=allocation,
        revenue=revenue,
        welfare=welfare,
        method_agreement=agreement,
        clearing_certificate=cert,
        efficiency_certificate=efficiency,
        eg=eg,
        descent=trace,
        certified_by=certified_by,
    )
