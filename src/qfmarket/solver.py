"""The minimal feasible (competitive-equilibrium) price: a fast certified path
and an exact descent fallback.

Proportional response (`solve_eg`, the run `solve` makes) runs on a
quasi-linear Eisenberg-Gale program: maximize
sum_i (beta_i log u_i - delta_i) subject to u_i <= v_i . x_i + delta_i and
supply constraints. Buyers split budgets into bids over goods and a money
slot, prices are bid sums over supply, and each bid is rescaled by the
fraction of utility its good contributes. The supply duals are the prices,
and the iteration stops on a computable duality gap.
The gap does not bound the price error linearly: the measured error tracks
its square root, and it stalls near 1e-5 when a buyer is exactly indifferent
to money at the minimum. Proportional response is mirror descent (Birnbaum,
Devanur and Xiao 2011), and its final approach on quasi-linear markets is
slow (Cheung, Cole and Tao 2018), so the answer does not wait for it.

Certified rounding turns those prices into the exact answer. Once each
buyer's demand set is known, the prices solve a linear system, so a demand
structure read off the iterate points to one exact candidate. The structure
read is the support: what each buyer spends more than 1% of its budget on.
The support's candidate gets one exact clearing check at the first of three
triggers: every price is within 1e-6 (relative) of it; it has stayed the
same for 500 iterations; or the prices' largest relative gap to it shrank
since the last reading, but at that rate would not reach 1e-6 before those
500 iterations are up, so waiting could only end at the second trigger. If
the check passes the candidate is the answer, because clearing prices are
unique; proportional response only has to point at the right ties, not
reach them. `solve` stops proportional response as soon as a check passes or
the prices agree with the candidate, or else at a fixed gap target.

`lattice_descent` is the fallback when the candidate does not certify. It
walks down from a feasible price in exact arithmetic, one event at a time. Each
step finds D, the largest set of goods whose prices can fall together by one
common factor: once they fall, every buyer whose bang-per-buck set meets D
must spend its whole budget inside D, and a max flow shows which goods of D
cannot absorb that. D then falls exactly to the nearest point where this
structure changes: a good of D ties some buyer's best option outside D, or a
subset of D runs out of capacity. The walk ends when D is empty, and that is
a proof of minimality: at any feasible p other than p*, the goods maximizing
p_j / p*_j can fall together, because meet(p, lambda * p*) is feasible for
every lambda >= 1.

`solve` runs proportional response until its support's candidate clears or
agrees, its gap is met or its iterations run out, takes the cleared
candidate or else falls back to the descent, and packages the clearing
allocation with revenue, welfare, and certificates. Both certificates rest
on the one clearing check: a clearing price with its clearing allocation is
a competitive equilibrium, and those outcomes, and only those, are
constrained-efficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .feasibility import FeasibilityCertificate, check_clearing, check_feasible
from .flow import FlowNetwork
from .market import (
    Allocation,
    Market,
    MarketError,
    Outcome,
    PriceVector,
    demand_sets,
    read_prices,
    require_valid,
)
from .metrics import VERDICT_CERTIFIED, EfficiencyCertificate, revenue, social_welfare
from .numeric import EXACT, Number, scale_to_integers

__all__ = [
    "DescentStep",
    "DescentTrace",
    "EGSolution",
    "EquilibriumResult",
    "InfeasibleStartError",
    "MethodDisagreementError",
    "SolverConvergenceError",
    "initial_feasible_price",
    "lattice_descent",
    "solve",
    "solve_eg",
]

BID_FLOOR = 1e-250
_GAP_EVERY = 25  # iterations between duality-gap checks
_GAP_TARGET = 1e-11  # solve's gap target per unit of total budget


class SolverConvergenceError(MarketError):
    """lattice_descent found goods whose prices can fall without bound, so
    the market has no minimal price; carries the last price vector as
    `last`. (A proportional-response run that stalls raises nothing: solve
    sends it to the descent.)"""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class MethodDisagreementError(MarketError):
    """solve's p_star failed its clearing check in the market's own mode:
    the rounded-back float price of a candidate that cleared on the rational
    twin, or the descent fallback's endpoint. Exposes the results of both
    solvers (descent is the empty trace on the rounding path)."""

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
    method_agreement: Optional[Number]  # max per-coordinate gap to eg.prices; None without eg
    clearing_certificate: FeasibilityCertificate
    efficiency_certificate: EfficiencyCertificate
    eg: Optional[EGSolution]  # None when the market has no float image
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


def solve_eg(market: Market) -> Optional[EGSolution]:
    """The proportional-response run that solve makes, equal to solve(market).eg.

    Runs in floating point regardless of the market's numeric mode; an
    answer's exactness comes from certifying these prices afterwards, not
    from this arithmetic. Zero-budget buyers take no part (they keep no
    money and get empty bundles), and goods with zero supply or zero bid
    mass are excluded from the dynamics; their prices are imputed afterwards
    as the lowest level at which no buyer's bang-per-buck strictly prefers
    them. The run stops where solve's does (see _proportional_response):
    when its support's candidate passes its exact clearing check or every
    price agrees with it (see _Support), at the gap target 1e-11 * total
    budget (the duality gap is money, so the target scales with the money in
    play), or stalled at its iteration cap, which raises nothing. The check
    comes when the prices agree with the candidate, when it has held for 500
    iterations, or as soon as the prices' gap to it shrinks too slowly to
    agree before then. A run stopped by a check that passed before the
    prices agreed may end far from that candidate: up to about 2e-2
    relative on the random families tried. The duality gap is read every 25
    iterations, so iterations is a multiple of 25. None when an exact market
    has no float image.
    """
    require_valid(market)
    return _proportional_response(market)[0]


def _float_image(market: Market):
    """(budgets, supplies, values): a market's numbers as float arrays, each
    read once with float(); the values are the market's own float table,
    buyers first (Market.float_values, transposed). OverflowError when one
    lies beyond the float range."""
    beta = np.array([float(b.budget) for b in market.buyers])
    supply = np.array([float(g.supply) for g in market.goods])
    return beta, supply, market.float_values.T


def _solve_eg(image, target: float, max_iter: int = 400_000, stop=None) -> EGSolution:
    """Proportional response on a validated market's _float_image, returning
    its last iterate even on a stall.

    Zero-budget buyers and inactive goods are dropped once, before the loop,
    and every update writes into buffers allocated once. Money is the bid
    matrix's last column, priced 1 and valued 1, so one update moves the bids
    on goods and on money alike. Each iteration's first half (prices, units,
    gains, utilities) is also the snapshot that the duality gap is read from
    every _GAP_EVERY iterations.

    The run ends at the first check where `stop` (asked first, so it sees
    the final iterate) answers True, the gap is at most `target`, or max_iter
    iterations have run. stop(buyers, goods, bids, p) gets the indices of the
    live buyers and active goods, their bids (money last) and goods' prices.
    """
    beta_all, supply_all, values_all = image
    m, n = values_all.shape
    live = np.flatnonzero(beta_all > 0)
    active = [
        k for k in range(n) if supply_all[k] > 0 and np.any(values_all[live, k] > 0)
    ]
    beta = beta_all[live]
    s = supply_all[active]
    na = len(active)
    # Column-major: each price's bid sum then adds along contiguous memory
    # in numpy's pairwise order. Row-major sums add row by row and move the
    # iterates of markets with eight or more buyers in their last bits.
    va = np.ones((len(live), na + 1), order="F")
    va[:, :na] = values_all[np.ix_(live, active)]

    valued = va > 0
    shares = 1.0 / valued.sum(axis=1)
    bids = np.asfortranarray(np.where(valued, (beta * shares)[:, None], 0.0))
    floor = np.where(valued, BID_FLOOR, 0.0)
    goods_bids, money = bids[:, :na], bids[:, na]

    p = np.ones(na + 1)  # the last entry is money's price
    goods_p = p[:na]
    x = np.empty_like(bids)  # bids / p: units bought
    gains = np.empty_like(bids)  # utility each bid buys
    u = np.empty(len(live))
    scale = np.empty(len(live))
    scale_col = scale[:, None]
    add_reduce, divide, multiply, maximum = np.add.reduce, np.divide, np.multiply, np.maximum
    gap = float("inf") if na else 0.0
    iterations = 0
    while na:
        add_reduce(goods_bids, axis=0, out=goods_p)
        goods_p /= s
        divide(bids, p, out=x)
        multiply(va, x, out=gains)
        add_reduce(gains, axis=1, out=u)
        if iterations and iterations % _GAP_EVERY == 0:
            # x sells exactly s at these p, and u = v.x + money, so the
            # primal value is genuine.
            primal = float(np.dot(beta, np.log(u)) - money.sum())
            rmax = (va / p).max(axis=1)  # at least money's 1
            dual = float(np.dot(goods_p, s) + (beta * np.log(beta * rmax) - beta).sum())
            gap = dual - primal
            if stop is not None and stop(live, active, bids, goods_p):
                break
            if gap <= target or iterations >= max_iter:
                break
        divide(beta, u, out=scale)
        multiply(gains, scale_col, out=bids)
        maximum(bids, floor, out=bids)
        iterations += 1

    prices = np.zeros(n)
    prices[active] = goods_p
    rmax = np.maximum(1.0, (values_all[:, active] / goods_p).max(axis=1, initial=0.0))
    for k in range(n):
        if k not in active:
            # Lowest price at which nobody strictly prefers good k to their
            # current best ratio; positive because someone values k.
            valued = values_all[:, k] > 0
            prices[k] = (values_all[valued, k] / rmax[valued]).max()
    allocation = np.zeros((m, n))
    allocation[np.ix_(live, active)] = x[:, :na]
    leftover = np.zeros(m)
    leftover[live] = money
    return EGSolution(
        allocation=tuple(map(tuple, allocation.tolist())),
        leftover=tuple(leftover.tolist()),
        prices=tuple(prices.tolist()),
        duality_gap=float(gap),
        iterations=iterations,
    )


# A buyer's support: the options (goods, and money) it spends more than this
# share of its budget on.
_SUPPORT = 1e-2
# Relative distance within which every price agrees with a support candidate.
_AGREE = 1e-6
# Iterations after which a support candidate that has stayed the same is
# checked exactly, although the prices have not come within _AGREE of it.
_SETTLE = 500


def _snap(market: Market, sets) -> Optional[PriceVector]:
    """The exact price that the buyers' demand sets point to, or None.

    sets[i] is buyer i's demand set: goods by 1-based index, money as 0.
    Goods sharing a set must sit at value-proportional prices, so each
    connected component of the tie graph carries one scalar level; weight[j]
    is good j's exact multiplier relative to its component root (the values
    linking goods are positive: a demanded good's ratio is the buyer's best,
    which is at least money's 1). A component that ties money takes that
    money-tie level, and otherwise the level at which its attached buyers'
    budgets buy its supply. None when two link paths or two money ties
    disagree, or a component has neither level.
    """
    n = market.n
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
            for i, goods in enumerate(sets):
                if j not in goods:
                    continue
                values = market.buyers[i].values
                for k in goods:
                    if k == 0 or k == j:
                        continue
                    w = weight[j] * values[k - 1] / values[j - 1]
                    if k in weight:
                        if weight[k] != w:
                            return None
                    else:
                        weight[k] = w
                        component[k] = cid
                        members[cid].append(k)
                        frontier.append(k)

    level = [None] * len(members)
    attached_budget = [0] * len(members)
    for buyer, goods in zip(market.buyers, sets):
        tied = [j for j in goods if j != 0]
        if not tied:
            continue
        cid = component[tied[0]]
        attached_budget[cid] += buyer.budget
        if 0 in goods:
            for j in tied:
                pin = buyer.values[j - 1] / weight[j]
                if level[cid] is None:
                    level[cid] = pin
                elif level[cid] != pin:
                    return None
    for cid, goods in members.items():
        if level[cid] is None:
            mass = sum(weight[j] * market.goods[j - 1].supply for j in goods)
            if mass <= 0 or attached_budget[cid] <= 0:
                return None
            level[cid] = attached_budget[cid] / mass
    return tuple(level[component[j]] * weight[j] for j in range(1, n + 1))


class _Support:
    """Proportional response's support, the exact price it points to, and
    that price's clearing check.

    A buyer's support is the options it spends more than _SUPPORT of its
    budget on, read off its bids: goods, and money as the bids' last column.
    Called as _solve_eg's stop rule, stop(buyers, goods, bids, p), every
    _GAP_EVERY iterations, it snaps the supports onto the rational twin (see
    _snap) when they differ from the last call's. It checks the candidate
    exactly with check_clearing on the twin at the first of three triggers:
    every price of p is within _AGREE (relative) of it; it has stayed the
    same for _SETTLE iterations; or p's largest relative gap to it, g, shrank
    from the last call's g_prev (kept per candidate), but at that rate
    reaching _AGREE would take _GAP_EVERY * ln(_AGREE / g) / ln(g / g_prev)
    iterations, more than remain before _SETTLE. A gap that did not shrink
    waits for _SETTLE. Clearing prices are unique, so a candidate that
    clears is p* however far p still is from it. Each distinct candidate is
    checked at most once. The answer is True, and the run stops, when a check
    clears or when every price agrees with the candidate, cleared or not.
    `cleared` is (candidate, certificate) once a check has cleared, else None.
    """

    def __init__(self, twin: Market):
        self.twin = twin
        self.candidate = None
        self.cleared = None
        self._held = 0  # iterations the candidate has stayed the same
        self._failed = set()  # candidates whose clearing check failed
        self._mask = None  # the bytes of the last supports' boolean mask
        self._target = None  # the candidate's prices of the goods asked about
        self._gap = None  # the prices' largest relative gap to it at the last call

    def __call__(self, buyers, goods, bids, p) -> bool:
        self._held += _GAP_EVERY
        mask = bids > _SUPPORT * bids.sum(axis=1, keepdims=True)
        key = mask.tobytes()
        if key != self._mask:
            self._mask = key
            labels = [k + 1 for k in goods] + [0]  # money is the last column
            sets = [()] * self.twin.m
            for i, row in zip(buyers, mask.tolist()):
                sets[i] = [label for label, on in zip(labels, row) if on]
            candidate = _snap(self.twin, sets)
            if candidate != self.candidate:
                self.candidate = candidate
                self._held = 0
                self._gap = None
                self._target = None
                if candidate is not None:
                    self._target = np.array([float(candidate[k]) for k in goods])
        target = self._target
        if target is None:
            return False
        diff = np.abs(p - target)
        agrees = bool((diff <= _AGREE * target).all())
        gap, last = float((diff / target).max()), self._gap
        self._gap = gap
        # At the rate the gap shrank since the last call, the prices cannot
        # agree before the candidate settles, so settling only waits.
        hopeless = (
            not agrees
            and last is not None
            and gap < last
            and _GAP_EVERY * math.log(_AGREE / gap) / math.log(gap / last) > _SETTLE - self._held
        )
        if (agrees or hopeless or self._held >= _SETTLE) and self.candidate not in self._failed:
            cert = check_clearing(self.twin, self.candidate)
            if cert.clearing:
                self.cleared = (self.candidate, cert)
                return True
            self._failed.add(self.candidate)
        return agrees


def _next_event(market: Market, p: PriceVector, best, down: frozenset) -> Number:
    """Largest factor below 1 at which cutting the prices of `down` makes one
    of them tie some buyer's best option outside it (another good or money);
    0 when there is none. best[i] is buyer i's bang-per-buck set at p.

    Only buyers whose bang-per-buck set misses `down` have such events: for
    the others a good of `down` already beats every outside option, and a
    common factor keeps the order inside `down`. For the rest, the best
    option outside `down` is their best option, max_ratio.
    """
    nearest = 0
    for buyer, bpb in zip(market.buyers, best):
        if bpb.goods.isdisjoint(down):
            inside = max(buyer.values[k - 1] / p[k - 1] for k in down)
            nearest = max(nearest, inside / bpb.max_ratio)
    return nearest


def _captured(market: Market, best, down: frozenset):
    """{pattern: budget}: the demand patterns of the buyers whose
    bang-per-buck set best[i] meets `down`, a pattern being the goods of
    `down` that a buyer demands, each with its buyers' summed budget. Once
    those prices fall such a buyer prefers them to money and to every other
    good, so its whole budget must go there. Buyers with one pattern are
    parallel nodes of the descent's networks, and one node with their summed
    budget leaves every cut set the descent reads unchanged."""
    captured = {}
    for buyer, bpb in zip(market.buyers, best):
        goods = bpb.goods & down
        if goods:
            captured[goods] = captured.get(goods, 0) + buyer.budget
    return captured


def _route(market: Market, p: PriceVector, captured, down: frozenset, factor):
    """Max flow of the captured budgets into `down`, whose capacities
    p_j * s_j are scaled by factor.

    The captured demand patterns (see _captured) are the network's left
    nodes 1..len(captured), in the dict's order, and the goods of `down` its
    right nodes (returned as node). Budgets and capacities enter the network
    times their least common denominator, so it runs on ints; callers read
    only its cut sets, which that one positive scale leaves unchanged.
    """
    goods_down = sorted(down)
    node = {j: 1 + len(captured) + k for k, j in enumerate(goods_down)}
    caps = [factor * p[j - 1] * market.goods[j - 1].supply for j in goods_down]
    _, scaled = scale_to_integers(list(captured.values()) + caps)
    net = FlowNetwork(len(captured), len(down))
    for b, (goods, budget) in enumerate(zip(captured, scaled), start=1):
        net.add_edge(net.source, b, budget)
        for j in goods:
            net.add_edge(b, node[j], budget)
    for j, cap in zip(goods_down, scaled[len(captured):]):
        net.add_edge(node[j], net.sink, cap)
    net.max_flow()
    return net, node


def lattice_descent(market: Market, p0: PriceVector) -> DescentTrace:
    """Descend from a feasible price to the minimal one, one exact event per step.

    The walk runs on the market's rational twin. Each step has two parts:

    1. Find D, the goods whose prices can fall together. Starting from all
       goods, the captured buyers' budgets, summed per demand pattern (see
       _captured), are routed into D by max flow. A good that cannot reach
       spare capacity in the residual graph sits in a set whose capacity the
       captured budgets already fill; every good demanded by a
       positive-budget buyer confined to such goods leaves D, and the flow is
       rerun. Goods that no budget is forced into, such as zero-supply goods
       nobody demands, stay in D.
    2. Lower D by one common factor to the nearest event (see _next_event).
       If the captured budgets no longer route there, the factor rises to the
       ratio forced / capacity of the min-cut witness, until they do.

    The walk stops when D is empty, which proves minimality (see the module
    docstring). The start is read as the market's own checks read it (see
    read_prices) and then brought onto the twin: on an exact market a float
    start is the rational it is, as check_feasible reads it. probes counts
    the max flows; the trace's prices are in the market's own numeric mode.
    """
    twin = market.rational_twin()
    p = tuple(map(EXACT.coerce, read_prices(market, p0)))
    if not check_feasible(twin, p).feasible:
        raise InfeasibleStartError(f"start price {tuple(p0)!r} is not feasible")
    start = p
    every = frozenset(range(1, market.n + 1))
    steps = []
    probes = 0
    while True:
        best = demand_sets(twin, p)
        down = every
        while down:
            captured = _captured(twin, best, down)
            net, node = _route(twin, p, captured, down, 1)
            probes += 1
            spare = net.reaching()
            stuck = {j for j in down if not spare[node[j]]}
            blocked = {
                j
                for goods, budget in captured.items()
                if budget > 0 and stuck.issuperset(goods)
                for j in goods
            }
            if not blocked:
                break
            down -= blocked
        if not down:
            break
        factor = _next_event(twin, p, best, down)
        while True:
            net, node = _route(twin, p, captured, down, factor)
            probes += 1
            reach = net.reachable_from()
            forced = sum(b for k, b in enumerate(captured.values(), start=1) if reach[k])
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
        steps.append(DescentStep(tuple(sorted(down)), p, q))
        p = q

    def own(prices):  # prices brought into the market's own mode
        return tuple(market.mode.coerce(v) for v in prices)

    return DescentTrace(
        own(start),
        tuple(DescentStep(s.goods, own(s.before), own(s.after)) for s in steps),
        own(p),
        probes,
    )


def _proportional_response(
    market: Market,
) -> Tuple[Optional[EGSolution], Optional[Tuple[PriceVector, FeasibilityCertificate]]]:
    """(eg, cleared): solve's proportional-response run, stopped by its
    support (see _Support) or at the gap target _GAP_TARGET * total budget,
    and (p, certificate) when the support's candidate p passed its exact
    clearing check on the rational twin, else None. (None, None) when an
    exact market has no float image (a number beyond the float range, or a
    good whose only positive values fall below it)."""
    try:
        scale = float(sum(b.budget for b in market.buyers))
        image = _float_image(market)
    except OverflowError:
        return None, None
    if not (image[2] > 0).any(axis=0).all():
        return None, None
    support = _Support(market.rational_twin())
    eg = _solve_eg(image, _GAP_TARGET * scale, stop=support)
    return eg, support.cleared


def solve(market: Market) -> EquilibriumResult:
    """Equilibrium prices with certificates: EG, one exact check, descent as fallback.

    Proportional response runs first. The exact candidate its spending
    support points to gets one clearing check on the rational twin at the
    first of three triggers (see _Support): every price agrees with it; it
    has stayed the same for 500 iterations; or the prices' gap to it shrinks
    too slowly to agree before then. The run stops when a check passes, when
    the prices agree with the candidate, or else at the gap target 1e-11 * total
    budget, which scales with the money, so eg's gap may sit above that
    target. A candidate that passed is p_star: that check is the whole
    certificate, so solve takes no tolerance, since clearing prices are
    unique, and solve does not repeat it. In exact mode it is the result's
    certificate; a float market's rounded-back price is checked again in
    floats. certified_by is then "rounding" and the descent trace is empty.

    Every other case goes to lattice_descent from a trivially feasible price
    (certified_by "descent"): a run that ends, at its gap target, stalled
    at its iteration cap or agreeing with a candidate, without a check that
    passed. The descent's endpoint must pass the same clearing check. One
    check and one refusal serve both paths: a p_star that fails its check in
    the market's mode raises MethodDisagreementError, carrying both
    solutions. A float re-check that fails raises at once, since the descent
    could only end at the same rational and fail the same check. On either path
    method_agreement reports the largest per-coordinate gap between p_star
    and the proportional-response prices, as a diagnostic; after a check
    that passed before the prices agreed, it measures how early the run
    stopped, not an error of p_star: up to about 6e-2 on the random
    families tried.

    An exact market with a number beyond the float range, or a good whose
    only positive values lie below it, has no float image for proportional
    response to run on. It goes straight to the descent, and eg and
    method_agreement are None.

    The efficiency certificate is read off the clearing certificate: clearing
    prices with their clearing allocation are a competitive equilibrium, and
    equilibrium outcomes are constrained-efficient, so its verdict is
    certified and its welfare is the result's. (certify_constrained_efficiency
    re-derives the same verdict from the outcome alone.)
    """
    require_valid(market)
    eg, cleared = _proportional_response(market)
    own = market.mode.coerce
    if cleared is not None:
        certified_by = "rounding"
        p_star = tuple(map(own, cleared[0]))
        trace = DescentTrace(tuple(map(own, eg.prices)), (), p_star, 0)
    else:
        certified_by = "descent"
        trace = lattice_descent(market, initial_feasible_price(market))
        p_star = trace.final
    if cleared is not None and market.mode.is_exact:
        cert = cleared[1]
    else:
        cert = check_clearing(market, p_star)
        if not cert.clearing:
            raise MethodDisagreementError(
                f"{certified_by} endpoint failed its clearing check", eg=eg, descent=trace
            )
    agreement = None
    if eg is not None:
        agreement = max(abs(float(a) - float(b)) for a, b in zip(p_star, eg.prices))
    allocation = cert.allocation
    welfare = social_welfare(market, allocation)
    return EquilibriumResult(
        p_star=p_star,
        allocation=allocation,
        revenue=revenue(Outcome(p_star, allocation)),
        welfare=welfare,
        method_agreement=agreement,
        clearing_certificate=cert,
        efficiency_certificate=EfficiencyCertificate(VERDICT_CERTIFIED, welfare, (), None),
        eg=eg,
        descent=trace,
        certified_by=certified_by,
    )
