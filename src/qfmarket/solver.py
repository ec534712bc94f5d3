"""The minimal feasible (competitive-equilibrium) price: a fast certified path
and an exact descent fallback.

Proportional response (`solve_eg`; `solve` runs a prefix of it) runs on a
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
structure read off the iterate points to one exact candidate. Two
structures are read, every 25 iterations: the support, what each buyer
spends more than 1% of its budget on, and the band sets, the options whose
bang per buck at the iterate's prices lies within a relative band of the
buyer's best (1%, narrowed to ten times the latest relative price move).
Spending on a near-tie decays slowly, so the band sets often point at the
right ties hundreds of iterations before the support does. Each new
candidate, from either reading, gets one exact clearing check, at the
reading where it first appears (the rule is _Support's). If the check
passes the candidate is the answer, because clearing prices are unique;
proportional response only has to point at the right ties, not reach them.
`solve` stops proportional response as soon as a check passes, or when the
prices agree with a support candidate whose check failed, or else at a
fixed gap target.

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

`solve` runs proportional response only where a candidate could certify
the market: every good has positive supply and a funded buyer who values
it. It runs until a candidate clears, the prices agree with a support
candidate that failed, its gap is met or its iterations run out. `solve`
takes the cleared candidate or else falls back to the descent, and
packages the clearing allocation with revenue, welfare, and certificates.
Both certificates rest on the one clearing check: a clearing price with its
clearing allocation is a competitive equilibrium, and those outcomes, and
only those, are constrained-efficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .feasibility import FeasibilityCertificate, check_clearing, check_feasible, pattern_network
from .market import (
    Allocation,
    Market,
    MarketError,
    Outcome,
    PriceVector,
    demand_patterns,
    integer_budgets,
    read_prices,
    require_valid,
)
from .metrics import VERDICT_CERTIFIED, EfficiencyCertificate, revenue, social_welfare
from .numeric import EXACT, Number

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
    eg: Optional[EGSolution]  # None when proportional response did not run (see solve_eg)
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
    """Proportional response run to its gap target, with no support stop.

    Runs in floating point regardless of the market's numeric mode; an
    answer's exactness comes from certifying prices afterwards, not from
    this arithmetic. Zero-budget buyers take no part (they keep no money and
    get empty bundles). The run stops at the gap target 1e-11 * total budget
    (the duality gap is money, so the target scales with the money in play),
    or stalled at its iteration cap, which raises nothing. The duality gap
    is read every 25 iterations, so iterations is a multiple of 25.

    solve(market).eg is a prefix of this run: solve stops it early, at its
    first candidate that clears, read off its support or its band sets (see
    _Support), so its prices may lie far from p*, while this run's prices
    approach p* as its gap closes.

    None, with no iteration run, when no candidate could certify the market:
    an exact market without a float image, or a market with an idle good,
    one whose float supply is 0 or that no funded buyer gives a positive
    float value (see _eg_run). solve then goes straight to the descent.
    """
    require_valid(market)
    run = _eg_run(market)
    return None if run is None else _solve_eg(*run)


def _float_image(market: Market):
    """(budgets, supplies, values): a market's numbers as float arrays, each
    read once with float(); the values are the market's own float table,
    buyers first (Market.float_values, transposed). OverflowError when one
    lies beyond the float range."""
    beta = np.array([float(b.budget) for b in market.buyers])
    supply = np.array([float(g.supply) for g in market.goods])
    return beta, supply, market.float_values.T


def _solve_eg(image, target: float, max_iter: int = 400_000, stop=None) -> EGSolution:
    """Proportional response on the _float_image of a validated market that
    _proportional_response admits (every good has positive supply and a
    positive value from a funded buyer), returning its last iterate even on
    a stall.

    Zero-budget buyers are dropped once, before the loop; they keep no money
    and get empty bundles. Money is the bid matrix's last column, priced 1
    and valued 1, so one update moves the bids on goods and on money alike.
    An iteration has two halves: prices, then the utility each bid buys
    (gains) and each buyer's utility u; then the bids, rescaled to gains *
    beta / u and held at BID_FLOOR. The duality gap is read every _GAP_EVERY
    iterations, between the halves, off the same snapshot.

    The loop sits at numpy's dispatch floor: on markets of a few goods each
    ufunc call costs more to dispatch than to compute, so the loop is laid
    out to make few and cheap calls. Each iteration makes eight calls, each
    writing into a buffer allocated once (`out` passed positionally where
    numpy allows it), and an inner loop of _GAP_EVERY iterations runs
    between readings with no test of its own; the first half of iteration 0
    runs before it. The reading's buffers are allocated once too. The
    iterates must stay bit-identical to the plain loop that writes the same
    float operations in the same order, which tests/test_eg_oracle.py keeps
    as its reference: so the units bought are the bids over the prices and
    then times the values (never the bids times values over prices), and
    the bid matrix is column-major, so that each price's bid sum adds along
    contiguous memory in numpy's pairwise order over buyers. Row-major sums
    add row by row and move the iterates of markets with eight or more
    buyers in their last bits.

    The run ends at the first reading where `stop` (asked first, so it sees
    the final iterate) answers True, the gap is at most `target`, or max_iter
    iterations have run. stop(buyers, bids, p) gets the indices of the live
    buyers, their bids (goods in order, money last) and the goods' prices.
    """
    beta_all, s, values_all = image
    m, n = values_all.shape
    live = np.flatnonzero(beta_all > 0)
    beta = beta_all[live]
    va = np.ones((len(live), n + 1), order="F")
    va[:, :n] = values_all[live]

    valued = va > 0
    shares = 1.0 / valued.sum(axis=1)
    bids = np.asfortranarray(np.where(valued, (beta * shares)[:, None], 0.0))
    floor = np.where(valued, BID_FLOOR, 0.0)
    goods_bids, money = bids[:, :n], bids[:, n]

    p = np.ones(n + 1)  # the last entry is money's price
    goods_p = p[:n]
    gains = np.empty_like(bids)  # bids / p, then times va: the utility each bid buys
    u = np.empty(len(live))
    scale = np.empty(len(live))
    scale_col = scale[:, None]
    ratios = np.empty_like(bids)  # the reading's va / p
    best = np.empty(len(live))  # the reading's largest ratio per buyer
    terms = np.empty(len(live))
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    divide, multiply, maximum, subtract, log, dot = (
        np.divide, np.multiply, np.maximum, np.subtract, np.log, np.dot)
    iterations = 0
    # iteration 0's first half
    add_reduce(goods_bids, 0, None, goods_p)
    divide(goods_p, s, goods_p)
    divide(bids, p, gains)
    multiply(va, gains, gains)
    add_reduce(gains, 1, None, u)
    while True:
        for _ in range(_GAP_EVERY):
            divide(beta, u, scale)
            multiply(gains, scale_col, bids)
            maximum(bids, floor, out=bids)
            add_reduce(goods_bids, 0, None, goods_p)
            divide(goods_p, s, goods_p)
            divide(bids, p, gains)
            multiply(va, gains, gains)
            add_reduce(gains, 1, None, u)
        iterations += _GAP_EVERY
        # bids / p sells exactly s at these p, and u = v.x + money, so the
        # primal value is genuine.
        log(u, terms)
        primal = float(dot(beta, terms) - money.sum())
        divide(va, p, ratios)
        max_reduce(ratios, 1, None, best)  # at least money's 1
        multiply(beta, best, terms)
        log(terms, terms)
        multiply(beta, terms, terms)
        subtract(terms, beta, terms)
        gap = float(dot(goods_p, s) + terms.sum()) - primal
        if stop is not None and stop(live, bids, goods_p):
            break
        if gap <= target or iterations >= max_iter:
            break

    allocation = np.zeros((m, n))
    allocation[live] = goods_bids / goods_p
    leftover = np.zeros(m)
    leftover[live] = money
    return EGSolution(
        allocation=tuple(map(tuple, allocation.tolist())),
        leftover=tuple(leftover.tolist()),
        prices=tuple(goods_p.tolist()),
        duality_gap=gap,
        iterations=iterations,
    )


# A buyer's support: the options (goods, and money) it spends more than this
# share of its budget on.
_SUPPORT = 1e-2
# A buyer's band set: the options whose bang per buck lies within a relative
# band of its best. The band is _BAND, or _BAND_MOVE times the largest
# relative price move since the previous reading when that is smaller.
_BAND = 1e-2
_BAND_MOVE = 10
# Relative distance within which every price agrees with a failed support
# candidate: _Support's stall guard.
_AGREE = 1e-6


def _snap(market: Market, sets) -> Optional[PriceVector]:
    """The exact price that the buyers' demand sets point to, or None.

    sets[i] is buyer i's demand set: goods by 1-based index, money as 0.
    Goods sharing a set must sit at value-proportional prices, so each
    connected component of the tie graph carries one scalar level; weight[j]
    is good j's exact multiplier relative to its component root (the values
    linking goods are positive: a demanded good's ratio is the buyer's best,
    which is at least money's 1). A component that ties money takes that
    money-tie level, and otherwise the level at which its attached buyers'
    budgets buy its supply; those budgets are summed as ints on the
    market's budget scale (see integer_budgets), and its supply is positive,
    since proportional response runs only where every good's is. None when
    two link paths or two money ties disagree, or a component has neither
    level.

    Each buyer's links are followed once, from the first of its goods the
    walk reaches: weights consistent along that star are consistent between
    every pair of its goods.
    """
    n = market.n
    linking = [[] for _ in range(n + 1)]  # option j -> the buyers tying it to another option
    for i, goods in enumerate(sets):
        if len(goods) > 1:
            for j in goods:
                linking[j].append(i)
    linked = [False] * len(sets)  # the buyers whose links have been followed
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
            for i in linking[j]:
                if linked[i]:
                    continue
                linked[i] = True
                values = market.buyers[i].values
                scale = weight[j] / values[j - 1]
                for k in sets[i]:
                    if k == 0 or k == j:
                        continue
                    w = scale * values[k - 1]
                    if k in weight:
                        if weight[k] != w:
                            return None
                    else:
                        weight[k] = w
                        component[k] = cid
                        members[cid].append(k)
                        frontier.append(k)

    level = [None] * len(members)
    unit, budgets = integer_budgets(market)
    attached_budget = [0] * len(members)  # times unit
    for budget, goods in zip(budgets, sets):
        for j in goods:
            if j:
                attached_budget[component[j]] += budget
                break
    for i in linking[0]:  # the buyers that tie money to a good
        values = market.buyers[i].values
        for j in sets[i]:
            if j:
                cid = component[j]
                pin = values[j - 1] / weight[j]
                if level[cid] is None:
                    level[cid] = pin
                elif level[cid] != pin:
                    return None
    for cid, goods in members.items():
        if level[cid] is None:
            if not attached_budget[cid]:
                return None
            mass = sum(weight[j] * market.goods[j - 1].supply for j in goods)
            level[cid] = Fraction(attached_budget[cid], unit) / mass
    return tuple(level[component[j]] * weight[j] for j in range(1, n + 1))


class _Support:
    """Two readings of proportional response's ties, the exact prices they
    point to, and those prices' clearing checks.

    Called as _solve_eg's stop rule, stop(buyers, bids, p), every
    _GAP_EVERY iterations, it reads each live buyer's ties twice, as a set
    of options (goods 1..n, and money as 0):
    - its support, the options it spends more than _SUPPORT of its budget
      on, read off its bids (money is the bids' last column);
    - its band set, the options whose bang per buck at p, read off the float
      image's values (money's is 1), lies within a relative band of its
      best. The band is _BAND at the first reading and later _BAND_MOVE
      times the largest relative price move since the previous reading,
      capped at _BAND, so it narrows as the iterate settles.
    Spending on an option the buyer is nearly indifferent to decays slowly,
    so the band sets often point at p* long before the support does. The
    support is kept for markets whose band sets keep pointing to candidates
    that fail (crowd_market(Random(100), 2000, 8) in perfbench/workloads.py
    certifies by its support after 4,950 iterations; its band sets alone
    reach no candidate that clears in 14,075).

    Each reading is snapped onto the rational twin (see _snap) when its sets
    differ from that reading's previous ones, reading each distinct row of
    the boolean mask once and sharing its labels among the buyers that have
    it. The stop rule: a candidate from either reading gets its one exact
    check, check_clearing on the twin, at the reading where it first
    appears. Clearing prices are unique, so a candidate that clears is p*
    however far p still is from it, and the run stops there. Each distinct
    candidate is checked at most once. The only other stop is the stall
    guard, on the support's candidate alone: every price of p within _AGREE
    (relative) of a support candidate whose check failed, so the run goes
    to the descent rather than settle on it. `cleared` is (candidate,
    certificate) once a check has cleared, else None.

    A reading costs little next to _GAP_EVERY iterations, and is kept so:
    the sets are re-read only when a mask's bytes change; the band and the
    agree test on the at most n prices run on Python floats; and a
    candidate is looked up among the failed ones once, when it appears,
    since hashing a tuple of Fractions costs more than the rest of the
    reading.
    """

    def __init__(self, twin: Market, values):
        self.twin = twin
        self.candidate = None  # the support's
        self.cleared = None
        self._failed = set()  # candidates whose clearing check failed
        self._labels = (*range(1, twin.n + 1), 0)  # the mask's columns: goods, then money
        self._mask = None  # the bytes of the last supports' boolean mask
        self._target = None  # the failed support candidate's prices, as floats
        self._band_mask = None  # the bytes of the last band sets' boolean mask
        self._band_candidate = None
        self._prices = None  # the previous reading's prices, as floats
        self._values = values  # the float image's values, buyers first
        self._va = None  # the live buyers' values and money's 1, once read

    def __call__(self, buyers, bids, p) -> bool:
        key = (bids > _SUPPORT * bids.sum(axis=1, keepdims=True)).tobytes()
        if key != self._mask:
            self._mask = key
            candidate = _snap(self.twin, self._sets(buyers, key))
            if candidate != self.candidate:
                self.candidate = candidate
                self._target = None
                if candidate is not None:
                    if self._clears(candidate):
                        return True
                    self._target = [float(v) for v in candidate]

        prices, previous = p.tolist(), self._prices
        self._prices = prices
        band = _BAND if previous is None else min(
            _BAND, _BAND_MOVE * max(abs(a - b) / b for a, b in zip(prices, previous)))
        va = self._va
        if va is None:  # laid out as the bids are
            va = self._va = np.ones((len(buyers), self.twin.n + 1), order="F")
            va[:, :-1] = self._values[buyers]
        ratios = va / np.append(p, 1.0)
        key = (ratios >= ratios.max(axis=1, keepdims=True) / (1.0 + band)).tobytes()
        if key != self._band_mask:
            self._band_mask = key
            candidate = _snap(self.twin, self._sets(buyers, key))
            if candidate != self._band_candidate:
                self._band_candidate = candidate
                if candidate is not None and self._clears(candidate):
                    return True

        target = self._target
        return target is not None and all(
            abs(price - aim) <= _AGREE * aim for price, aim in zip(prices, target))

    def _sets(self, buyers, key):
        """Each buyer's set of labels, read off the bytes of a boolean mask
        with a row per live buyer; () for the others."""
        labels = self._labels
        width = len(labels)
        read = {}  # a mask row's bytes -> its labels
        sets = [()] * self.twin.m
        for i, start in zip(buyers.tolist(), range(0, len(key), width)):
            row = key[start:start + width]
            labelled = read.get(row)
            if labelled is None:
                labelled = read[row] = tuple(label for label, on in zip(labels, row) if on)
            sets[i] = labelled
        return sets

    def _clears(self, candidate) -> bool:
        """candidate's one exact check, unless it has failed before: True,
        with `cleared` set, when it clears."""
        if candidate in self._failed:
            return False
        cert = check_clearing(self.twin, candidate)
        if cert.clearing:
            self.cleared = (candidate, cert)
            return True
        self._failed.add(candidate)
        return False


def _next_event(ratios, best, patterns: dict, down: frozenset) -> Number:
    """Largest factor below 1 at which cutting the prices of `down` makes one
    of them tie some buyer's best option outside it (another good or money);
    0 when there is none. ratios, best and patterns are demand_patterns' on
    the rational twin at the current price, the arrays as lists: buyer i's
    ratio for good j over its best ratio is ratios[j][i] / best[i], two ints
    scaled by one positive number.

    Only the buyers of patterns disjoint from `down` have such events: for
    the others a good of `down` already beats every outside option, and a
    common factor keeps the order inside `down`. For the rest, the best
    option outside `down` is their best option. The largest quotient is
    kept by integer cross-multiplication and divided out once.
    """
    num, den = 0, 1
    for goods, buyers in patterns.items():
        if goods.isdisjoint(down):
            for i in buyers:
                inside = max(ratios[j][i] for j in down)
                if inside * den > num * best[i]:
                    num, den = inside, best[i]
    return Fraction(num, den) if num else 0


def lattice_descent(market: Market, p0: PriceVector) -> DescentTrace:
    """Descend from a feasible price to the minimal one, one exact event per step.

    The walk runs on the market's rational twin. Each step has two parts:

    1. Find D, the goods whose prices can fall together. Starting from all
       goods, the captured buyers' budgets are routed into D by max flow. A
       buyer whose demand set meets D is captured: once those prices fall it
       prefers them to money and to every other good, so its whole budget
       must go there. Its pattern in the network is the goods of D it
       demands (see pattern_network); the budgets are summed once per
       demand pattern at each price, as ints on the budget scale (see
       integer_budgets). A good that cannot reach spare capacity in the
       residual graph sits in a set whose capacity the captured budgets
       already fill; every good demanded by a positive-budget buyer confined
       to such goods leaves D, and the flow is rerun. Goods that no budget
       is forced into, such as zero-supply goods nobody demands, stay in D.
    2. Lower D by one common factor to the nearest event (see _next_event),
       read off the ratio table that demand_patterns returned with step 1's
       patterns.
       If the captured budgets no longer route there, the factor rises to the
       ratio forced / capacity of the min-cut witness, until they do.

    The walk stops when D is empty, which proves minimality (see the module
    docstring). The start is read as the market's own checks read it (see
    read_prices) and then brought onto the twin: on an exact market a float
    start is the rational it is, as check_feasible reads it, and on a float
    market each float start is the rational its shortest decimal names (see
    NumericMode.coerce). A float market's own p* is rounded, so that reading
    can lie just below the exact p* in some coordinate, where it is
    infeasible: start such a descent from the twin's p* instead. The
    InfeasibleStartError of a float market names the twin. probes counts
    the max flows; the trace's prices are in the market's own numeric mode.
    """
    twin = market.rational_twin()
    p = tuple(map(EXACT.coerce, read_prices(market, p0)))
    if not check_feasible(twin, p).feasible:
        where = "" if market.mode.is_exact else (
            " on the rational twin, each float read as its shortest decimal"
        )
        raise InfeasibleStartError(f"start price {tuple(p0)!r} is not feasible{where}")
    start = p
    every = frozenset(range(1, market.n + 1))
    steps = []
    probes = 0

    def capacities(factor):  # p_j * s_j times factor for each good j of down, else 0
        return [factor * v * g.supply if j in down else 0
                for j, (v, g) in enumerate(zip(p, twin.goods), start=1)]

    buyer_budgets = integer_budgets(twin)[1]
    while True:
        _, ratios, best, patterns = demand_patterns(twin, p)
        ratios, best = ratios.tolist(), best.tolist()
        sums = {goods: sum(buyer_budgets[i] for i in buyers) for goods, buyers in patterns.items()}
        down = every
        while down:
            captured = {}  # the goods of down that a pattern demands -> their budget
            for goods, budget in sums.items():
                inside = goods & down
                if inside:
                    captured[inside] = captured.get(inside, 0) + budget
            net, order, budgets, _, _ = pattern_network(twin, captured, capacities(1))
            net.max_flow()
            probes += 1
            spare = net.reaching()
            stuck = {j for j in down if not spare[len(order) + j]}
            blocked = {j for goods, budget in zip(order, budgets)
                       if budget > 0 and stuck.issuperset(goods) for j in goods}
            if not blocked:
                break
            down -= blocked
        if not down:
            break
        factor = _next_event(ratios, best, patterns, down)
        while True:
            net, order, budgets, unit, _ = pattern_network(twin, captured, capacities(factor))
            net.max_flow()
            probes += 1
            reach = net.reachable_from()
            forced = sum(b for node, b in enumerate(budgets, start=1) if reach[node])
            if not forced:
                break
            factor = Fraction(forced, unit) / sum(
                cap for j, cap in enumerate(capacities(1), start=1) if reach[len(order) + j]
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


def _eg_run(market: Market):
    """(image, target): the _float_image proportional response runs on and
    its gap target _GAP_TARGET * total budget, or None when no candidate
    could certify the market: an exact market without a float image (a
    number beyond the float range), or a market with an idle good, one whose
    float supply is 0 or that no funded buyer gives a positive float value
    (a value below the float range reads as 0). Neither a support nor a band
    set can hold an idle good (no live buyer spends on it, and its bang per
    buck is 0), so its tie component has neither a money tie nor an attached
    budget, _snap never finds a candidate, and the run could only end at its
    gap target or iteration cap."""
    try:
        scale = float(sum(b.budget for b in market.buyers))
        beta, supply, values = image = _float_image(market)
    except OverflowError:
        return None
    if not (supply > 0).all() or not (values[beta > 0] > 0).any(axis=0).all():
        return None
    return image, _GAP_TARGET * scale


def _proportional_response(
    market: Market,
) -> Tuple[Optional[EGSolution], Optional[Tuple[PriceVector, FeasibilityCertificate]]]:
    """(eg, cleared): solve's proportional-response run, stopped by its
    _Support, which reads the image's values for the band sets, or at its
    gap target, and (p, certificate) when a candidate p passed its exact
    clearing check on the rational twin, else None. (None, None) where
    _eg_run is None."""
    run = _eg_run(market)
    if run is None:
        return None, None
    support = _Support(market.rational_twin(), run[0][2])
    return _solve_eg(*run, stop=support), support.cleared


def solve(market: Market) -> EquilibriumResult:
    """Equilibrium prices with certificates: EG, one exact check, descent as fallback.

    Proportional response runs first. Every 25 iterations its ties are read
    twice, off each buyer's spending (its support) and off its bang per buck
    at the current prices (its band set), and each exact candidate either
    reading points to gets one clearing check on the rational twin, at the
    reading where it first appears (see _Support). The run stops when a
    check passes, when the prices agree with a support candidate whose check
    failed, or else at the gap target 1e-11 * total budget, which scales
    with the money, so eg's gap may sit far above that target. eg is that
    run, a prefix of solve_eg's: on the seed-0 6x6 battery it stops after
    25 to 75 iterations, and on the benchmark's `crowd` markets after 25 to
    75, where the support alone took 75 to 925. Clearing prices are unique,
    so a candidate that passed is p_star: that check is the whole
    certificate, solve takes no tolerance, and it does not repeat the check.
    In exact mode it is the result's certificate; a float market's
    rounded-back price is checked again in floats. certified_by is then
    "rounding" and the descent trace is empty.

    Every other case goes to lattice_descent from a trivially feasible price
    (certified_by "descent"): a run that ends, at its gap target, stalled
    at its iteration cap or agreeing with a failed support candidate,
    without a check that passed. The descent's endpoint must pass the same clearing
    check. One check and one refusal serve both paths: a p_star that fails
    its check in the market's mode raises MethodDisagreementError, carrying
    both solutions. A float re-check that fails raises at once, since the
    descent could only end at the same rational and fail the same check. On
    either path method_agreement reports the largest per-coordinate gap
    between p_star and eg's prices, as a diagnostic; after a check that
    passed, it measures how early the run stopped, not an error of p_star:
    up to about 0.14 on the seed-0 6x6, 12345/8x4 and Random(7) 6x6 draws
    tried. solve_eg's own run is the one that shows how close proportional
    response comes.

    An exact market with a number beyond the float range has no float image
    for proportional response to run on, and a market with an idle good (a
    good whose float supply is 0, or that no funded buyer gives a positive
    float value, such as one whose only positive values lie below the float
    range) has no candidate that could certify it. Either goes straight to
    the descent, and eg and method_agreement are None.

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
