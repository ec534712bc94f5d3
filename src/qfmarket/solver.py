"""The minimal feasible (competitive-equilibrium) price: a fast certified path
and a descent fallback.

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
downward through the feasible region: starting from a trivially feasible
price it repeatedly scales subsets of coordinates by a common factor,
accepting a move iff the flow check keeps it feasible, and halves the step
when nothing moves. Subset moves matter: the minimal point generically sits
at a corner where bang-per-buck ties force several prices to fall together,
and single-coordinate moves stall on such ridges. The terminal iterate is
snapped the same way and kept if the clearing check certifies it.

`solve` runs proportional response and the rounding, falls back to the
descent with a per-coordinate agreement gate, and packages the clearing
allocation with revenue, welfare, and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Tuple

import numpy as np

from .feasibility import (
    FeasibilityCertificate,
    check_clearing,
    check_feasible,
)
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
    """The two solvers disagree beyond tolerance; exposes both results."""

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
    probes: int  # feasibility checks spent


@dataclass(frozen=True)
class DescentSchedule:
    delta0: Optional[Number] = None  # default: max initial price / 4
    delta_min: Optional[Number] = None  # default: tol (float), 2^-14 (exact)
    max_probes: int = 2_000_000


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


def _simplified(market: Market, p: PriceVector, tol) -> PriceVector:
    """Feasible point near p with bounded denominators and the same exact ties.

    Exact landings mix value ratios into the prices, and every subsequent
    probe multiplies those rationals together, so iterate complexity compounds
    and the flow checks slow to a crawl. Each tie component carries a single
    scalar level, so rounding an oversized level to the dyadic grid just
    below (or above) the current value, with the weights untouched, keeps
    every exact tie while shrinking the representation. Only a rounding that
    passes the exact feasibility check is kept.
    """
    built = _tie_components(market, p, Fraction(0))
    if built is None:
        return p
    _, component, weight, members = built
    grid = 1 << 64
    rounded = {}
    for cid, goods in members.items():
        level = Fraction(p[goods[0] - 1]) / weight[goods[0]]
        if level.denominator > grid:
            rounded[cid] = (level.numerator * grid) // level.denominator
    if not rounded:
        return p
    for bump in (0, 1):
        q = list(p)
        valid = True
        for cid, floor_num in rounded.items():
            level = Fraction(floor_num + bump, grid)
            if level <= 0:
                valid = False
                break
            for j in members[cid]:
                q[j - 1] = level * weight[j]
        if not valid:
            continue
        qt = tuple(q)
        if check_feasible(market, qt, tol).feasible:
            return qt
    return p


def _event_factors(market: Market, p: PriceVector, sub: frozenset):
    """Scale factors landing some good in sub exactly on a bang-per-buck tie.

    Cutting the prices in sub raises their ratios for every buyer while the
    rest stand still, so the first structural change happens when a member
    good catches the buyer's best outside option (another good or money).
    Factors are returned in descending order: nearest event first. Only ties
    with the outside argmax are emitted, because a tie with a dominated good
    leaves the demand sets unchanged.
    """
    factors = set()
    one = market.mode.coerce(1)
    for buyer in market.buyers:
        outside = one  # money
        for k in range(1, market.n + 1):
            if k in sub or buyer.values[k - 1] <= 0:
                continue
            r = buyer.values[k - 1] / p[k - 1]
            if r > outside:
                outside = r
        for j in sub:
            if buyer.values[j - 1] <= 0:
                continue
            r = buyer.values[j - 1] / p[j - 1]
            if r < outside:
                factors.add(r / outside)
    return sorted(factors, reverse=True)


_SNAP_BANDS = tuple(Fraction(1, 2**k) for k in (40, 32, 24, 18, 14, 10, 8, 6, 4))


def _snap_exact(market: Market, p: PriceVector) -> Optional[PriceVector]:
    """The clearing price of an exact market, read off a nearby price p.

    p itself is certified first, then the tie-snap candidates of ever wider
    bands; the first to pass the exact clearing check is returned, and None
    when none does.
    """
    p = tuple(p)
    cert = check_clearing(market, p)
    if cert.feasible and cert.clearing:
        return p
    seen = {p}
    for band in _SNAP_BANDS:
        for candidate in _tie_snap_candidates(market, p, band):
            if candidate in seen:
                continue
            seen.add(candidate)
            cert = check_clearing(market, candidate)
            if cert.feasible and cert.clearing:
                return candidate
    return None


def _certified_rounding(market: Market, prices: PriceVector) -> Optional[PriceVector]:
    """The clearing price read off approximate prices, or None if none certifies.

    The prices are read as rationals on the market's rational twin (a float
    market's numbers are rationals too) and handed to _snap_exact, whose exact
    clearing check is conclusive because clearing prices are unique. A float
    market gets that price rounded back to floats.
    """
    exact_market = market if market.mode.is_exact else market.coerced(EXACT)
    snapped = _snap_exact(exact_market, tuple(EXACT.coerce(v) for v in prices))
    if snapped is None or market.mode.is_exact:
        return snapped
    return tuple(float(v) for v in snapped)


def lattice_descent(
    market: Market,
    p0: PriceVector,
    schedule: DescentSchedule = DescentSchedule(),
    tol: Number = None,
) -> DescentTrace:
    """Descend from a feasible price to the minimal one by subset scaling.

    At step size delta, each nonempty subset S of goods is probed with the
    uniform factor (M - delta) / M where M = max price in S, so the largest
    member falls by exactly delta and ratio ties inside S survive the move.
    Subsets are visited smallest first in index order; delta halves when a
    full sweep accepts nothing and doubles (up to its starting value) after
    a sweep with progress. When even the smallest step moves no subset, the
    walk probes exact tie-event landings (see _event_factors): these are the
    only way into the measure-zero faces where several prices must hold a
    ratio exactly, and the walk stops once no landing is feasible either.
    The terminal iterate is then rounded onto its tie structure like the
    proportional-response prices in solve (see _certified_rounding).
    """
    require_valid(market)
    if tol is None:
        tol = market.mode.tol
    p = tuple(market.mode.coerce(v) for v in p0)
    if not check_feasible(market, p, tol).feasible:
        raise InfeasibleStartError(f"start price {p!r} is not feasible")

    exact = market.mode.is_exact
    delta = schedule.delta0
    if delta is None:
        delta = max(p) / 4
    delta_min = schedule.delta_min
    if delta_min is None:
        delta_min = Fraction(1, 2**14) if exact else max(tol, 1e-12)
    if delta_min <= 0 or delta < delta_min:
        raise MarketError("descent schedule needs delta0 >= delta_min > 0")

    subsets = [
        frozenset(c)
        for size in range(1, market.n + 1)
        for c in combinations(range(1, market.n + 1), size)
    ]
    steps = []
    probes = 0
    delta_cap = delta
    while True:
        accepted = False
        for sub in subsets:
            big = max(p[j - 1] for j in sub)
            if delta >= big:
                continue
            factor = (big - delta) / big
            q = tuple(
                price * factor if (k + 1) in sub else price
                for k, price in enumerate(p)
            )
            probes += 1
            if probes > schedule.max_probes:
                raise SolverConvergenceError(
                    f"descent exceeded {schedule.max_probes} feasibility probes",
                    last=p,
                )
            if check_feasible(market, q, tol).feasible:
                steps.append(DescentStep(tuple(sorted(sub)), p, q))
                p = q
                accepted = True
        if accepted:
            # Re-expand after progress so a stall at one kink cannot pin the
            # step size at delta_min for the rest of the walk.
            delta = min(delta * 2, delta_cap)
            if exact and sum(
                v.numerator.bit_length() + v.denominator.bit_length() for v in p
            ) > 256 * market.n:
                q = _simplified(market, p, tol)
                if q != p:
                    steps.append(DescentStep(tuple(range(1, market.n + 1)), p, q))
                    p = q
            continue
        if delta > delta_min:
            delta = delta / 2
            if delta < delta_min:
                delta = delta_min
            continue
        # The smallest step moves nothing, which happens when the walk
        # straddles a face it can only enter exactly: minimality often forces
        # several prices into fixed ratios, and a fixed-size cut overshoots
        # the ratio on one side or the other. Land on the nearest tie event
        # instead, then resume the step schedule from the bottom.
        landed = False
        for sub in subsets:
            for factor in _event_factors(market, p, sub):
                q = tuple(
                    price * factor if (k + 1) in sub else price
                    for k, price in enumerate(p)
                )
                probes += 1
                if probes > schedule.max_probes:
                    raise SolverConvergenceError(
                        f"descent exceeded {schedule.max_probes} feasibility probes",
                        last=p,
                    )
                if check_feasible(market, q, tol).feasible:
                    if exact:
                        q = _simplified(market, q, tol)
                    steps.append(DescentStep(tuple(sorted(sub)), p, q))
                    p = q
                    landed = True
                    break
            if landed:
                break
        if not landed:
            break

    snapped = _certified_rounding(market, p)
    if snapped is not None and snapped != p and check_feasible(market, snapped, tol).feasible:
        steps.append(DescentStep(tuple(range(1, market.n + 1)), p, snapped))
        p = snapped
    return DescentTrace(tuple(market.mode.coerce(v) for v in p0), tuple(steps), p, probes)


def solve(market: Market, tol: float = 1e-8) -> EquilibriumResult:
    """Equilibrium prices with certificates: EG, one exact snap, descent as fallback.

    Proportional response runs first, and its prices are rounded onto the tie
    structure they exhibit (see _certified_rounding). A candidate that passes
    the clearing check in the market's own mode is p_star, and the check is
    the whole certificate: clearing prices are unique. certified_by is then
    "rounding" and the descent trace is empty.

    Only when no candidate certifies does lattice_descent run from a
    trivially feasible price (certified_by "descent"). Its endpoint must pass
    the clearing check, and the proportional-response prices must agree with
    it per coordinate to max(10 * tol, 1e-5); the slack above 10 * tol exists
    because on degenerate instances (a buyer exactly indifferent to money at
    p_star, say) proportional response stalls a few microunits away however
    small its own tolerance. A MethodDisagreementError exposes both
    solutions. On either path method_agreement reports the largest
    per-coordinate gap between p_star and the proportional-response prices.
    """
    require_valid(market)
    if tol <= 0:
        raise MarketError("solve needs tol > 0")
    scale = max(1.0, float(sum(b.budget for b in market.buyers)))
    eg_market = market if not market.mode.is_exact else market.coerced(float_mode())
    eg = solve_eg(eg_market, tol=min(tol, 1e-9) * scale * 1e-2)
    p_star = _certified_rounding(market, eg.prices)
    cert = None if p_star is None else check_clearing(market, p_star)
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
                "descent endpoint failed the clearing check", eg=eg, descent=trace
            )
    agreement = max(abs(float(a) - float(b)) for a, b in zip(p_star, eg.prices))
    allowed = max(10 * tol, 1e-5)
    if certified_by == "descent" and agreement > allowed:
        raise MethodDisagreementError(
            f"solvers disagree by {agreement:.3e} (> {allowed:.3e} allowed)",
            eg=eg,
            descent=trace,
        )
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
