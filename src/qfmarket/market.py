"""Core market types and the budget-constrained demand correspondence.

Conventions used throughout the package:

* goods are indexed 1..n in bang-per-buck sets; index 0 is the implicit money
  good with price 1 and per-unit value 1 for every buyer. Money is never
  stored in vectors.
* vectors (supplies, values, prices, bundles) are plain tuples of length n;
  entry k belongs to good k+1.
* a buyer is "strict" at prices p if money is not among its bang-per-buck
  maximizers, in which case any demanded bundle spends the full budget.
* market-level demand questions go through demand_sets, which reads p with
  read_prices: the flow checks' spending graph and outcome_is_feasible both
  do, so a float price on an exact market is the rational it is in each.
  bang_per_buck, is_demanded and demand_vertices answer for one buyer at p
  exactly as given, with a tie band of the caller's choosing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .flow import scale_to_integers
from .numeric import EXACT, Number, NumericMode

MONEY = 0

PriceVector = Tuple[Number, ...]
Bundle = Tuple[Number, ...]
Allocation = Tuple[Bundle, ...]


class MarketError(Exception):
    """Base class for errors raised by this package."""


@dataclass(frozen=True)
class Outcome:
    """A price vector together with one bundle per buyer."""

    prices: "PriceVector"
    allocation: "Allocation"

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(self.prices))
        object.__setattr__(self, "allocation", tuple(tuple(b) for b in self.allocation))


class PriceDomainError(MarketError):
    """A price vector had an entry that is not positive and finite, or not
    one entry per good; bang-per-buck ratios are undefined there."""


@dataclass(frozen=True)
class Good:
    name: str
    supply: Number

    def __post_init__(self):
        if not self.name:
            raise MarketError("good name must be nonempty")


@dataclass(frozen=True)
class Buyer:
    name: str
    values: Tuple[Number, ...]
    budget: Number

    def __post_init__(self):
        if not self.name:
            raise MarketError("buyer name must be nonempty")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Market:
    """Goods, buyers and the numeric mode their numbers are in.

    `violations`, the validity verdict that validate_market and require_valid
    read, is worked out once per object, on first use, and kept. A market
    built from another one (coerced, strip_worthless_goods) is a new object
    with a verdict of its own, except the twin of a valid float market (see
    rational_twin), which takes over its empty verdict. The value tables
    that demand_sets reads and a float market's rational twin are kept the
    same way, one per object.
    """

    goods: Tuple[Good, ...]
    buyers: Tuple[Buyer, ...]
    mode: NumericMode = EXACT

    def __post_init__(self):
        object.__setattr__(self, "goods", tuple(self.goods))
        object.__setattr__(self, "buyers", tuple(self.buyers))

    @property
    def n(self) -> int:
        return len(self.goods)

    @property
    def m(self) -> int:
        return len(self.buyers)

    @property
    def supplies(self) -> Tuple[Number, ...]:
        return tuple(g.supply for g in self.goods)

    def coerced(self, mode: NumericMode) -> "Market":
        """The same market with every number brought into `mode`."""
        goods = tuple(Good(g.name, mode.coerce(g.supply)) for g in self.goods)
        buyers = tuple(
            Buyer(b.name, tuple(mode.coerce(v) for v in b.values), mode.coerce(b.budget))
            for b in self.buyers
        )
        return Market(goods, buyers, mode)

    @cached_property
    def violations(self) -> Tuple[str, ...]:
        """Every broken type invariant (empty = valid)."""
        return tuple(_violations(self))

    @cached_property
    def _integer_values(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """(D, V) per buyer, its values v = V / D over their least common
        denominator D, which exact demand_sets compares. A valid exact
        market's values are ints and Fractions (see validate_market)."""
        return tuple(
            (unit, tuple(scaled))
            for unit, scaled in (scale_to_integers(b.values) for b in self.buyers)
        )

    @cached_property
    def _float_values(self) -> np.ndarray:
        """The values as an n x m float matrix, goods first, which
        float_demand divides."""
        values = np.array([b.values for b in self.buyers], dtype=np.float64).reshape(self.m, self.n)
        return np.ascontiguousarray(values.T)

    def rational_twin(self) -> "Market":
        """The market in exact arithmetic: itself when exact, else an exact
        copy, built on the first call and kept. A valid float market's copy
        is valid too, since a finite float read through its decimal stays
        finite, keeps its sign and is zero only if it was zero, so it takes
        over the empty verdict instead of validating again."""
        if self.mode.is_exact:
            return self
        return self._twin

    @cached_property
    def _twin(self) -> "Market":
        twin = self.coerced(EXACT)
        if not self.violations:
            twin.__dict__["violations"] = ()
        return twin


@dataclass(frozen=True)
class BangPerBuckSet:
    """Argmax of v_j / p_j over goods and money for one buyer at fixed prices."""

    goods: frozenset  # subset of {0, 1, .., n}; 0 is money
    max_ratio: Number

    @property
    def strict(self) -> bool:
        return MONEY not in self.goods


def _finite(x: Number) -> bool:
    """False for infinities and NaN; a Fraction of any size is finite."""
    return -math.inf < x < math.inf


def _violations(market: Market) -> list:
    """The validation body behind Market.violations."""
    violations = []
    exact = market.mode.is_exact

    def check(x, owner, what, shown=True):
        # An exact market holds ints (not bools) and Fractions only.
        if exact and type(x) not in (int, Fraction):
            violations.append(f"{owner}: {what} {x!r} is not an int or a Fraction in an exact market")
        elif not _finite(x):
            violations.append(f"{owner}: non-finite {what}" + f" {x}" * shown)
        elif x < 0:
            violations.append(f"{owner}: negative {what}" + f" {x}" * shown)

    if market.n < 1:
        violations.append("market: needs at least one good")
    if market.m < 1:
        violations.append("market: needs at least one buyer")
    for g in market.goods:
        check(g.supply, f"good {g.name}", "supply")
    names = [g.name for g in market.goods]
    if len(set(names)) != len(names):
        violations.append("goods: duplicate names")
    value_of = [f"value for good {name}" for name in names]
    for b in market.buyers:
        if len(b.values) != market.n:
            violations.append(
                f"buyer {b.name}: {len(b.values)} values for {market.n} goods"
            )
            continue
        owner = f"buyer {b.name}"
        check(b.budget, owner, "budget")
        for v, what in zip(b.values, value_of):
            check(v, owner, what, False)
    for k, g in enumerate(market.goods):
        if not any(len(b.values) == market.n and b.values[k] > 0 for b in market.buyers):
            violations.append(
                f"good {g.name}: valued 0 by every buyer (remove it with strip_worthless_goods)"
            )
    return violations


def validate_market(market: Market) -> list:
    """Check all type invariants; returns a list of violation strings (empty = valid)."""
    return list(market.violations)


def require_valid(market: Market) -> None:
    violations = validate_market(market)
    if violations:
        raise MarketError("invalid market: " + "; ".join(violations))


def strip_worthless_goods(market: Market) -> Market:
    """Drop goods valued 0 by every buyer (the caller's explicit modeling action)."""
    keep = [
        k for k in range(market.n) if any(b.values[k] > 0 for b in market.buyers)
    ]
    goods = tuple(market.goods[k] for k in keep)
    buyers = tuple(
        Buyer(b.name, tuple(b.values[k] for k in keep), b.budget) for b in market.buyers
    )
    return Market(goods, buyers, market.mode)


def bang_per_buck(buyer: Buyer, p: PriceVector, tol: Number = 0) -> BangPerBuckSet:
    """Bang-per-buck maximizer set of one buyer.

    Money (index 0, ratio 1) always competes. A good j is included whenever
    v_j / p_j >= (1 - tol) * max_ratio, so tol = 0 gives the exact argmax and a
    small relative tol makes boundary ties reproducible in float mode.
    """
    check_prices(p, len(buyer.values))
    best = 1  # money
    ratios = []
    for v, price in zip(buyer.values, p):
        r = v / price
        ratios.append(r)
        if r > best:
            best = r
    cutoff = (1 - tol) * best
    members = {j + 1 for j, r in enumerate(ratios) if r >= cutoff}
    if 1 >= cutoff:
        members.add(MONEY)
    return BangPerBuckSet(frozenset(members), best)


def check_prices(p: PriceVector, n: int) -> None:
    """PriceDomainError unless p holds n positive, finite prices. A Fraction
    of any size is finite, so only its sign is read (its denominator is
    positive); any other entry is compared as _finite does."""
    if len(p) != n:
        raise PriceDomainError(f"{len(p)} prices for {n} goods")
    for entry in p:
        if not (entry.numerator > 0 if type(entry) is Fraction else 0 < entry < math.inf):
            raise PriceDomainError(f"undefined ratio: price {entry} is not positive and finite")


def read_prices(market: Market, p: PriceVector) -> PriceVector:
    """p as every check of `market` reads it, once check_prices passes: each
    entry as the rational it is, Fraction(x), in exact mode (a float
    included, and a Fraction kept as it is), and as given in float mode."""
    check_prices(p, market.n)
    if not market.mode.is_exact:
        return tuple(p)
    return tuple([x if type(x) is Fraction else Fraction(x) for x in p])


def demand_sets(market: Market, p: PriceVector) -> Tuple[BangPerBuckSet, ...]:
    """Every buyer's bang-per-buck set at p, ties read at the market mode's
    tolerance: field for field what bang_per_buck(buyer, p, market.mode.tol)
    returns, at a fraction of its cost. Buyers whose sets and best ratios
    agree share one (immutable) set.

    Exact mode compares in integers. p is scaled to integers once per call,
    p_j = P_j / Q, and each buyer's values once per market, v_j = V_j / D
    (Market._integer_values). With L the least common multiple of the P_j,
    v_j / p_j = V_j (L / P_j) Q / (D L): a buyer's ratios order as its
    scores V_j (L / P_j), so v_j / p_j > v_k / p_k exactly when
    V_j P_k > V_k P_j, and the best ratio beats money's 1 exactly when the
    top score times Q exceeds D L. Only a best ratio above 1 is divided
    out, as max_ratio. The prices are read with read_prices, as the clearing
    checks read them (a float as the rational it is), so the sets are
    bang_per_buck's at those Fractions and every max_ratio is exact.

    Float mode is one numpy pass with bang_per_buck's own operations, v / p
    and then (1 - tol) * best, so its sets and ratios are the same floats.
    """
    p = read_prices(market, p)
    if not market.mode.is_exact:
        return _float_demand_sets(market, p)
    unit, prices = scale_to_integers(p)
    lcm = math.lcm(*prices)
    weights = [lcm // price for price in prices]
    only_money = BangPerBuckSet(frozenset({MONEY}), 1)
    shared = {}
    sets = []
    for den, values in market._integer_values:
        scores = [v * w for v, w in zip(values, weights)]
        top = max(scores)
        above = top * unit - den * lcm
        if above < 0:
            sets.append(only_money)
            continue
        tied = tuple(j for j, score in enumerate(scores, 1) if score == top)
        key = (tied, top, den)
        bpb = shared.get(key)
        if bpb is None:
            if above:
                bpb = BangPerBuckSet(frozenset(tied), Fraction(top * unit, den * lcm))
            else:
                bpb = BangPerBuckSet(frozenset((MONEY,) + tied), 1)
            shared[key] = bpb
        sets.append(bpb)
    return tuple(sets)


def float_demand(market: Market, p: np.ndarray):
    """Float mode's tie band over an (n, ...) array of price vectors, goods
    first, with bang_per_buck's own operations: ratios v / p, best = their
    maximum, and the cutoff (1 - tol) * max(best, 1). Returns best (m, ...),
    the goods each buyer demands, those with a ratio at or above the cutoff
    (n, m, ...), and whether money's ratio 1 is (m, ...). Each good's ratios
    form one (m, ...) plane, so the divisions run along the trailing price
    axes and best is an elementwise maximum over the n planes."""
    values = market._float_values.reshape(market.n, market.m, *(1,) * (p.ndim - 1))
    ratios = values / p[:, None]
    best = ratios.max(axis=0)
    cutoff = (1 - market.mode.tol) * np.maximum(best, 1.0)
    return best, ratios >= cutoff, cutoff <= 1


def _float_demand_sets(market: Market, p: PriceVector):
    best, demanded, money = float_demand(market, np.array(p, dtype=np.float64))
    width = market.n + 1
    rows = np.column_stack((money, demanded.T)).tobytes()  # money, then goods 1..n
    shared = {}
    sets = []
    for start, ratio in zip(range(0, len(rows), width), best.tolist()):
        key = (rows[start:start + width], ratio)
        bpb = shared.get(key)
        if bpb is None:
            goods = frozenset(j for j, on in enumerate(key[0]) if on)
            bpb = shared[key] = BangPerBuckSet(goods, ratio if ratio > 1 else 1)
        sets.append(bpb)
    return tuple(sets)


def demand_vertices(buyer: Buyer, p: PriceVector, tol: Number = 0) -> Tuple[Bundle, ...]:
    """Extreme points of the demanded set: one spike per maximizing good, plus
    the zero bundle when money maximizes. The demanded set is their convex hull."""
    bpb = bang_per_buck(buyer, p, tol)
    n = len(p)
    vertices = []
    if MONEY in bpb.goods:
        vertices.append(tuple(0 * v for v in p))
    for j in sorted(bpb.goods - {MONEY}):
        spike = [0 * v for v in p]
        spike[j - 1] = buyer.budget / p[j - 1]
        vertices.append(tuple(spike))
    return tuple(vertices)


def is_demanded(buyer: Buyer, p: PriceVector, x: Bundle, tol: Number = 0) -> bool:
    """Membership test for the demand correspondence.

    True iff (a) positive quantities only on bang-per-buck goods, (b) spend
    does not exceed the budget, and (c) the budget is exhausted whenever money
    is not a maximizer. Comparisons use a slack of tol * budget, which
    scales with the buyer's money.
    """
    return _admits(bang_per_buck(buyer, p, tol), buyer.budget, p, x, tol)


def _admits(bpb: BangPerBuckSet, budget: Number, p: PriceVector, x: Bundle, tol: Number) -> bool:
    """is_demanded's test of bundle x, given the buyer's bang-per-buck set
    bpb at p."""
    if len(x) != len(p):
        return False
    slack = tol * budget
    spend = 0
    for j, (price, qty) in enumerate(zip(p, x), start=1):
        if qty < -slack:
            return False
        cost = price * qty
        spend += cost
        if cost > slack and j not in bpb.goods:
            return False
    if spend > budget + slack:
        return False
    if bpb.strict and spend < budget - slack:
        return False
    return True


def outcome_is_feasible(market: Market, p: PriceVector, allocation: Allocation) -> bool:
    """Def.-style outcome check: aggregate within supply and every bundle demanded.

    p is read with read_prices before anything else, so it must be positive
    and finite with one entry per good, else PriceDomainError, and a float
    price on an exact market is the rational it is, as the flow checks read
    it. Every buyer's set comes from one demand_sets pass, and each bundle
    is then held to is_demanded's test at the mode's tolerance. A good's
    total may top its supply by tol * supply: both slacks scale with the
    amount they bound, so a market's verdicts do not depend on its units.
    """
    p = read_prices(market, p)
    tol = market.mode.tol
    if len(allocation) != market.m:
        return False
    totals = aggregate(allocation, market.n)
    for total, good in zip(totals, market.goods):
        if total > good.supply + tol * good.supply:
            return False
    return all(
        _admits(bpb, buyer.budget, p, bundle, tol)
        for bpb, buyer, bundle in zip(demand_sets(market, p), market.buyers, allocation)
    )


def aggregate(allocation: Allocation, n: int) -> Bundle:
    totals = [0] * n
    for bundle in allocation:
        for k in range(n):
            totals[k] = totals[k] + bundle[k]
    return tuple(totals)


def zero_bundle(market: Market) -> Bundle:
    zero = market.mode.coerce(0)
    return tuple(zero for _ in range(market.n))
