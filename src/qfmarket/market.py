"""Core market types and the budget-constrained demand correspondence.

Conventions used throughout the package:

* goods are indexed 1..n in bang-per-buck sets; index 0 is the implicit money
  good with price 1 and per-unit value 1 for every buyer. Money is never
  stored in vectors.
* vectors (supplies, values, prices, bundles) are plain tuples of length n;
  entry k belongs to good k+1.
* a buyer is "strict" at prices p if money is not among its bang-per-buck
  maximizers, in which case any demanded bundle spends the full budget.
* a demand set is a plain frozenset of 1-based goods that holds MONEY when
  money is demanded.
* market-level demand questions go through demand_patterns, which reads p
  with read_prices and groups the buyers by demand set: the flow checks read
  its groups, the descent its groups and ratio table, and demand_sets
  (which the spending graph and outcome_is_feasible read) hands each buyer
  its group's set, so a float price on an exact market is the rational it
  is in each. bang_per_buck answers for one buyer at p exactly as given,
  with a tie band of the caller's choosing. No module calls it: it is the
  single-buyer reference that tests hold demand_sets to.
* demand has one formula in both modes, demand_lattice: a table of ratios,
  v / p in floats or, in exact mode, integers that are the ratios times one
  positive integer per price point, then bang_per_buck's tie band. The
  demand sets, the flow checks, the descent's events and the grid scans
  all read their ratios there. demand_patterns reads it at one price, and
  grid scans across a whole lattice whose prices they scaled to integers
  once (mode_array).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .numeric import EXACT, Number, NumericMode, format_number, scale_to_integers

__all__ = [
    "Buyer",
    "Good",
    "MONEY",
    "Market",
    "MarketError",
    "Outcome",
    "PriceDomainError",
    "aggregate",
    "bang_per_buck",
    "demand_sets",
    "outcome_is_feasible",
    "require_valid",
    "strip_worthless_goods",
    "validate_market",
]

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
    """A price vector had an entry that is not positive and finite (on a
    float market, one without a finite float bang-per-buck ratio: beyond
    the float range, or too small), or not one entry per good;
    bang-per-buck ratios are undefined there."""


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
    that demand_lattice reads (float_values, and in exact mode one integer
    table), an exact market's budgets as ints over one denominator (which
    the clearing checks route and certified rounding sums), and a float
    market's rational twin are kept the same way, one per object.
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
        coerce = mode.coerce
        goods = tuple([Good(g.name, coerce(g.supply)) for g in self.goods])
        buyers = tuple([
            Buyer(b.name, tuple([coerce(v) for v in b.values]), coerce(b.budget))
            for b in self.buyers
        ])
        return Market(goods, buyers, mode)

    @cached_property
    def violations(self) -> Tuple[str, ...]:
        """Every broken type invariant (empty = valid)."""
        return tuple(_violations(self))

    @cached_property
    def float_values(self) -> np.ndarray:
        """The values as a read-only n x m float table, goods first, each
        read with float(): the table float-mode demand divides and
        proportional response reads (as its transpose). OverflowError when
        a value lies beyond the float range."""
        rows = np.array([b.values for b in self.buyers], dtype=np.float64).reshape(self.m, self.n)
        values = np.ascontiguousarray(rows.T)
        values.flags.writeable = False
        return values

    @cached_property
    def _integer_values(self) -> Tuple[int, np.ndarray]:
        """(D, V): every value as V / D over one market-wide denominator D,
        V an n x m table of Python ints, goods first, which exact demand
        multiplies. A valid exact market's values are ints and Fractions
        (see validate_market)."""
        unit, scaled = scale_to_integers([v for b in self.buyers for v in b.values])
        return unit, np.array(scaled, dtype=object).reshape(self.m, self.n).T

    @cached_property
    def _integer_budgets(self) -> Tuple[int, Tuple[int, ...]]:
        """See integer_budgets."""
        unit, scaled = scale_to_integers([b.budget for b in self.buyers])
        return unit, tuple(scaled)

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


# float() converts an int exactly when its size is below this; a larger one
# is beyond the float range.
_FLOAT_INTS = 2**1024 - 2**970


def _violations(market: Market) -> list:
    """The validation body behind Market.violations."""
    violations = []
    exact = market.mode.is_exact

    def check(x, owner, what, shown=True) -> bool:
        # An exact market holds ints (not bools) and Fractions only, a float
        # market ints (not bools) within the float range and floats, numpy's
        # float64 among them. Each number's type decides its test: an int or
        # a Fraction is finite, and a float is finite and nonnegative exactly
        # when 0.0 <= x < inf, so only a failing float is asked which
        # message it gets. Returns whether x's type passed, so that x may
        # be compared with a number.
        kind = type(x)
        if exact:
            if kind is not int and kind is not Fraction:
                violations.append(f"{owner}: {what} {x!r} is not an int or a Fraction in an exact market")
                return False
            if x.numerator < 0:
                violations.append(f"{owner}: negative {what}" + f" {x}" * shown)
        elif kind is float or (kind is not int and isinstance(x, float)):
            if not 0.0 <= x < math.inf:
                problem = "negative" if -math.inf < x < 0 else "non-finite"
                violations.append(f"{owner}: {problem} {what}" + f" {x}" * shown)
        elif kind is not int:
            violations.append(f"{owner}: {what} {x!r} is not an int or a float in a float market")
            return False
        elif x < 0:
            violations.append(f"{owner}: negative {what}" + f" {x}" * shown)
        elif x >= _FLOAT_INTS:
            violations.append(
                f"{owner}: {what} {format_number(x)} is beyond the float range in a float market"
            )
        return True

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
    # Whether some buyer values good k: a positive value, or one that failed
    # its type check, which is reported once, as that, and not compared; a
    # row of the wrong length is reported once too, as its length.
    valued = [False] * market.n
    for b in market.buyers:
        if len(b.values) != market.n:
            violations.append(
                f"buyer {b.name}: {len(b.values)} values for {market.n} goods"
            )
            valued = [True] * market.n
            continue
        owner = f"buyer {b.name}"
        check(b.budget, owner, "budget")
        for k, (v, what) in enumerate(zip(b.values, value_of)):
            if not check(v, owner, what, False) or v > 0:
                valued[k] = True
    for g, some in zip(market.goods, valued):
        if not some:
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
    """Drop goods valued 0 by every buyer (the caller's explicit modeling
    action). A value that cannot be compared with 0, such as None or a
    string, keeps its good, so that validate_market reports that value by
    its type. A buyer whose row holds more or fewer values than there are
    goods leaves the market whole, so that validate_market reports the
    row's length."""
    if any(len(b.values) != market.n for b in market.buyers):
        return market

    def valued(v) -> bool:
        try:
            return v > 0
        except TypeError:
            return True

    keep = [
        k for k in range(market.n) if any(valued(b.values[k]) for b in market.buyers)
    ]
    goods = tuple(market.goods[k] for k in keep)
    buyers = tuple(
        Buyer(b.name, tuple(b.values[k] for k in keep), b.budget) for b in market.buyers
    )
    return Market(goods, buyers, market.mode)


def bang_per_buck(buyer: Buyer, p: PriceVector, tol: Number = 0) -> frozenset:
    """Bang-per-buck maximizer set of one buyer: a frozenset of 1-based
    goods that holds MONEY when money is among them.

    Money (index 0, ratio 1) always competes, so the best ratio is
    max(1, max_j v_j / p_j). A good j is included whenever v_j / p_j >=
    (1 - tol) * best, so tol = 0 gives the exact argmax and a small relative
    tol makes boundary ties reproducible in float mode.

    No module calls it: it is the single-buyer reference that the tests hold
    demand_sets to, and the benchmark traces it. A buyer with a float value
    refuses a price without a finite float ratio v / p (see
    _check_float_ratios) with PriceDomainError, as read_prices does on a
    float market; an exact buyer reads any positive price.
    """
    check_prices(p, len(buyer.values))
    if any(isinstance(v, float) for v in buyer.values):
        _check_float_ratios("a price for a float-valued buyer", buyer.values, p)
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
    return frozenset(members)


def check_prices(p: PriceVector, n: int) -> None:
    """PriceDomainError unless p holds n positive, finite prices. A Fraction
    of any size is finite, so only its sign is read (its denominator is
    positive); any other entry must lie in 0 < x < inf."""
    if len(p) != n:
        raise PriceDomainError(f"{len(p)} prices for {n} goods")
    for entry in p:
        if not (entry.numerator > 0 if type(entry) is Fraction else 0 < entry < math.inf):
            raise PriceDomainError(f"undefined ratio: price {entry} is not positive and finite")


def _check_float_ratios(what: str, values, p: PriceVector) -> None:
    """PriceDomainError unless each positive price p_j has a finite float
    ratio values[j] / p_j, values[j] being the largest value on good j (or
    one buyer's value). A price beyond the float range has no float; one
    that reads as 0.0 (Fraction(1, 10**400)), or one so small that the
    ratio overflows (1e-320 under a value of 1.0), has an infinite ratio.
    A float quotient overflows to inf without raising, so the test reads
    the quotient that float-mode demand would divide out."""
    if max(p) > sys.float_info.max:
        raise PriceDomainError(f"{what} is beyond the float range")
    for v, x in zip(values, p):
        f = float(x)
        if f == 0 or v / f == math.inf:
            raise PriceDomainError(f"{what} is too small: a bang-per-buck ratio overflows")


def read_prices(market: Market, p: PriceVector) -> PriceVector:
    """p as every check of `market` reads it, once check_prices passes: each
    entry as the rational it is, Fraction(x), in exact mode (a float
    included, and a Fraction kept as it is), and as given in float mode,
    where a price without a finite float ratio to its good's values raises
    PriceDomainError too (see _check_float_ratios)."""
    check_prices(p, market.n)
    if not market.mode.is_exact:
        _check_float_ratios("a price of a float market", market.float_values.max(axis=1).tolist(), p)
        return tuple(p)
    return tuple([x if type(x) is Fraction else Fraction(x) for x in p])


def demand_patterns(market: Market, p: PriceVector):
    """(prices, ratios, best, patterns): every buyer's demand at p, grouped
    by demand pattern, the one grouping that demand_sets, the flow checks
    and the descent read.

    prices is p as read_prices reads it (a float on an exact market is the
    rational it is, as every check reads it). ratios (n + 1, m) and best
    (m,) are demand_lattice's numpy arrays at that one point, in exact mode
    after scaling the prices to integers P / unit (mode_array), so any two
    entries of one buyer compare as the ratios do. patterns maps each
    distinct demand set, a frozenset of 1-based goods that holds MONEY when
    money is demanded, to its buyers' indices in buyer order. Buyers are
    grouped by the bytes of their rows of demand_lattice's table, so each
    distinct set is built once.
    """
    prices = read_prices(market, p)
    unit, scaled = mode_array(market, prices)
    ratios, best, demanded = demand_lattice(market, scaled, unit)
    width = market.n + 1
    rows = demanded.T.tobytes()  # per buyer: money, then goods 1..n
    by_row = {}
    for i, start in enumerate(range(0, len(rows), width)):
        by_row.setdefault(rows[start:start + width], []).append(i)
    patterns = {
        frozenset(j for j, on in enumerate(row) if on): buyers for row, buyers in by_row.items()
    }
    return prices, ratios, best, patterns


def demand_sets(market: Market, p: PriceVector) -> Tuple[frozenset, ...]:
    """Every buyer's bang-per-buck set at p, ties read at the market mode's
    tolerance: what bang_per_buck(buyer, p, market.mode.tol) returns, at a
    fraction of its cost. The sets are demand_patterns' (p read with
    read_prices, as the clearing checks read it), and the buyers of one
    pattern share its frozenset.
    """
    sets = [None] * market.m
    for goods, buyers in demand_patterns(market, p)[3].items():
        for i in buyers:
            sets[i] = goods
    return tuple(sets)


def integer_budgets(market: Market) -> Tuple[int, Tuple[int, ...]]:
    """(U, B): a valid exact market's budgets as B_i / U over one
    market-wide denominator U, their least common denominator, B a tuple of
    Python ints in buyer order (see scale_to_integers). It is worked out
    once per market and kept: the demand patterns of the flow checks and of
    the descent, and certified rounding, sum budgets on this scale."""
    return market._integer_budgets


def mode_array(market: Market, numbers) -> Tuple[Number, np.ndarray]:
    """(unit, array): numbers as demand_lattice reads them, Python ints
    times their least common denominator `unit` in exact mode (see
    scale_to_integers), and floats with unit 1 in float mode."""
    if market.mode.is_exact:
        unit, numbers = scale_to_integers(numbers)
        return unit, np.array(numbers, dtype=object)
    return 1, np.array(numbers, dtype=np.float64)


def demand_lattice(market: Market, prices: np.ndarray, unit):
    """Every buyer's demand at each point of an (n, ...) array of price
    vectors, goods first (a single vector is an (n,) array), by the one
    demand formula of both modes: a ratio table, then the tie band. The
    caller has validated the market and read the prices. Returns ratios
    (n + 1, m, ...), the ratio table; best (m, ...), each buyer's largest
    ratio, money's included; and demanded (n + 1, m, ...), whether each
    buyer demands money (row 0) and each good (rows 1..n).

    The ratio table holds money's ratio in row 0 and v_ij / p_j in row j,
    all times one positive number per price point, so that order and ties
    are the ratios' own, and ratios[j] / best is buyer i's ratio for option
    j over its best ratio, max(1, max_j v_ij / p_j). Float mode takes float
    prices and keeps bang_per_buck's own v / p and money's 1.0. Exact mode
    takes Python ints P over one common `unit` (p = P / unit), reads the
    values as V / D over one market-wide denominator
    (Market._integer_values) and scales by D * prod(P) / unit, so no
    division is left: the ratio of good j is V_ij * unit * prod_{l != j} P_l
    and money's is D * prod(P), all Python ints. The products run along the
    goods axis (math.prod of an (n, ...) array multiplies its rows).

    The tie band is bang_per_buck's: the cutoff is best times (1 - tol), a
    pass skipped at tol 0, and a ratio at or above it is demanded.
    """
    n, m = market.n, market.m
    ratios = np.empty((n + 1, m) + prices.shape[1:], dtype=prices.dtype)  # money first
    values_shape = (n, m) + (1,) * (prices.ndim - 1)  # broadcast along the price points
    if market.mode.is_exact:
        den, values = market._integer_values
        total = math.prod(prices)
        ratios[0] = den * total
        np.multiply(values.reshape(values_shape), (unit * total // prices)[:, None], out=ratios[1:])
    else:
        ratios[0] = 1.0
        np.divide(market.float_values.reshape(values_shape), prices[:, None], out=ratios[1:])
    best = ratios.max(axis=0)
    tol = market.mode.tol
    cutoff = (1 - tol) * best if tol else best
    return ratios, best, ratios >= cutoff


def _admits(goods: frozenset, budget: Number, p: PriceVector, x: Bundle, tol: Number) -> bool:
    """Whether bundle x is demanded at p by a buyer with this budget and
    bang-per-buck set `goods`: (a) positive quantities only on its goods,
    (b) spend within the budget, and (c) the budget spent whenever money is
    not in the set. Comparisons use a slack of tol * budget, which scales with the
    buyer's money. outcome_is_feasible asks it, at the mode's tolerance, for
    the package's one answer to "is this bundle demanded". x holds one
    quantity per good."""
    slack = tol * budget
    spend = 0
    for j, (price, qty) in enumerate(zip(p, x), start=1):
        if qty < -slack:
            return False
        cost = price * qty
        spend += cost
        if cost > slack and j not in goods:
            return False
    if spend > budget + slack:
        return False
    if MONEY not in goods and spend < budget - slack:
        return False
    return True


def outcome_is_feasible(market: Market, p: PriceVector, allocation: Allocation) -> bool:
    """Def.-style outcome check: aggregate within supply and every bundle demanded.

    p is read with read_prices before anything else, so it must be positive
    and finite with one entry per good, else PriceDomainError, and a float
    price on an exact market is the rational it is, as the flow checks read
    it. Every buyer's set comes from one demand_sets pass, and each bundle
    is then held to _admits's test at the mode's tolerance. A good's
    total may top its supply by tol * supply: both slacks scale with the
    amount they bound, so a market's verdicts do not depend on its units.
    An allocation without one bundle per buyer, or a bundle without one
    quantity per good, is not feasible.
    """
    p = read_prices(market, p)
    tol = market.mode.tol
    if len(allocation) != market.m or any(len(x) != market.n for x in allocation):
        return False
    totals = aggregate(allocation, market.n)
    for total, good in zip(totals, market.goods):
        if total > good.supply + tol * good.supply:
            return False
    return all(
        _admits(goods, buyer.budget, p, bundle, tol)
        for goods, buyer, bundle in zip(demand_sets(market, p), market.buyers, allocation)
    )


def aggregate(allocation: Allocation, n: int) -> Bundle:
    totals = [0] * n
    for bundle in allocation:
        for k in range(n):
            totals[k] = totals[k] + bundle[k]
    return tuple(totals)

