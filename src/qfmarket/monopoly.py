"""Single buyer, single divisible good, concave valuation.

Clearing and revenue maximization stop agreeing once the valuation bends:
with v strongly concave the seller can withhold quantity, push the price up
the demand curve, and beat the clearing revenue. This module measures that
divergence for black-box valuations given as (value, derivative) callables,
and reproduces the linear case where no divergence exists.

Everything here is float arithmetic; accuracy claims ride on bisection and
golden-section tolerances rather than exact representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .market import MarketError

__all__ = [
    "ConcaveValuation",
    "DivergenceWitness",
    "MonopolyInstance",
    "clearing_price",
    "demand_single",
    "divergence_witness",
    "example_a1",
    "linear_valuation",
    "max_revenue_price",
    "revenue_at",
]

_GOLDEN = (math.sqrt(5) - 1) / 2
_PRICE_TOL = 1e-10  # max_revenue_price's relative bracket width and price floor


@dataclass(frozen=True)
class ConcaveValuation:
    """Increasing concave value function with its derivative.

    strong_concavity is the modulus m with |v'(x) - v'(y)| >= m |x - y| on
    [0, domain_hi] when the caller knows one (0 for linear valuations, None
    for unknown). It is trusted, with spot checks during root finding, not
    verified globally.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    strong_concavity: Optional[float] = None
    domain_hi: float = math.inf


@dataclass(frozen=True)
class MonopolyInstance:
    valuation: ConcaveValuation
    supply: float
    budget: float = math.inf  # math.inf: no budget constraint

    def __post_init__(self):
        if not 0 <= self.supply < math.inf:  # NaN fails too
            raise MarketError(f"supply must be finite and nonnegative, got {self.supply}")
        if not self.budget >= 0:  # inf means no budget
            raise MarketError(f"budget must be nonnegative, got {self.budget}")


@dataclass(frozen=True)
class DivergenceWitness:
    """Supply level where clearing is provably not revenue-optimal.

    Selling supply - epsilon at the corresponding demand price strictly beats
    selling everything; prop1/prop2 record which sufficient condition fired
    (prop2 is None when the budget is infinite or never binds).
    """

    supply: float
    epsilon: float
    prop1: bool
    prop2: Optional[bool]
    x_tilde: Optional[float]


def linear_valuation(v: float) -> ConcaveValuation:
    if not 0 < v < math.inf:  # NaN fails too
        raise MarketError(f"per-unit value must be positive and finite, got {v}")
    return ConcaveValuation(
        value=lambda x: v * x,
        derivative=lambda _x: v,
        strong_concavity=0.0,
    )


def example_a1() -> ConcaveValuation:
    """v(x) = 4/ln2 * (1 - 2^-x), v'(x) = 4 * 2^-x on [0, 8].

    The modulus on [0, 8] is the curvature at the right end, 4 ln2 * 2^-8,
    since |v''| decays monotonically.
    """
    ln2 = math.log(2.0)
    return ConcaveValuation(
        value=lambda x: 4.0 / ln2 * (1.0 - 2.0 ** (-x)),
        derivative=lambda x: 4.0 * 2.0 ** (-x),
        strong_concavity=4.0 * ln2 * 2.0 ** (-8.0),
        domain_hi=8.0,
    )


def _rightmost_at_or_above(f, target, hi, tol=1e-13, iters=200):
    """Largest x in [0, hi] with f(x) >= target, for decreasing f, given
    f(0) >= target > f(hi) (demand_single returns before calling it
    otherwise).

    Raises when evaluations betray non-monotonicity of f along the way.
    """
    flo = f(0.0)
    fhi = f(hi)
    lo = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid > flo + 1e-12 * max(1.0, abs(flo)) or fmid < fhi - 1e-12 * max(1.0, abs(fhi)):
            raise MarketError("derivative is not decreasing; invariant violated")
        if fmid >= target:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol * max(1.0, hi):
            break
    return (lo + hi) / 2


def demand_single(instance: MonopolyInstance, p: float) -> float:
    """Quantity demanded at price p: the smaller of the marginal-value
    crossing v'(x) = p and the budget cap beta / p; zero above v'(0)."""
    if p <= 0:
        raise MarketError("demand needs a positive price")
    deriv = instance.valuation.derivative
    if deriv(0.0) < p:
        return 0.0
    cap = instance.budget / p
    hi = instance.valuation.domain_hi
    if not math.isfinite(hi):
        # Expand past the budget cap: beyond it, the cap decides the minimum.
        hi = max(1.0, 2.0 * cap) if math.isfinite(cap) else 1.0
        while deriv(hi) >= p and (not math.isfinite(cap) or hi <= 2.0 * cap):
            hi *= 2.0
            if hi > 1e30:
                return cap if math.isfinite(cap) else math.inf
    if deriv(hi) >= p:
        return min(hi, cap)
    root = _rightmost_at_or_above(deriv, p, hi)
    return min(root, cap)


def revenue_at(instance: MonopolyInstance, p: float) -> float:
    """Seller take at price p: p times the sold quantity min(demand, supply)."""
    return p * min(demand_single(instance, p), instance.supply)


def clearing_price(instance: MonopolyInstance) -> float:
    """The price at which the buyer demands exactly the supply.

    Candidate is min(v'(s), beta/s); the verification asks whether s lies in
    the demand set at that price, its utility within tolerance of the
    maximizing quantity's. The budget needs no check: the candidate is at
    most beta/s, so s costs beta at most up to rounding, far inside the
    tolerance (a beta/s that overflows leaves v'(s)). Demand is an
    interval wherever v has a linear stretch, so comparing utilities is the
    correct membership test; a supply past satiation fails it and raises
    instead.
    """
    s = instance.supply
    if s <= 0:
        raise MarketError("clearing price undefined for zero supply")
    candidate = instance.valuation.derivative(s)
    if math.isfinite(instance.budget):
        candidate = min(candidate, instance.budget / s)
    if candidate <= 0:
        raise MarketError(f"supply {s} exceeds satiation; no positive clearing price")
    value = instance.valuation.value
    best_qty = min(demand_single(instance, candidate), s + 1.0)
    slack = 1e-9 * max(1.0, abs(value(best_qty)), candidate * s)
    utility_gap = (value(best_qty) - candidate * best_qty) - (value(s) - candidate * s)
    if utility_gap > slack:
        raise MarketError(
            f"supply {s} is outside the demand range at price {candidate}"
        )
    return candidate


def max_revenue_price(instance: MonopolyInstance):
    """Revenue-optimal price: (price, quantity, revenue).

    Coarse scan of [v'(s), v'(0)] picks a bracket, golden-section search
    refines it, and a final leftward bisection walks revenue plateaus to
    their smallest price, where the seller also clears whenever the two
    objectives coincide.
    """
    deriv = instance.valuation.derivative
    sell_out = deriv(min(instance.supply, instance.valuation.domain_hi))
    # Below beta/s the budget caps demand under the supply, so revenue is
    # p * s only up to min(v'(s), beta/s); the scan must start there.
    if math.isfinite(instance.budget) and instance.supply > 0:
        sell_out = min(sell_out, instance.budget / instance.supply)
    lo = max(sell_out, _PRICE_TOL)
    hi = deriv(0.0)
    if hi <= lo:
        price = hi if hi > 0 else lo
        return price, min(demand_single(instance, price), instance.supply), revenue_at(instance, price)

    samples = 64
    grid = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    best = max(range(samples + 1), key=lambda k: revenue_at(instance, grid[k]))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, samples)]

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = revenue_at(instance, c), revenue_at(instance, d)
    while b - a > _PRICE_TOL * max(1.0, b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = revenue_at(instance, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = revenue_at(instance, d)
    peak_price = (a + b) / 2
    peak_revenue = revenue_at(instance, peak_price)

    # Walk to the left end of the optimal plateau.
    threshold = peak_revenue - max(1e-12, 1e-12 * peak_revenue)
    left, right = lo, peak_price
    if revenue_at(instance, left) >= threshold:
        right = left
    for _ in range(200):
        if right - left <= _PRICE_TOL * max(1.0, right):
            break
        mid = (left + right) / 2
        if revenue_at(instance, mid) >= threshold:
            right = mid
        else:
            left = mid
    price = right
    qty = min(demand_single(instance, price), instance.supply)
    return price, qty, price * qty


def divergence_witness(
    valuation: ConcaveValuation, budget: float = math.inf
) -> Optional[DivergenceWitness]:
    """Search for a supply where clearing revenue is beaten by withholding.

    Scans upward for s with v'(s) < m s (the strong-concavity condition);
    with a finite budget also evaluates the alternative condition
    m > v'(x_tilde) / x_tilde at the budget-exhaustion point
    x_tilde v'(x_tilde) = budget. The returned epsilon satisfies the strict
    revenue inequality v'(s - eps) (s - eps) > v'(s) s, checked numerically
    before returning. None when no condition fires inside the bounds.
    """
    m = valuation.strong_concavity
    if m is None:
        raise MarketError("divergence search needs a strong-concavity parameter")
    deriv = valuation.derivative
    if m <= 0:
        return None
    hi = min(valuation.domain_hi, deriv(0.0) / m)
    if not math.isfinite(hi) or hi <= 0:
        return None

    def spend(x):
        return x * deriv(x)

    grid = [hi * k / 512 for k in range(1, 513)]
    x_tilde = None
    prop2 = None
    x_max = hi
    if math.isfinite(budget):
        spent = [spend(x) for x in grid]
        above = [x for x, y in zip(grid, spent) if y > budget]
        inside = [x for x, y in zip(grid, spent) if y <= budget]
        x_max = max(inside) if inside else 0.0
        if above:
            if spend(hi) >= budget:
                x_tilde = hi
            else:
                # Rightmost root of x v'(x) = budget, on the falling branch.
                left, right = max(above), hi
                for _ in range(200):
                    mid = (left + right) / 2
                    if spend(mid) >= budget:
                        left = mid
                    else:
                        right = mid
                x_tilde = left
            prop2 = m > deriv(x_tilde) / x_tilde
        else:
            prop2 = False  # budget never binds in the search window

    def witness_at(s):
        eps = (m * s - deriv(s)) / (2 * m)
        if eps <= 0 or eps >= s:
            return None
        if deriv(s - eps) * (s - eps) > deriv(s) * s:
            return s, eps
        return None

    for s in grid:
        if s > x_max:
            break
        if deriv(s) < m * s:
            found = witness_at(s)
            if found:
                return DivergenceWitness(found[0], found[1], True, prop2, x_tilde)
    if prop2 and x_tilde:
        found = witness_at(x_tilde)
        if found:
            return DivergenceWitness(found[0], found[1], False, True, x_tilde)
    return None
