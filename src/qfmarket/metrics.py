"""Revenue, social welfare, and equilibrium / efficiency certificates.

An outcome is a competitive equilibrium when it is feasible and sells out
every positively priced good. For budget-constrained quasi-linear buyers this
is equivalent to constrained efficiency, so the certificate here is
structural: verify the equilibrium conditions, and report welfare slacks
against challenger outcomes as corroborating evidence rather than proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .market import Allocation, Market, MarketError, Outcome, aggregate, outcome_is_feasible
from .numeric import Number

__all__ = [
    "ChallengerRejectedError",
    "EfficiencyCertificate",
    "certify_constrained_efficiency",
    "eq1_slack",
    "is_competitive_equilibrium",
    "revenue",
    "social_welfare",
]

VERDICT_CERTIFIED = "certified-CE-hence-efficient"
VERDICT_NOT_CE = "not-CE"


class ChallengerRejectedError(MarketError):
    """A challenger outcome handed to the efficiency certifier is infeasible."""

    def __init__(self, index: int):
        super().__init__(f"challenger {index} is not a feasible outcome")
        self.index = index


@dataclass(frozen=True)
class EfficiencyCertificate:
    verdict: str
    welfare: Number
    slacks: Tuple[Number, ...]  # Eq.-style welfare-minus-payment margins, one per challenger
    min_slack: Optional[Number]

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def revenue(outcome: Outcome) -> Number:
    """Total money the seller collects: p . (sum over buyers of x_i), each
    price times its good's aggregate sales, summed good by good (the one
    revenue formula; solve reports it for its clearing outcome)."""
    total = 0
    for price, qty in zip(outcome.prices, aggregate(outcome.allocation, len(outcome.prices))):
        total = total + price * qty
    return total


def social_welfare(market: Market, allocation: Allocation) -> Number:
    """Sum of buyer valuations of their bundles: buyer i contributes v_i . x_i."""
    if len(allocation) != market.m:
        raise MarketError("allocation size does not match buyer count")
    total = 0
    for buyer, bundle in zip(market.buyers, allocation):
        for v, qty in zip(buyer.values, bundle):
            total = total + v * qty
    return total


def is_competitive_equilibrium(market: Market, outcome: Outcome) -> bool:
    """True iff the outcome is feasible and sells out every good, each to
    within tol * its supply: every price is positive once
    outcome_is_feasible has read it."""
    tol = market.mode.tol
    if not outcome_is_feasible(market, outcome.prices, outcome.allocation):
        return False
    totals = aggregate(outcome.allocation, market.n)
    return all(
        good.supply - total <= tol * good.supply
        for total, good in zip(totals, market.goods)
    )


def eq1_slack(market: Market, subject: Outcome, challenger_allocation: Allocation) -> Number:
    """Welfare advantage of the subject minus the payment difference.

    Quasi-linearity gives welfare(x) - welfare(y) >= p . (agg x - agg y) for a
    competitive equilibrium (p, x) against any feasible allocation y, and the
    right side is itself >= 0 when x clears the market. The slack is the gap
    between the two sides; nonnegative slack for every challenger is evidence
    of constrained efficiency.
    """
    diff = social_welfare(market, subject.allocation) - social_welfare(
        market, challenger_allocation
    )
    agg_x = aggregate(subject.allocation, market.n)
    agg_y = aggregate(challenger_allocation, market.n)
    payment = 0
    for price, a, b in zip(subject.prices, agg_x, agg_y):
        payment = payment + price * (a - b)
    return diff - payment


def certify_constrained_efficiency(
    market: Market,
    outcome: Outcome,
    challengers: Sequence[Outcome] = (),
) -> EfficiencyCertificate:
    """Certify the outcome efficient among feasible outcomes, or reject it.

    The verdict rests on the equilibrium check alone; challenger outcomes
    (each must be feasible with one price per good, else
    ChallengerRejectedError with its index) add recorded welfare slacks that
    a certified verdict must keep above -tol * (the outcome's welfare plus
    the challenger's), tol being the market mode's: a slack is a difference
    of welfares and payments, whose float rounding grows with the money.
    The outcome's own prices, like any price vector, raise PriceDomainError
    unless they are positive and one per good; so do a challenger's of the
    right length.
    """
    for k, ch in enumerate(challengers):
        if len(ch.prices) != market.n or not outcome_is_feasible(
            market, ch.prices, ch.allocation
        ):
            raise ChallengerRejectedError(k)
    slacks = tuple(eq1_slack(market, outcome, ch.allocation) for ch in challengers)
    min_slack = min(slacks) if slacks else None
    welfare = social_welfare(market, outcome.allocation)
    tol = market.mode.tol
    verdict = (
        VERDICT_CERTIFIED
        if is_competitive_equilibrium(market, outcome)
        else VERDICT_NOT_CE
    )
    if verdict == VERDICT_CERTIFIED and any(
        slack < -tol * (welfare + social_welfare(market, ch.allocation))
        for slack, ch in zip(slacks, challengers)
    ):
        # A genuine equilibrium cannot lose welfare to a feasible challenger;
        # reaching this line means the feasibility tolerance let a bad
        # challenger through, so refuse to certify.
        verdict = VERDICT_NOT_CE
    return EfficiencyCertificate(verdict, welfare, slacks, min_slack)
