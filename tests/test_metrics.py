"""Revenue, welfare, and the equilibrium / efficiency certificates."""

import random
from fractions import Fraction

import pytest

from qfmarket.feasibility import check_clearing, check_feasible
from qfmarket.market import Buyer, Good, Market, MarketError, Outcome
from qfmarket.metrics import (
    VERDICT_CERTIFIED,
    VERDICT_NOT_CE,
    ChallengerRejectedError,
    certify_constrained_efficiency,
    eq1_slack,
    is_competitive_equilibrium,
    revenue,
    social_welfare,
)
from qfmarket.numeric import EXACT, float_mode

F = Fraction

MINIMAL = (F(3, 5), F(3, 5))


def _equilibrium(ref_exact) -> Outcome:
    return Outcome(MINIMAL, check_clearing(ref_exact, MINIMAL).allocation)


def test_revenue_is_price_dot_aggregate(ref_exact):
    out = _equilibrium(ref_exact)
    assert revenue(out) == F(3)
    assert revenue(Outcome(MINIMAL, ((F(0), F(0)),) * 3)) == 0


def test_social_welfare(ref_exact):
    out = _equilibrium(ref_exact)
    assert social_welfare(ref_exact, out.allocation) == F(15)
    with pytest.raises(MarketError):
        social_welfare(ref_exact, out.allocation[:2])


def test_social_welfare_with_callable_valuations():
    market = Market((Good("A", F(4)),), (Buyer("b", (F(1),), F(2)),), EXACT)
    allocation = ((F(4),),)
    assert social_welfare(market, allocation) == F(4)


def test_is_competitive_equilibrium(ref_exact):
    assert is_competitive_equilibrium(ref_exact, _equilibrium(ref_exact))
    # feasible but leaves supply unsold at positive prices
    loose = Outcome((F(2), F(2)), check_feasible(ref_exact, (F(2), F(2))).allocation)
    assert not is_competitive_equilibrium(ref_exact, loose)
    # infeasible outright
    assert not is_competitive_equilibrium(
        ref_exact, Outcome(MINIMAL, ((F(9), F(9)),) * 3)
    )


def test_an_equilibrium_sells_out_at_any_money_scale(ref_exact):
    """The reference market in floats with money scaled by 1e-12, so p* is
    (6e-13, 6e-13): every good must still sell out. A guard that excused
    goods priced at or below the absolute 1e-9 from selling out used to
    pass the outcome that sells nothing."""
    scale = 1e-12
    market = Market(
        tuple(Good(g.name, float(g.supply)) for g in ref_exact.goods),
        tuple(
            Buyer(b.name, tuple(float(v) * scale for v in b.values), float(b.budget) * scale)
            for b in ref_exact.buyers
        ),
        float_mode(),
    )
    p = tuple(float(v) * scale for v in MINIMAL)
    allocation = tuple(
        tuple(map(float, bundle)) for bundle in _equilibrium(ref_exact).allocation
    )
    assert is_competitive_equilibrium(market, Outcome(p, allocation))
    assert not is_competitive_equilibrium(market, Outcome(p, ((0.0, 0.0),) * 3))


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
def test_an_equilibrium_sells_out_at_any_supply_scale(s):
    """Goods of supply s at price 1, one buyer valuing each at 1 with budget
    10, so any affordable bundle is demanded and only the sell-out test can
    refuse one. With its slack floored at 1 unit, at s = 1e-12 the outcome
    that sells nothing passed as an equilibrium."""
    market = Market((Good("a", s), Good("b", s)), (Buyer("x", (1.0, 1.0), 10.0),), float_mode())
    assert is_competitive_equilibrium(market, Outcome((1.0, 1.0), ((s, s),)))
    assert not is_competitive_equilibrium(market, Outcome((1.0, 1.0), ((0.0, 0.0),)))
    assert not is_competitive_equilibrium(market, Outcome((1.0, 1.0), ((s, s / 2),)))


def test_eq1_slack_nonnegative_against_feasible_challengers(ref_exact):
    subject = _equilibrium(ref_exact)
    for q in ((F(1), F(1)), (F(2), F(2)), (F(7, 10), F(21, 20))):
        challenger = check_feasible(ref_exact, q).allocation
        assert eq1_slack(ref_exact, subject, challenger) >= 0


def test_certify_constrained_efficiency(ref_exact):
    subject = _equilibrium(ref_exact)
    challengers = (
        Outcome((F(1), F(1)), check_feasible(ref_exact, (F(1), F(1))).allocation),
        Outcome((F(2), F(2)), check_feasible(ref_exact, (F(2), F(2))).allocation),
    )
    cert = certify_constrained_efficiency(ref_exact, subject, challengers)
    assert cert.verdict == VERDICT_CERTIFIED and cert.certified
    assert cert.welfare == F(15)
    assert len(cert.slacks) == 2
    assert cert.min_slack == min(cert.slacks) >= 0


@pytest.mark.parametrize("s", [1.0, 1e8, 1e12])
def test_certify_bounds_slacks_by_the_welfare_in_play(s):
    """Goods A and B of supply 1 and two buyers valuing both at 2s with budget
    s: p* = (s, s), and every split ((a, 1 - a), (1 - a, a)) is a feasible
    outcome there with the same welfare, so each slack is 0 up to rounding.
    Against the absolute bound -tol, rounding refused the equilibrium at
    s = 1e8 (slacks of -5.96e-8) and at s = 1e12 (-4.9e-4)."""
    market = Market(
        (Good("A", 1.0), Good("B", 1.0)),
        (Buyer("b1", (2 * s, 2 * s), s), Buyer("b2", (2 * s, 2 * s), s)),
        float_mode(),
    )
    p = (s, s)
    subject = Outcome(p, ((1.0, 0.0), (0.0, 1.0)))
    rng = random.Random(0)
    challengers = []
    for _ in range(200):
        a = rng.random()
        challengers.append(Outcome(p, ((a, 1 - a), (1 - a, a))))
    cert = certify_constrained_efficiency(market, subject, challengers)
    assert cert.verdict == VERDICT_CERTIFIED
    assert cert.welfare == 4 * s
    assert abs(cert.min_slack) <= 1e-15 * cert.welfare


def test_certify_rejects_non_equilibrium_outcomes(ref_exact):
    loose = Outcome((F(2), F(2)), check_feasible(ref_exact, (F(2), F(2))).allocation)
    cert = certify_constrained_efficiency(ref_exact, loose)
    assert cert.verdict == VERDICT_NOT_CE and not cert.certified
    assert cert.min_slack is None


def test_certify_refuses_an_outcome_that_a_challenger_out_earns():
    """At price 1, b2 values good A at 0.5 and so demands only money, yet
    the float budget check admits purchases up to tol * its budget of 1e12:
    the outcome that sells b2 one unit passes as an equilibrium. Leaving
    that unit unsold loses b2's welfare 0.5 but saves the payment 1, a slack
    of -0.5, far below the bound, so the verdict is refused."""
    market = Market(
        (Good("A", 2.0),),
        (Buyer("b1", (1000.0,), 1.0), Buyer("b2", (0.5,), 1e12)),
        float_mode(),
    )
    subject = Outcome((1.0,), ((1.0,), (1.0,)))
    challenger = Outcome((1.0,), ((1.0,), (0.0,)))
    assert is_competitive_equilibrium(market, subject)
    cert = certify_constrained_efficiency(market, subject, (challenger,))
    assert cert.verdict == VERDICT_NOT_CE
    assert cert.slacks == (-0.5,) and cert.min_slack == -0.5


def test_certify_rejects_infeasible_challengers_by_index(ref_exact):
    subject = _equilibrium(ref_exact)
    bad = Outcome((F(1, 2), F(1, 2)), ((F(9), F(9)),) * 3)
    with pytest.raises(ChallengerRejectedError) as err:
        certify_constrained_efficiency(ref_exact, subject, (subject, bad))
    assert err.value.index == 1


@pytest.mark.parametrize("prices", [MINIMAL[:1], MINIMAL + MINIMAL[:1]])
def test_certify_rejects_challengers_with_prices_of_the_wrong_length(ref_exact, prices):
    subject = _equilibrium(ref_exact)
    bad = Outcome(prices, subject.allocation)
    with pytest.raises(ChallengerRejectedError) as err:
        certify_constrained_efficiency(ref_exact, subject, (subject, bad))
    assert err.value.index == 1
