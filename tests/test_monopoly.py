"""Single-good concave monopoly: demand, clearing, revenue search, divergence."""

import dataclasses
import math
import random

import pytest

from qfmarket.market import MarketError
from qfmarket.monopoly import (
    ConcaveValuation,
    MonopolyInstance,
    clearing_price,
    demand_single,
    divergence_witness,
    example_a1,
    linear_valuation,
    max_revenue_price,
    revenue_at,
)


def test_linear_valuation_basics():
    lin = linear_valuation(5.0)
    assert lin.value(2.0) == 10.0
    assert lin.derivative(7.0) == 5.0
    assert lin.strong_concavity == 0.0
    with pytest.raises(MarketError):
        linear_valuation(0.0)


def test_instance_validation():
    lin = linear_valuation(1.0)
    with pytest.raises(MarketError):
        MonopolyInstance(lin, -1.0)
    with pytest.raises(MarketError):
        MonopolyInstance(lin, 1.0, -2.0)
    for supply, budget in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(MarketError):
            MonopolyInstance(lin, supply, budget)
    assert MonopolyInstance(lin, 1.0, math.inf).budget == math.inf
    for v in (math.nan, math.inf):
        with pytest.raises(MarketError, match="finite"):
            linear_valuation(v)


def test_demand_single_linear_regimes():
    inst = MonopolyInstance(linear_valuation(5.0), 3.0, 10.0)
    assert demand_single(inst, 6.0) == 0.0  # priced out
    assert demand_single(inst, 4.0) == pytest.approx(2.5)  # budget cap 10/4
    assert demand_single(inst, 5.0) == pytest.approx(2.0)  # indifferent, cap binds
    assert demand_single(MonopolyInstance(linear_valuation(5.0), 3.0), 4.0) == math.inf
    with pytest.raises(MarketError):
        demand_single(inst, 0.0)


def test_demand_single_curved():
    # v'(x) = 4 * 2^-x crosses 1 at x = 2
    assert demand_single(MonopolyInstance(example_a1(), 5.0), 1.0) == pytest.approx(2.0, abs=1e-9)
    assert demand_single(MonopolyInstance(example_a1(), 5.0, 1.0), 1.0) == pytest.approx(1.0)


def test_demand_single_detects_fake_concavity():
    def dip(x):
        return 3.0 - 1.45 * x if x <= 2.0 else 0.1 + 0.05 * (x - 2.0)

    fake = ConcaveValuation(value=lambda x: x, derivative=dip, domain_hi=4.0)
    with pytest.raises(MarketError):
        demand_single(MonopolyInstance(fake, 2.0), 1.0)


def test_clearing_price_curved_with_budget():
    inst = MonopolyInstance(example_a1(), 3.0, 2.0)
    assert clearing_price(inst) == pytest.approx(0.5, abs=1e-12)
    assert revenue_at(inst, 0.5) == pytest.approx(1.5, abs=1e-12)
    # a tighter budget moves the clearing price onto the budget kink
    tight = MonopolyInstance(example_a1(), 3.0, 1.0)
    assert clearing_price(tight) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_clearing_price_errors():
    with pytest.raises(MarketError):
        clearing_price(MonopolyInstance(linear_valuation(1.0), 0.0))
    satiating = ConcaveValuation(
        value=lambda x: min(x, 2.0),
        derivative=lambda x: 1.0 if x < 2.0 else 0.0,
        domain_hi=8.0,
    )
    with pytest.raises(MarketError):
        clearing_price(MonopolyInstance(satiating, 3.0))


def test_clearing_price_refuses_a_value_that_outruns_its_derivative():
    """The derivative says 1 everywhere but the value rises at 2, so at the
    candidate price 1 buying past the supply gains utility: the supply lies
    outside the demand range. (The affordability refusal cannot fire: the
    candidate is at most budget / supply, so its spend tops the budget by
    rounding at most, far below the check's slack.)"""
    lying = ConcaveValuation(value=lambda x: 2.0 * x, derivative=lambda x: 1.0)
    with pytest.raises(MarketError, match="outside the demand range at price 1.0"):
        clearing_price(MonopolyInstance(lying, 3.0))


def test_max_revenue_unconstrained_interior_optimum():
    price, qty, rev = max_revenue_price(MonopolyInstance(example_a1(), 3.0))
    assert price == pytest.approx(4.0 / math.e, abs=1e-4)
    assert qty == pytest.approx(1.0 / math.log(2.0), abs=1e-4)
    assert rev == pytest.approx(4.0 / (math.e * math.log(2.0)), abs=1e-4)
    # withholding strictly beats clearing here
    assert rev > revenue_at(MonopolyInstance(example_a1(), 3.0), clearing_price(MonopolyInstance(example_a1(), 3.0))) + 0.3


def test_max_revenue_budget_plateau_reports_its_left_end():
    inst = MonopolyInstance(example_a1(), 3.0, 2.0)
    price, qty, rev = max_revenue_price(inst)
    assert price == pytest.approx(1.0, abs=1e-6)
    assert qty == pytest.approx(2.0, abs=1e-6)
    assert rev == pytest.approx(2.0, abs=1e-9)
    assert revenue_at(inst, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_max_revenue_linear_coincides_with_clearing():
    rich = MonopolyInstance(linear_valuation(5.0), 3.0, 100.0)
    assert clearing_price(rich) == pytest.approx(5.0)
    assert max_revenue_price(rich) == pytest.approx((5.0, 3.0, 15.0))
    poor = MonopolyInstance(linear_valuation(5.0), 3.0, 1.2)
    price, qty, rev = max_revenue_price(poor)
    assert price == pytest.approx(0.4, abs=1e-7)
    assert qty == pytest.approx(3.0)
    assert rev == pytest.approx(1.2, abs=1e-9)


def test_random_linear_monopolies_have_no_divergence():
    rng = random.Random(17)
    for _ in range(50):
        v = rng.uniform(0.2, 8.0)
        beta = rng.uniform(0.1, 20.0)
        s = rng.uniform(0.2, 6.0)
        val = linear_valuation(v)
        target = min(v, beta / s)
        price, qty, rev = max_revenue_price(MonopolyInstance(val, s, beta))
        assert abs(price - target) <= 1e-7 * max(1.0, target)
        assert rev == pytest.approx(min(v * s, beta), rel=1e-7)
        assert clearing_price(MonopolyInstance(val, s, beta)) == pytest.approx(target)
        assert divergence_witness(val, beta) is None


def test_divergence_witness_fires_for_strongly_concave_values():
    wit = divergence_witness(example_a1())
    assert wit is not None
    assert wit.prop1 and wit.prop2 is None and wit.x_tilde is None
    assert 0 < wit.epsilon < wit.supply
    deriv = example_a1().derivative
    held = wit.supply - wit.epsilon
    assert deriv(held) * held > deriv(wit.supply) * wit.supply


def test_divergence_witness_with_a_binding_budget():
    wit = divergence_witness(example_a1(), 2.0)
    assert wit is not None and wit.prop1
    # x * v'(x) = 2 has its falling-branch root exactly at x = 2
    assert wit.x_tilde == pytest.approx(2.0, abs=1e-6)
    assert wit.prop2 is False


def test_divergence_witness_requires_a_modulus():
    anon = ConcaveValuation(value=lambda x: x, derivative=lambda x: 1.0)
    with pytest.raises(MarketError):
        divergence_witness(anon)


def _strongly_concave(derivative, m):
    """A valuation given by its derivative alone, with modulus m; the
    divergence search reads no values."""
    return ConcaveValuation(value=lambda x: 0.0, derivative=derivative, strong_concavity=m)


def test_divergence_witness_from_the_budget_exhaustion_point():
    """With budget 0.1, x v'(x) tops the budget even at the window's end
    x = 8, so x_tilde is 8; the scan stops at the last supply the budget
    affords, 1/64, and the witness comes from x_tilde (prop2)."""
    wit = divergence_witness(example_a1(), 0.1)
    assert wit is not None
    assert (wit.supply, wit.prop1, wit.prop2, wit.x_tilde) == (8.0, False, True, 8.0)
    deriv = example_a1().derivative
    held = wit.supply - wit.epsilon
    assert 0 < wit.epsilon < wit.supply
    assert deriv(held) * held > deriv(wit.supply) * wit.supply


def test_divergence_witness_with_a_budget_that_never_binds():
    """x v'(x) peaks at 4 / (e ln 2) < 2.13 for example A.1, so a budget of 5
    never binds: prop2 is False and the scan finds the unbudgeted witness."""
    wit = divergence_witness(example_a1(), 5.0)
    assert wit == dataclasses.replace(divergence_witness(example_a1()), prop2=False)


@pytest.mark.parametrize(
    "derivative, m",
    [
        (lambda x: 0.0, 1.0),  # v'(0) = 0: the search window [0, v'(0)/m] is empty
        (lambda x: 1.0 if x < 0.5 else -1.0, 1.0),  # falls: epsilon would pass s
        (lambda x: 1.0 - 0.1 * x, 1.0),  # m overstated: the revenue check fails
    ],
    ids=["empty-window", "falling", "overstated-modulus"],
)
def test_divergence_witness_refuses_what_its_checks_do_not_confirm(derivative, m):
    assert divergence_witness(_strongly_concave(derivative, m)) is None
