"""Price feasibility, clearing, witnesses, and lattice meets on the reference market."""

import random
from fractions import Fraction

import pytest

from qfmarket.feasibility import (
    OutcomeInfeasibleError,
    build_spending_graph,
    check_clearing,
    check_feasible,
    meet,
    meet_allocation,
    outcome_is_feasible,
)
from qfmarket.market import Buyer, Good, Market, MarketError, aggregate
from qfmarket.numeric import float_mode

F = Fraction

MINIMAL = (F(3, 5), F(3, 5))


def test_feasible_certificate_carries_an_extending_allocation(ref_exact):
    cert = check_feasible(ref_exact, (F(1), F(1)))
    assert cert.feasible
    assert cert.witness is None
    assert outcome_is_feasible(ref_exact, (F(1), F(1)), cert.allocation)


def test_infeasible_certificate_names_the_overdemanded_goods(ref_exact):
    cert = check_feasible(ref_exact, (F(1, 2), F(1, 2)))
    assert not cert.feasible
    assert cert.allocation is None
    w = cert.witness
    assert w.goods == (1, 2)
    assert w.forced_budget == F(3)
    assert w.capacity == F(5, 2)
    assert w.excess == F(1, 2)


def test_clearing_holds_exactly_at_the_minimal_price(ref_exact):
    cert = check_clearing(ref_exact, MINIMAL)
    assert cert.feasible and cert.clearing
    assert cert.max_extension_revenue == F(3)
    assert aggregate(cert.allocation, 2) == (F(3), F(2))


def test_feasible_above_the_minimum_but_not_clearing(ref_exact):
    cert = check_clearing(ref_exact, (F(2), F(2)))
    assert cert.feasible and not cert.clearing
    assert cert.max_extension_revenue == F(3)  # all budgets, well under capacity 10


def test_max_extension(ref_exact):
    got = check_clearing(ref_exact, (F(2), F(2)))
    assert got.feasible
    assert got.max_extension_revenue == F(3)
    assert outcome_is_feasible(ref_exact, (F(2), F(2)), got.allocation)
    assert not check_clearing(ref_exact, (F(1, 2), F(1, 2))).feasible


@pytest.mark.parametrize("check", [check_feasible, check_clearing])
def test_public_checks_reject_invalid_markets(check):
    market = Market((Good("A", F(1)),), (Buyer("b1", (F(1),), F(-1)),))
    with pytest.raises(MarketError, match="negative budget"):
        check(market, (F(1),))


def test_meet_is_elementwise_and_checks_arity():
    assert meet((F(1), F(3)), (F(2), F(2))) == (F(1), F(2))
    with pytest.raises(MarketError):
        meet((F(1),), (F(1), F(2)))


def test_meet_allocation_splices_two_feasible_outcomes(ref_exact):
    p = (F(7, 10), F(21, 20))
    q = (F(3, 2), F(1))
    cp = check_feasible(ref_exact, p)
    cq = check_feasible(ref_exact, q)
    assert cp.feasible and cq.feasible
    r = meet(p, q)
    assert r == (F(7, 10), F(1))
    z = meet_allocation(ref_exact, p, q, cp.allocation, cq.allocation)
    assert outcome_is_feasible(ref_exact, r, z)


def test_meet_allocation_rejects_nonextending_inputs(ref_exact):
    p = (F(7, 10), F(21, 20))
    q = (F(3, 2), F(1))
    junk = ((F(9), F(9)),) * 3
    good = check_feasible(ref_exact, q).allocation
    with pytest.raises(OutcomeInfeasibleError):
        meet_allocation(ref_exact, p, q, junk, good)


def test_outcome_is_feasible_rejects_oversupply_and_undemanded_bundles(ref_exact):
    clearing = check_clearing(ref_exact, MINIMAL).allocation
    assert outcome_is_feasible(ref_exact, MINIMAL, clearing)
    over = ((F(4), F(0)),) + clearing[1:]
    assert not outcome_is_feasible(ref_exact, MINIMAL, over)
    # buyer1's argmax at the minimal price is good 2 only
    wrong_good = ((F(5, 3), F(0)),) + clearing[1:]
    assert not outcome_is_feasible(ref_exact, MINIMAL, wrong_good)
    assert not outcome_is_feasible(ref_exact, MINIMAL, clearing[:2])


def test_spending_graph_structure(ref_exact):
    graph = build_spending_graph(ref_exact, MINIMAL)
    assert graph.capacities == (F(9, 5), F(6, 5))
    assert graph.strict_buyers == (0, 1, 2)
    relaxed = build_spending_graph(ref_exact, (F(5), F(4)))
    assert relaxed.strict_buyers == ()


def test_the_mode_tolerance_reaches_the_checks(ref_float):
    """At p, buyer2's ratios 2/p_1 and 2/p_2 differ by 1e-4 relative. A 1e-3
    tolerance ties them, and buyer2's budget may then go to good 2, which
    makes p feasible; the default tolerance leaves good 1 over-demanded."""
    p = (0.6, 0.6 * (1 + 1e-4))
    loose = ref_float.coerced(float_mode(1e-3))
    assert build_spending_graph(loose, p).bpb[1].goods == {1, 2}
    cert = check_feasible(loose, p)
    assert cert.feasible
    assert outcome_is_feasible(loose, p, cert.allocation)
    assert build_spending_graph(ref_float, p).bpb[1].goods == {1}
    cert = check_feasible(ref_float, p)
    assert not cert.feasible and cert.witness.goods == (1,)


def test_random_prices_feasibility_verdicts_are_self_certifying(ref_exact):
    """Feasible verdicts must extend to an outcome; infeasible ones must show
    a strict budget/capacity gap over the named goods."""
    rng = random.Random(3)
    supplies = ref_exact.supplies
    for _ in range(60):
        p = tuple(F(rng.randint(1, 60), 20) for _ in range(2))
        cert = check_feasible(ref_exact, p)
        if cert.feasible:
            assert outcome_is_feasible(ref_exact, p, cert.allocation)
        else:
            w = cert.witness
            assert w.goods and set(w.goods) <= {1, 2}
            assert w.excess > 0
            assert w.capacity == sum(p[j - 1] * supplies[j - 1] for j in w.goods)
