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
from qfmarket.market import (
    MONEY,
    Buyer,
    Good,
    Market,
    MarketError,
    PriceDomainError,
    _admits,
    aggregate,
    bang_per_buck,
    demand_sets,
    read_prices,
)
from qfmarket.marketio import load_market
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import random_market
from qfmarket.solver import lattice_descent, solve

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
    with pytest.raises(OutcomeInfeasibleError, match="first outcome"):
        meet_allocation(ref_exact, p, q, junk, good)
    good_p = check_feasible(ref_exact, p).allocation
    with pytest.raises(OutcomeInfeasibleError, match="second outcome"):
        meet_allocation(ref_exact, p, q, good_p, junk)


def test_outcome_is_feasible_rejects_oversupply_and_undemanded_bundles(ref_exact):
    clearing = check_clearing(ref_exact, MINIMAL).allocation
    assert outcome_is_feasible(ref_exact, MINIMAL, clearing)
    over = ((F(4), F(0)),) + clearing[1:]
    assert not outcome_is_feasible(ref_exact, MINIMAL, over)
    # buyer1's argmax at the minimal price is good 2 only, buyer3's good 1
    # only; swapping their bundles keeps every total within supply
    wrong_good = (clearing[2], clearing[1], clearing[0])
    assert not outcome_is_feasible(ref_exact, MINIMAL, wrong_good)
    assert not outcome_is_feasible(ref_exact, MINIMAL, clearing[:2])


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
def test_outcome_check_money_slack_scales_with_the_budget(s):
    """Goods (1, 1), one buyer valuing them (2s, s) with budget s: at p* =
    (2s/3, s/3) both goods tie above money, so the buyer must spend its
    whole budget. With the money slack floored at 1, at s = 1e-12 the check
    accepted the bundles that spend nothing and half the budget."""
    market = Market((Good("a", 1.0), Good("b", 1.0)), (Buyer("x", (2 * s, s), s),), float_mode())
    p = (2 * s / 3, s / 3)
    for bundle, demanded in (((0.0, 0.0), False), ((0.5, 0.5), False), ((1.0, 1.0), True)):
        assert outcome_is_feasible(market, p, (bundle,)) is demanded, bundle
        assert _is_demanded(market.buyers[0], p, bundle, market.mode.tol) is demanded, bundle


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
def test_outcome_check_supply_slack_scales_with_the_supply(s):
    """Goods of supply s at price 1, one buyer valuing each at 1 with budget
    10, so money ties and every affordable bundle is demanded. With the
    supply slack floored at 1 unit, at s = 1e-12 twice the supply passed."""
    market = Market((Good("a", s), Good("b", s)), (Buyer("x", (1.0, 1.0), 10.0),), float_mode())
    assert outcome_is_feasible(market, (1.0, 1.0), ((s, s),))
    assert not outcome_is_feasible(market, (1.0, 1.0), ((2 * s, s),))


def test_outcome_check_reads_a_float_price_as_the_flow_checks_do():
    """In floats 3 / 0.3 == 1 / 0.1 == 10.0, a tie. The rationals those
    floats are put good 1 strictly first, so the clearing check routes
    nothing to good 2, and the outcome check now refuses a bundle of it;
    it used to read the prices in floats and accept one."""
    market = Market((Good("A", 10), Good("B", 10)), (Buyer("b", (3, 1), 1),))
    p = (0.3, 0.1)
    assert 3 / p[0] == 1 / p[1] == 10.0
    cert = check_clearing(market, p)
    assert cert.feasible and cert.allocation[0][1] == 0
    assert outcome_is_feasible(market, p, cert.allocation)
    assert not outcome_is_feasible(market, p, ((0, 10),))


@pytest.mark.parametrize("p", [(F(1),), (F(1), F(1), F(1)), (F(1), F(0)), (F(-1), F(1))])
def test_outcome_is_feasible_reads_the_prices_first(ref_exact, ref_float, p):
    """A short allocation or an oversupplied one is refused before any
    bundle is looked at, but a bad price is refused before that: (1, 0)
    with a short allocation used to read False."""
    clearing = check_clearing(ref_exact, MINIMAL).allocation
    for market in (ref_exact, ref_float):
        for allocation in (clearing[:2], ((F(9), F(9)),) * 3):
            with pytest.raises(PriceDomainError):
                outcome_is_feasible(market, p, allocation)


def _is_demanded(buyer, p, x, tol):
    """One buyer's demand test at p as given, its set from bang_per_buck."""
    return _admits(bang_per_buck(buyer, p, tol), buyer.budget, p, x, tol)


def _per_buyer_verdict(market, p, allocation):
    """The per-buyer reference for outcome_is_feasible: the supply check,
    then _is_demanded buyer by buyer at p as given."""
    tol = market.mode.tol
    return (
        len(allocation) == market.m
        and all(
            total <= good.supply + tol * max(1, good.supply)
            for total, good in zip(aggregate(allocation, market.n), market.goods)
        )
        and all(_is_demanded(b, p, x, tol) for b, x in zip(market.buyers, allocation))
    )


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_outcome_is_feasible_is_the_per_buyer_check(mode):
    """At prices in the market's own mode, one demand_sets pass gives the
    verdicts of the per-buyer check. The cases are the seed-0 battery's
    clearing allocations at p* and at 3/2 p*, each at both prices, and
    copies with one bundle scaled (by 0, 1/2, 1 + 1e-12, 1 + 1e-6 and 2),
    its goods rotated, or one bundle dropped."""
    rng = random.Random(0)
    factors = tuple(map(mode.coerce, (0, F(1, 2), F(1, 10**12) + 1, F(1, 10**6) + 1, 2)))
    verdicts = []
    for _ in range(20):
        market = random_market(rng).coerced(mode)
        p_star = solve(market).p_star
        prices = (p_star, tuple(v * mode.coerce(F(3, 2)) for v in p_star))
        allocations = [check_clearing(market, p).allocation for p in prices]
        cases = []
        for x in allocations:
            cases.append(x)
            cases.append(x[1:])
            for i, bundle in enumerate(x):
                for f in factors:
                    cases.append(x[:i] + (tuple(f * q for q in bundle),) + x[i + 1:])
                cases.append(x[:i] + (bundle[1:] + bundle[:1],) + x[i + 1:])
        for p in prices:
            for allocation in cases:
                got = outcome_is_feasible(market, p, allocation)
                assert got == _per_buyer_verdict(market, p, allocation), (p, allocation)
                verdicts.append(got)
    assert min(verdicts.count(True), verdicts.count(False)) > 150, verdicts.count(True)


def test_spending_graph_structure(ref_exact):
    graph = build_spending_graph(ref_exact, MINIMAL)
    assert graph.capacities == (F(9, 5), F(6, 5))
    assert [MONEY not in s for s in graph.bpb] == [True, True, True]
    relaxed = build_spending_graph(ref_exact, (F(5), F(4)))
    assert not any(MONEY not in s for s in relaxed.bpb)


def test_spending_graph_reads_a_float_price_as_the_rational_it_is(ref_exact):
    """On an exact market the capacities are exact, as the checks read them;
    a float price used to give float capacities next to Fraction ratios."""
    graph = build_spending_graph(ref_exact, (0.6, 0.6))
    assert graph.prices == (F(0.6), F(0.6))
    assert graph.capacities == (F(0.6) * 3, F(0.6) * 2)
    assert all(type(c) is F for c in graph.capacities)


def test_the_mode_tolerance_reaches_the_checks(ref_exact, ref_float):
    """At p, buyer2's ratios 2/p_1 and 2/p_2 differ by 1e-10 relative. Float
    mode's fixed 1e-9 band ties them, and buyer2's budget may then go to good
    2, which makes p feasible; exact mode, at the same rationals, leaves good 1
    over-demanded."""
    p = (0.6, 0.6 * (1 + 1e-10))
    assert build_spending_graph(ref_float, p).bpb[1] == {1, 2}
    cert = check_feasible(ref_float, p)
    assert cert.feasible
    assert outcome_is_feasible(ref_float, p, cert.allocation)
    assert build_spending_graph(ref_exact, p).bpb[1] == {1}
    cert = check_feasible(ref_exact, p)
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


def _battery_draw(index):
    rng = random.Random(0)
    for _ in range(index):
        random_market(rng, 6, 6)
    return random_market(rng, 6, 6)


def _coprime_market():
    """Budgets in sevenths and elevenths, supplies in elevenths, sevenths
    and thirteenths: the flow's common denominator is far from any one."""
    return Market(
        (Good("A", F(3, 11)), Good("B", F(5, 7)), Good("C", F(2, 13))),
        (
            Buyer("b1", (F(3), F(2), F(5, 3)), F(2, 7)),
            Buyer("b2", (F(1, 2), F(4), F(1)), F(3, 11)),
            Buyer("b3", (F(2), F(2), F(7, 5)), F(1, 7)),
            Buyer("b4", (F(5), F(1, 3), F(2)), F(4, 11)),
        ),
    )


def _rows(*rows):
    return tuple(tuple(F(q) for q in row) for row in rows)


# market, its p*, then at p*: max-extension revenue and allocation; at p*
# with good 1 halved: witness goods and forced budget; at 3/2 p*: revenue and
# allocation of a feasible, non-clearing price.
_CERTIFICATE_PINS = (
    (
        lambda: _battery_draw(0),
        (F(7, 3), F(5, 6), F(5, 6), F(5, 7)),
        F(83, 7),
        _rows(("0", "6/35", "0", "4"), ("0", "99/35", "153/35", "0"),
              ("31/49", "0", "22/35", "0"), ("18/49", "0", "0", "0")),
        ((1,), F(4)),
        F(11),
        _rows(("0", "0", "0", "14/5"), ("0", "3", "9/5", "0"),
              ("4/7", "0", "0", "0"), ("0", "0", "0", "0")),
    ),
    (
        lambda: _battery_draw(5),
        (F(4, 3), F(5, 3), F(47, 36)),
        F(187, 12),
        _rows(("0", "0", "45/47"), ("0", "6/5", "0"), ("1/2", "3/2", "0"),
              ("0", "3/10", "0"), ("0", "0", "96/47"), ("9/2", "0", "0")),
        ((1,), F(13)),
        F(143, 12),
        _rows(("0", "0", "30/47"), ("0", "4/5", "0"), ("0", "0", "0"),
              ("0", "0", "0"), ("0", "0", "64/47"), ("3", "0", "0")),
    ),
    (
        lambda: _battery_draw(8),
        (F(7, 4),),
        F(7, 4),
        _rows(("0",), ("2/7",), ("5/7",)),
        ((1,), F(7, 2)),
        F(1, 2),
        _rows(("0",), ("4/21",), ("0",)),
    ),
    (
        _coprime_market,
        (F(4, 3), F(1053, 1265), F(351, 506)),
        F(82, 77),
        _rows(("0", "1585/7371", "2/13"), ("0", "115/351", "0"),
              ("0", "1265/7371", "0"), ("3/11", "0", "0")),
        ((1,), F(61, 77)),
        F(82, 77),
        _rows(("0", "5060/22113", "0"), ("0", "230/1053", "0"),
              ("0", "2530/22113", "0"), ("2/11", "0", "0")),
    ),
)


@pytest.mark.parametrize(
    "make, p_star, revenue, allocation, witness, up_revenue, up_allocation",
    _CERTIFICATE_PINS,
    ids=["draw0", "draw5", "draw8", "coprime"],
)
def test_exact_clearing_certificates_are_pinned(
    make, p_star, revenue, allocation, witness, up_revenue, up_allocation
):
    market = make()
    cert = check_clearing(market, p_star)
    assert cert.feasible and cert.clearing
    assert cert.max_extension_revenue == revenue
    assert cert.allocation == allocation
    cut = (p_star[0] / 2,) + p_star[1:]
    cert = check_clearing(market, cut)
    assert not cert.feasible
    assert (cert.witness.goods, cert.witness.forced_budget) == witness
    cert = check_clearing(market, tuple(v * F(3, 2) for v in p_star))
    assert cert.feasible and not cert.clearing
    assert cert.max_extension_revenue == up_revenue
    assert cert.allocation == up_allocation


@pytest.mark.parametrize(
    "draw, p_star",
    [(None, MINIMAL), (0, (F(7, 3), F(5, 6), F(5, 6), F(5, 7))), (8, (F(7, 4),))],
    ids=["reference", "draw0", "draw8"],
)
def test_float_cut_prices_on_exact_markets_are_read_exactly(ref_exact, draw, p_star):
    """A 1% cut taken in floats hands an exact market a float price. It is
    read as the rational that the float is: every cut stays infeasible, and
    the witness capacity is exact at that rational."""
    market = ref_exact if draw is None else _battery_draw(draw)
    for j in range(market.n):
        cut = tuple(v * 0.99 if k == j else v for k, v in enumerate(p_star))
        cert = check_feasible(market, cut)
        assert not cert.feasible
        assert j + 1 in cert.witness.goods
        assert cert.witness.capacity == sum(
            F(cut[g - 1]) * market.goods[g - 1].supply for g in cert.witness.goods
        )


def test_witness_names_the_over_demanded_goods():
    """Buyer 1 of battery draw 0 demands only good 4, which a 1% cut leaves
    too small for its budget. The witness used to name no goods, with
    capacity 0, when the minimum cut ran through a spend edge."""
    cut = (F(7, 3), F(5, 6), F(5, 6), F(5, 7) * F(99, 100))
    w = check_feasible(_battery_draw(0), cut).witness
    assert (w.goods, w.forced_budget, w.capacity) == ((4,), 3, F(99, 35))


@pytest.mark.parametrize("p", [(F(9),), (F(9), F(9), F(9))])
@pytest.mark.parametrize("check", [check_feasible, check_clearing, lattice_descent])
def test_price_vectors_of_the_wrong_length_are_rejected(fixture_dir, check, p):
    """On two goods, three prices used to certify three-entry bundles (and a
    three-entry descent endpoint), and one price raised a bare IndexError."""
    market = load_market((fixture_dir / "example2.json").read_text(), EXACT).market
    with pytest.raises(PriceDomainError, match=f"{len(p)} prices for 2 goods"):
        check(market, p)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("p", [(_NAN, 1.0), (1.0, _NAN), (_INF, 1.0), (1.0, -_INF)])
@pytest.mark.parametrize(
    "check", [check_feasible, check_clearing, build_spending_graph, demand_sets, lattice_descent]
)
@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_non_finite_prices_are_rejected(fixture_dir, mode, check, p):
    """An exact market's checks raised a bare ValueError on NaN and an
    OverflowError on an infinity; a float market's read every buyer's demand
    set as empty at NaN and called the price infeasible."""
    market = load_market((fixture_dir / "example2.json").read_text(), mode).market
    with pytest.raises(PriceDomainError, match="not positive and finite"):
        check(market, p)


def test_a_huge_fraction_price_is_finite(ref_exact, ref_float):
    """A Fraction beyond the float range is a finite price: it is compared,
    never converted. A float market refuses such a price, which its checks
    raised a bare OverflowError on, and reads one inside the float range as
    given."""
    cert = check_feasible(ref_exact, (F(10) ** 400, F(1)))
    assert not cert.feasible and cert.witness.goods == (2,)
    for p in ((10**400, 1), (F(10) ** 400, 1.0)):
        for check in (check_clearing, check_feasible, demand_sets):
            with pytest.raises(PriceDomainError, match="beyond the float range"):
                check(ref_float, p)
    assert read_prices(ref_float, (10**300, F(1, 3))) == (10**300, F(1, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("price", [1e-320, F(1, 10**400)], ids=["overflowing", "zero-as-float"])
def test_a_float_market_refuses_a_price_too_small_for_floats(price):
    """Over a value of 1.0, 1e-320 overflows the float ratio and
    Fraction(1, 10**400) reads as 0.0: numpy warned "overflow encountered in
    divide", and the checks answered "not feasible" with an infinite
    max_ratio. read_prices now refuses such a price before any check
    divides; one whose ratio stays finite is read as given, and the exact
    twin reads both."""
    market = Market((Good("A", 1.0),), (Buyer("b", (1.0,), 1.0),), float_mode())
    for check in (read_prices, check_clearing, check_feasible, demand_sets):
        with pytest.raises(PriceDomainError, match="too small"):
            check(market, (price,))
    assert read_prices(market, (1e-300,)) == (1e-300,)
    assert not check_feasible(market.rational_twin(), (price,)).feasible
