"""Market types, validation, and the budget-constrained demand correspondence."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qfmarket import market as market_module
from qfmarket.market import (
    MONEY,
    Buyer,
    Good,
    Market,
    MarketError,
    Outcome,
    PriceDomainError,
    aggregate,
    bang_per_buck,
    demand_lattice,
    demand_sets,
    mode_array,
    outcome_is_feasible,
    require_valid,
    strip_worthless_goods,
    validate_market,
)
from qfmarket.feasibility import check_clearing
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import random_market
from qfmarket.solver import solve

F = Fraction


def test_market_properties(ref_exact):
    assert ref_exact.n == 2
    assert ref_exact.m == 3
    assert ref_exact.supplies == (F(3), F(2))


def test_coerced_converts_every_number(ref_exact):
    mf = ref_exact.coerced(float_mode())
    assert not mf.mode.is_exact
    assert all(isinstance(g.supply, float) for g in mf.goods)
    assert all(isinstance(v, float) for b in mf.buyers for v in b.values)
    assert all(isinstance(b.budget, float) for b in mf.buyers)


def test_empty_names_rejected():
    with pytest.raises(MarketError):
        Good("", F(1))
    with pytest.raises(MarketError):
        Buyer("", (F(1),), F(1))


def test_outcome_normalizes_to_tuples():
    out = Outcome([F(1), F(2)], [[F(0), F(1)]])
    assert out.prices == (F(1), F(2))
    assert out.allocation == ((F(0), F(1)),)


def test_validate_market_reports_each_violation():
    good = Good("A", F(1))
    ok = Buyer("b", (F(1),), F(1))
    assert validate_market(Market((good,), (ok,), EXACT)) == []
    assert validate_market(Market((), (ok,), EXACT))
    assert validate_market(Market((good,), (), EXACT))
    assert any(
        "negative supply" in v
        for v in validate_market(Market((Good("A", F(-1)),), (ok,), EXACT))
    )
    assert any(
        "duplicate" in v
        for v in validate_market(
            Market((good, Good("A", F(2))), (Buyer("b", (F(1), F(1)), F(1)),), EXACT)
        )
    )
    assert any(
        "values" in v
        for v in validate_market(Market((good,), (Buyer("b", (F(1), F(2)), F(1)),), EXACT))
    )
    assert any(
        "negative budget" in v
        for v in validate_market(Market((good,), (Buyer("b", (F(1),), F(-1)),), EXACT))
    )
    assert any(
        "negative value" in v
        for v in validate_market(Market((good,), (Buyer("b", (F(-1),), F(1)),), EXACT))
    )
    assert any(
        "valued 0" in v
        for v in validate_market(Market((good,), (Buyer("b", (F(0),), F(1)),), EXACT))
    )
    with pytest.raises(MarketError):
        require_valid(Market((), (ok,), EXACT))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_validate_market_flags_non_finite_numbers(bad):
    good = Good("A", 1.0)
    ok = Buyer("b", (1.0,), 1.0)
    cases = (
        (Market((Good("A", bad),), (ok,), float_mode()), "non-finite supply"),
        (Market((good,), (Buyer("b", (bad,), 1.0),), float_mode()), "non-finite value"),
        (Market((good,), (Buyer("b", (1.0,), bad),), float_mode()), "non-finite budget"),
    )
    for market, message in cases:
        assert any(message in v for v in validate_market(market))
        with pytest.raises(MarketError, match=message):
            require_valid(market)


def test_exact_markets_hold_only_ints_and_fractions():
    """A float or a bool in an exact market used to pass validation and fail
    later, in demand_sets, with an AttributeError."""
    market = Market(
        (Good("a", 1), Good("b", 2.0)),
        (Buyer("x", (1.5, F(2)), 1), Buyer("y", (1, 3), True)),
    )
    assert validate_market(market) == [
        "good b: supply 2.0 is not an int or a Fraction in an exact market",
        "buyer x: value for good a 1.5 is not an int or a Fraction in an exact market",
        "buyer y: budget True is not an int or a Fraction in an exact market",
    ]
    assert validate_market(market.coerced(EXACT)) == []
    assert validate_market(market.coerced(float_mode())) == []


def test_float_markets_hold_only_ints_and_floats():
    """numpy's float32, a Decimal or a bool in a float market used to pass
    validation, and solve then died building the rational twin with
    "TypeError: cannot coerce float32 to rational". numpy's float64 is a
    float, so a market of those still solves."""
    market = Market(
        (Good("a", np.float32(1.0)), Good("b", 2)),
        (Buyer("x", (Decimal("0.5"), 1.0), 1.0), Buyer("y", (1.0, 3), True)),
        float_mode(),
    )
    assert validate_market(market) == [
        "good a: supply np.float32(1.0) is not an int or a float in a float market",
        "buyer x: value for good a Decimal('0.5') is not an int or a float in a float market",
        "buyer y: budget True is not an int or a float in a float market",
    ]
    with pytest.raises(MarketError, match=r"^invalid market: good a: supply np\.float32"):
        solve(market)
    buyer = Buyer("b", (np.float64(0.3),), np.float64(0.1))
    assert solve(Market((Good("A", np.float64(1.0)),), (buyer,), float_mode())).p_star == (0.1,)


def test_strip_worthless_goods():
    market = Market(
        (Good("A", F(1)), Good("B", F(2))),
        (Buyer("b1", (F(0), F(3)), F(1)), Buyer("b2", (F(0), F(1)), F(2))),
        EXACT,
    )
    stripped = strip_worthless_goods(market)
    assert [g.name for g in stripped.goods] == ["B"]
    assert stripped.buyers[0].values == (F(3),)
    assert validate_market(stripped) == []


@pytest.mark.parametrize("value", [None, "1"], ids=["None", "str"])
@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_strip_worthless_goods_keeps_a_good_with_a_value_that_is_not_a_number(mode, value):
    """strip_worthless_goods compared every value with 0 and raised a bare
    TypeError ("'>' not supported between instances of 'NoneType' and
    'int'"). Such a value now keeps its good, and validation reports it by
    its type."""
    market = Market((Good("A", 1), Good("B", 1)), (Buyer("b", (value, 1), 1),), mode)
    stripped = strip_worthless_goods(market)
    assert stripped == market
    kind = "a Fraction in an exact" if mode.is_exact else "a float in a float"
    assert validate_market(stripped) == [
        f"buyer b: value for good A {value!r} is not an int or {kind} market"
    ]


def _count_validations(monkeypatch):
    """The markets whose validation body runs from here on, one entry per run."""
    runs = []
    body = market_module._violations

    def counted(market):
        runs.append(market)
        return body(market)

    monkeypatch.setattr(market_module, "_violations", counted)
    return runs


def test_a_market_is_validated_once(monkeypatch, ref_exact):
    runs = _count_validations(monkeypatch)
    for _ in range(3):
        assert validate_market(ref_exact) == []
        require_valid(ref_exact)
    assert list(map(id, runs)) == [id(ref_exact)]
    verdict = validate_market(ref_exact)
    verdict.append("changed by the caller")
    assert validate_market(ref_exact) == []


def test_a_valid_float_market_twin_takes_over_its_verdict(monkeypatch, ref_exact, ref_float):
    assert ref_exact.rational_twin() is ref_exact
    runs = _count_validations(monkeypatch)
    twin = ref_float.rational_twin()
    assert twin == ref_exact and twin.mode.is_exact
    assert ref_float.rational_twin() is twin  # built once and kept
    assert validate_market(twin) == []
    assert list(map(id, runs)) == [id(ref_float)]  # the twin took over its verdict


def test_an_invalid_float_market_twin_validates_itself(monkeypatch):
    market = Market((Good("A", -1.0),), (Buyer("b", (1.0,), 1.0),), float_mode())
    runs = _count_validations(monkeypatch)
    twin = market.rational_twin()
    assert validate_market(twin) == ["good A: negative supply -1"]
    assert validate_market(market) == ["good A: negative supply -1.0"]
    assert list(map(id, runs)) == [id(market), id(twin)]


def test_rebuilt_markets_are_validated_in_their_own_right(monkeypatch):
    market = Market(
        (Good("A", F(1)), Good("B", F(2))),
        (Buyer("b1", (F(0), F(3)), F(1)), Buyer("b2", (F(0), F(1)), F(2))),
        EXACT,
    )
    assert validate_market(market)
    runs = _count_validations(monkeypatch)
    stripped = strip_worthless_goods(market)
    assert validate_market(stripped) == []
    coerced = market.coerced(float_mode())
    assert validate_market(coerced)
    assert list(map(id, runs)) == [id(stripped), id(coerced)]


def test_bang_per_buck_at_the_minimal_price(ref_exact):
    p = (F(3, 5), F(3, 5))
    b1, b2, b3 = ref_exact.buyers
    s1 = bang_per_buck(b1, p)
    s2 = bang_per_buck(b2, p)
    s3 = bang_per_buck(b3, p)
    assert s1 == frozenset({2})
    assert s2 == frozenset({1, 2})
    assert s3 == frozenset({1})
    assert MONEY not in s1 and MONEY not in s2 and MONEY not in s3


def test_demand_sets_are_plain_frozensets(ref_exact, ref_float):
    """A demand set is a frozenset of 1-based goods, MONEY included when
    money is demanded; the package exports no set type of its own."""
    import qfmarket

    for market in (ref_exact, ref_float):
        p = tuple(map(market.mode.coerce, (F(3, 5), F(2))))
        sets = demand_sets(market, p)
        assert all(type(s) is frozenset for s in sets)
        assert sets == tuple(bang_per_buck(b, p, market.mode.tol) for b in market.buyers)
        assert type(bang_per_buck(market.buyers[0], p)) is frozenset
    assert not hasattr(qfmarket, "BangPerBuckSet")
    assert not hasattr(market_module, "BangPerBuckSet")


def test_bang_per_buck_includes_money_at_high_prices(ref_exact):
    b1 = ref_exact.buyers[0]
    s = bang_per_buck(b1, (F(2), F(3)))
    assert s == frozenset({MONEY, 1, 2})
    assert MONEY in s


def test_bang_per_buck_tolerance_band():
    buyer = Buyer("b", (2.0, 2.0), 1.0)
    wide = bang_per_buck(buyer, (0.6, 0.6 * (1 + 1e-12)), tol=1e-9)
    assert wide == frozenset({1, 2})
    tight = bang_per_buck(buyer, (0.6, 0.7), tol=1e-9)
    assert tight == frozenset({1})


def test_nonpositive_prices_raise():
    buyer = Buyer("b", (F(1),), F(1))
    with pytest.raises(PriceDomainError):
        bang_per_buck(buyer, (F(0),))
    with pytest.raises(PriceDomainError):
        outcome_is_feasible(Market((Good("A", F(1)),), (buyer,)), (F(-1),), ((F(0),),))


@pytest.mark.parametrize("p", [(), (F(1), F(1))])
def test_price_vectors_of_the_wrong_length_raise(p):
    buyer = Buyer("b", (F(1),), F(1))
    with pytest.raises(PriceDomainError, match=f"{len(p)} prices for 1 goods"):
        bang_per_buck(buyer, p)


def test_price_beyond_the_float_range_for_a_float_buyer():
    """A float value cannot be divided by a price of 10**400: bang_per_buck
    raised a bare OverflowError ("int too large to convert to float"). An
    exact buyer reads that price as any other."""
    for price in (10**400, F(10) ** 400):
        with pytest.raises(PriceDomainError, match="beyond the float range") as caught:
            bang_per_buck(Buyer("b", (1.0,), 1.0), (price,))
        assert len(str(caught.value)) < 80
        exact = bang_per_buck(Buyer("b", (F(1),), F(1)), (price,))
        assert exact == frozenset({MONEY})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("price", [1e-320, F(1, 10**400)], ids=["overflowing", "zero-as-float"])
def test_price_too_small_for_a_float_buyer(price):
    """A float value over Fraction(1, 10**400), which reads as 0.0, raised a
    bare ZeroDivisionError, and over 1e-320 gave an infinite ratio. Both are
    refused as a price beyond the float range is. An exact buyer reads a
    tiny rational as any other."""
    with pytest.raises(PriceDomainError, match="too small") as caught:
        bang_per_buck(Buyer("b", (1.0,), 1.0), (price,))
    assert len(str(caught.value)) < 80
    exact = bang_per_buck(Buyer("b", (F(1),), F(1)), (F(1, 10**400),))
    assert exact == frozenset({1})


def test_one_buyer_outcomes(ref_exact):
    """A one-buyer market of ample supply is feasible exactly when the
    bundle is demanded, here at the reference market's p* = (3/5, 3/5)."""
    goods = (Good("A", F(10)), Good("B", F(10)))
    b2, b3 = (Market(goods, (b,)) for b in ref_exact.buyers[1:])
    cases = (
        (b3, (F(5, 3), F(0)), True),
        (b2, (F(5, 6), F(5, 6)), True),  # interior of the demand face
        (b2, (F(0), F(0)), False),  # strict buyer must spend
        (b3, (F(0), F(5, 3)), False),  # positive quantity off the argmax
        (b3, (F(10, 3), F(0)), False),  # overspends the budget
        (b3, (F(5, 3),), False),  # wrong arity
        (b3, (F(8, 3), F(-1)), False),  # spends its budget, but a quantity is negative
    )
    for market, bundle, demanded in cases:
        assert outcome_is_feasible(market, (F(3, 5), F(3, 5)), (bundle,)) is demanded, bundle


def test_aggregate():
    rows = ((F(0), F(5, 3)), (F(4, 3), F(1, 3)), (F(5, 3), F(0)))
    assert aggregate(rows, 2) == (F(3), F(2))


def _points_around(market, p_star, rng):
    """p*, its 1% cuts and raises, money ties (a good priced at a buyer's
    value for it, or every good at one buyer's values), good-good ties, and
    random points near p*: 200 or more exact price vectors."""
    n = market.n
    cut, rise = F(99, 100), F(101, 100)
    points = [p_star, tuple(x * cut for x in p_star)]
    for j in range(n):
        for factor in (cut, rise):
            points.append(tuple(x * factor if k == j else x for k, x in enumerate(p_star)))
    for buyer in market.buyers:
        if all(buyer.values):
            points.append(buyer.values)
        for j, v in enumerate(buyer.values):
            if v:
                points.append(tuple(v if k == j else x for k, x in enumerate(p_star)))
                for k, w in enumerate(buyer.values):
                    if w and k != j:
                        tie = tuple(x * w / v if i == k else x for i, x in enumerate(p_star))
                        points.append(tuple(y if i == k else tie[j] * v / w for i, y in enumerate(tie)))
    while len(points) < 200:
        points.append(tuple(x * F(rng.randint(95, 105), 100) for x in p_star))
    return points


def test_demand_sets_read_money_ties_and_zero_values():
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (Buyer("b1", (F(2), F(3)), F(1)), Buyer("b2", (F(0), F(5)), F(1))),
    )
    for mode in (EXACT, float_mode()):
        twin = market.coerced(mode)
        p = tuple(map(mode.coerce, (2, 6)))
        assert demand_sets(twin, p) == (frozenset({MONEY, 1}), frozenset({MONEY}))
        p = tuple(map(mode.coerce, (1, F(3, 2))))
        assert demand_sets(twin, p) == (frozenset({1, 2}), frozenset({2}))


def test_float_demand_sets_keep_money_at_a_cutoff_of_exactly_one():
    """(1 - 1e-9) * 1.000000001 rounds to 1.0, so money ties the good."""
    market = Market((Good("A", 1.0),), (Buyer("b", (1.000000001,), 1.0),), float_mode())
    (got,) = demand_sets(market, (1.0,))
    assert got == bang_per_buck(market.buyers[0], (1.0,), market.mode.tol)
    assert got == frozenset({MONEY, 1})


@pytest.mark.parametrize("p", [(F(1),), (F(1), F(1), F(1)), (F(1), F(0)), (F(-1), F(1))])
def test_demand_sets_reject_the_prices_bang_per_buck_rejects(ref_exact, ref_float, p):
    for market in (ref_exact, ref_float):
        with pytest.raises(PriceDomainError):
            demand_sets(market, p)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_demand_sets_are_bang_per_buck_sets(mode):
    """demand_sets equals bang_per_buck buyer by buyer at 4,000 and more
    points around the probe battery's p*: the 20
    seed-0 random_market draws, and one market with zero values."""
    rng = random.Random(0)
    markets = [random_market(rng) for _ in range(20)]
    markets.append(
        Market(
            (Good("A", F(2)), Good("B", F(1)), Good("C", F(3))),
            (
                Buyer("b1", (F(0), F(3), F(1, 3)), F(1)),
                Buyer("b2", (F(2), F(0), F(0)), F(2)),
                Buyer("b3", (F(1), F(1), F(1)), F(0)),
            ),
        )
    )
    checked = money_ties = 0
    for market in markets:
        p_star = solve(market).p_star
        points = _points_around(market, p_star, rng)
        if not mode.is_exact:
            market = market.coerced(mode)
            points = [tuple(map(float, p)) for p in points]
        for p in points:
            expected = tuple(bang_per_buck(b, p, mode.tol) for b in market.buyers)
            assert demand_sets(market, p) == expected, p
            checked += 1
            money_ties += sum(MONEY in s and len(s) > 1 for s in expected)
    assert checked >= 4000
    assert money_ties >= 100


def _float_tie_band(market, p):
    """Float mode's tie band as it stood before demand_lattice: best (m, ...)
    over the goods alone, demanded (n, m, ...) and money (m, ...), at an
    (n, ...) array of price vectors."""
    values = market.float_values.reshape(market.n, market.m, *(1,) * (p.ndim - 1))
    ratios = values / p[:, None]
    best = ratios.max(axis=0)
    cutoff = (1 - market.mode.tol) * np.maximum(best, 1.0)
    return best, ratios >= cutoff, cutoff <= 1


def _tie_heavy_lattices():
    """(market, axes) pairs in exact numbers. Each market has n = 1..8 goods,
    one to four buyers with small rational values, and a buyer who values
    nothing. Each axis draws from the buyers' own values for its good and
    simple fractions of them, so goods tie each other and money at many
    points. Every lattice comes again with values and prices scaled by
    10^40 and by 10^-40, and the first of each n by 10^400, past the float
    range."""
    rng = random.Random(21)
    cases = []
    for n in range(1, 9):
        for first in (True, False):
            rows = [[F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            for j in range(n):
                rows[0][j] = rows[0][j] or F(1)
            rows.append([F(0)] * n)
            size = {1: 12, 2: 8, 3: 4, 4: 3}.get(n, 2)
            axes = []
            for j in range(n):
                options = {row[j] * f for row in rows if row[j] for f in (1, F(1, 2), F(2, 3), 2)}
                axes.append(sorted(rng.sample(sorted(options), min(size, len(options)))))
            for scale in (1, F(10**40), F(1, 10**40)) + (F(10**400),) * first:
                buyers = tuple(
                    Buyer(f"b{i}", tuple(v * scale for v in row), F(rng.randint(1, 5)))
                    for i, row in enumerate(rows)
                )
                goods = tuple(Good(f"g{j}", F(rng.randint(1, 3))) for j in range(n))
                cases.append((Market(goods, buyers), [[x * scale for x in ax] for ax in axes]))
    return cases


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_lattice_demand_is_demand_sets_and_bang_per_buck(mode):
    """At every point of each lattice, demand_lattice read as sets equals
    demand_sets, and both equal bang_per_buck at the mode's band. The lattice is read as grid scans read it: its prices scaled once
    by mode_array. Float planes match the float tie band bit for bit."""
    checked = ties = 0
    for market, axes in _tie_heavy_lattices():
        if not mode.is_exact:
            if any(x > 1e300 for ax in axes for x in ax):
                continue  # beyond the float range
            market, axes = market.coerced(mode), [[float(x) for x in ax] for ax in axes]
        unit, flat = mode_array(market, [x for ax in axes for x in ax])
        index = np.indices([len(ax) for ax in axes]).reshape(market.n, -1)
        offsets = np.cumsum([0] + [len(ax) for ax in axes[:-1]])[:, None]
        prices = flat[index + offsets]  # (n, k)
        _, best, demanded = demand_lattice(market, prices, unit)
        if not mode.is_exact:
            old_best, old_demanded, old_money = _float_tie_band(market, prices)
            assert best.tobytes() == np.maximum(old_best, 1.0).tobytes()
            assert demanded[1:].tobytes() == old_demanded.tobytes()
            assert demanded[0].tobytes() == old_money.tobytes()
        for k, point in enumerate(index.T):
            p = tuple(ax[i] for ax, i in zip(axes, point))
            lattice = tuple(frozenset(np.flatnonzero(row).tolist()) for row in demanded[:, :, k].T)
            expected = tuple(bang_per_buck(b, p, mode.tol) for b in market.buyers)
            assert lattice == demand_sets(market, p) == expected, p
            checked += 1
            ties += any(len(s) > 1 for s in expected)
    assert checked >= (4500 if mode.is_exact else 3900)
    assert ties >= checked // 2


class _Ratio(Fraction):
    """A Fraction subclass: not a Fraction to validation."""


# Per mode and number: every violation of a market that holds the number as
# good A's supply, buyer b's budget and b's value for good B, in order. Buyer
# c values both goods, so no good is worthless.
_VIOLATIONS = {
    "exact": {
        "bool": (True, [
            "good A: supply True is not an int or a Fraction in an exact market",
            "buyer b: budget True is not an int or a Fraction in an exact market",
            "buyer b: value for good B True is not an int or a Fraction in an exact market",
        ]),
        "Fraction subclass": (_Ratio(1, 2), [
            "good A: supply _Ratio(1, 2) is not an int or a Fraction in an exact market",
            "buyer b: budget _Ratio(1, 2) is not an int or a Fraction in an exact market",
            "buyer b: value for good B _Ratio(1, 2) is not an int or a Fraction in an exact market",
        ]),
        "float32": (np.float32(0.5), [
            "good A: supply np.float32(0.5) is not an int or a Fraction in an exact market",
            "buyer b: budget np.float32(0.5) is not an int or a Fraction in an exact market",
            "buyer b: value for good B np.float32(0.5) is not an int or a Fraction in an exact market",
        ]),
        "Decimal": (Decimal("0.5"), [
            "good A: supply Decimal('0.5') is not an int or a Fraction in an exact market",
            "buyer b: budget Decimal('0.5') is not an int or a Fraction in an exact market",
            "buyer b: value for good B Decimal('0.5') is not an int or a Fraction in an exact market",
        ]),
        "float": (0.5, [
            "good A: supply 0.5 is not an int or a Fraction in an exact market",
            "buyer b: budget 0.5 is not an int or a Fraction in an exact market",
            "buyer b: value for good B 0.5 is not an int or a Fraction in an exact market",
        ]),
        "nan": (float("nan"), [
            "good A: supply nan is not an int or a Fraction in an exact market",
            "buyer b: budget nan is not an int or a Fraction in an exact market",
            "buyer b: value for good B nan is not an int or a Fraction in an exact market",
        ]),
        "negative int": (-2, [
            "good A: negative supply -2",
            "buyer b: negative budget -2",
            "buyer b: negative value for good B",
        ]),
        "negative Fraction": (F(-1, 3), [
            "good A: negative supply -1/3",
            "buyer b: negative budget -1/3",
            "buyer b: negative value for good B",
        ]),
        "huge int": (10**400, []),
        "Fraction": (F(1, 3), []),
        "zero": (0, []),
    },
    "float": {
        "bool": (True, [
            "good A: supply True is not an int or a float in a float market",
            "buyer b: budget True is not an int or a float in a float market",
            "buyer b: value for good B True is not an int or a float in a float market",
        ]),
        "Fraction": (F(1, 2), [
            "good A: supply Fraction(1, 2) is not an int or a float in a float market",
            "buyer b: budget Fraction(1, 2) is not an int or a float in a float market",
            "buyer b: value for good B Fraction(1, 2) is not an int or a float in a float market",
        ]),
        "float32": (np.float32(0.5), [
            "good A: supply np.float32(0.5) is not an int or a float in a float market",
            "buyer b: budget np.float32(0.5) is not an int or a float in a float market",
            "buyer b: value for good B np.float32(0.5) is not an int or a float in a float market",
        ]),
        "Decimal": (Decimal("0.5"), [
            "good A: supply Decimal('0.5') is not an int or a float in a float market",
            "buyer b: budget Decimal('0.5') is not an int or a float in a float market",
            "buyer b: value for good B Decimal('0.5') is not an int or a float in a float market",
        ]),
        "nan": (float("nan"), [
            "good A: non-finite supply nan",
            "buyer b: non-finite budget nan",
            "buyer b: non-finite value for good B",
        ]),
        "inf": (float("inf"), [
            "good A: non-finite supply inf",
            "buyer b: non-finite budget inf",
            "buyer b: non-finite value for good B",
        ]),
        "-inf": (float("-inf"), [
            "good A: non-finite supply -inf",
            "buyer b: non-finite budget -inf",
            "buyer b: non-finite value for good B",
        ]),
        "float64 nan": (np.float64("nan"), [
            "good A: non-finite supply nan",
            "buyer b: non-finite budget nan",
            "buyer b: non-finite value for good B",
        ]),
        "negative float": (-0.5, [
            "good A: negative supply -0.5",
            "buyer b: negative budget -0.5",
            "buyer b: negative value for good B",
        ]),
        "negative int": (-2, [
            "good A: negative supply -2",
            "buyer b: negative budget -2",
            "buyer b: negative value for good B",
        ]),
        "negative huge int": (-(10**400), [
            f"good A: negative supply {-(10**400)}",
            f"buyer b: negative budget {-(10**400)}",
            "buyer b: negative value for good B",
        ]),
        "float64": (np.float64(0.5), []),
        "negative zero": (-0.0, []),
        "subnormal": (5e-324, []),
        "largest float": (sys.float_info.max, []),
        "int": (3, []),
    },
}


@pytest.mark.parametrize(
    "mode, label", [(mode, label) for mode, cases in _VIOLATIONS.items() for label in cases]
)
def test_validate_market_pins_each_message_by_mode_and_type(mode, label):
    x, expected = _VIOLATIONS[mode][label]
    one = 1 if mode == "exact" else 1.0
    market = Market(
        (Good("A", x), Good("B", one)),
        (Buyer("b", (one, x), x), Buyer("c", (one, one), one)),
        EXACT if mode == "exact" else float_mode(),
    )
    assert validate_market(market) == expected


@pytest.mark.parametrize("value", [None, "1"], ids=["None", "str"])
@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_value_that_is_not_a_number_is_reported_not_compared(mode, value):
    """The worthless-goods pass compared every value with 0 after the type
    check had reported it, and validation raised a bare TypeError ("'>' not
    supported between instances of 'NoneType' and 'int'"), as did solve.
    Such a value is now reported once, by its type, and never compared."""
    market = Market((Good("A", 1),), (Buyer("b", (value,), 1),), mode)
    kind = "a Fraction in an exact" if mode.is_exact else "a float in a float"
    expected = [f"buyer b: value for good A {value!r} is not an int or {kind} market"]
    assert validate_market(market) == expected
    with pytest.raises(MarketError) as refused:
        solve(market)
    assert str(refused.value) == "invalid market: " + expected[0]


def test_an_int_beyond_the_float_range_is_a_float_market_violation():
    """A float market used to validate an int value of 10**400, and solve
    and check_clearing then died with a bare OverflowError ("int too large
    to convert to float"); with that supply, solve raised PriceDomainError
    on a price of 0.0. The loader refuses such tokens as beyond the float
    range, and validation now does too, so solve refuses the market."""
    huge = 10**400
    value = Market((Good("A", 1),), (Buyer("b", (huge,), 1),), float_mode())
    supply = Market((Good("A", huge),), (Buyer("b", (1,), 1),), float_mode())
    assert validate_market(value) == [
        "buyer b: value for good A 1e+400 is beyond the float range in a float market"
    ]
    assert validate_market(supply) == [
        "good A: supply 1e+400 is beyond the float range in a float market"
    ]
    for market in (value, supply):
        message = "invalid market: " + validate_market(market)[0]
        with pytest.raises(MarketError) as refused:
            solve(market)
        assert str(refused.value) == message
        with pytest.raises(MarketError) as refused:
            check_clearing(market, (1.0,))
        assert str(refused.value) == message
    # The edge is float()'s own: the largest int it converts is valid.
    edge = 2**1024 - 2**970
    assert float(edge - 1) == sys.float_info.max
    assert validate_market(Market((Good("A", edge - 1),), (Buyer("b", (1,), 1),), float_mode())) == []
    with pytest.raises(OverflowError):
        float(edge)
    assert validate_market(Market((Good("A", edge),), (Buyer("b", (1,), 1),), float_mode()))
    # An exact market holds any int.
    assert validate_market(value.coerced(EXACT)) == []
