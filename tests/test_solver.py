"""Both solvers end to end: proportional response with certified rounding,
the lattice descent fallback, and their cross-check.

The regression markets pinned here were found by randomized search and keep
hard-won behaviors covered: exact tie-event landings into ratio faces,
money-tie and budget-balance levels of one tie snap, iterates that stall
when a buyer is exactly indifferent to money at the minimum, and markets on
which the descent alone stopped above p* or failed its agreement gate.
"""

import dataclasses
import hashlib
import importlib
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from qfmarket import market as market_module
from qfmarket import solver
from qfmarket.feasibility import check_clearing, check_feasible
from qfmarket.flow import FlowNetwork
from qfmarket.market import (
    Buyer,
    Good,
    Market,
    MarketError,
    Outcome,
    aggregate,
    bang_per_buck,
    demand_patterns,
)
from qfmarket.marketio import load_market
from qfmarket.metrics import (
    VERDICT_CERTIFIED,
    certify_constrained_efficiency,
    is_competitive_equilibrium,
)
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import random_market
from qfmarket.solver import (
    InfeasibleStartError,
    SolverConvergenceError,
    initial_feasible_price,
    lattice_descent,
    solve,
    solve_eg,
)

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_solve_exact_reference_market(ref_exact):
    res = solve(ref_exact)
    assert res.p_star == (F(3, 5), F(3, 5))
    assert res.revenue == F(3)
    assert res.welfare == F(15)
    assert aggregate(res.allocation, 2) == (F(3), F(2))
    # the first reading's candidate clears, so the run stops 1.7e-3 from p*;
    # run on to its gap target, proportional response comes within 1e-5
    assert res.eg.iterations == 25
    assert res.method_agreement == max(abs(p - 0.6) for p in res.eg.prices)
    assert max(abs(p - 0.6) for p in solve_eg(ref_exact).prices) <= 1e-5
    assert res.clearing_certificate.clearing
    assert res.efficiency_certificate.certified
    assert res.certified_by == "rounding"
    assert res.descent.final == res.p_star
    assert res.descent.steps == () and res.descent.probes == 0


def test_solve_float_reference_market(ref_float):
    res = solve(ref_float)
    # the rounding certifies (3/5, 3/5) exactly and rounds it back
    assert res.p_star == (0.6, 0.6)
    assert abs(res.revenue - 3.0) <= 1e-9
    assert abs(res.welfare - 15.0) <= 1e-8


def test_solve_eg_converges_with_certified_gap(ref_float):
    eg = solver._solve_eg(solver._float_image(ref_float), 1e-10)
    assert eg.duality_gap <= 1e-10
    assert max(abs(p - 0.6) for p in eg.prices) <= 1e-4
    assert len(eg.allocation) == 3 and len(eg.leftover) == 3
    sold = [sum(row[k] for row in eg.allocation) for k in range(2)]
    assert abs(sold[0] - 3.0) <= 1e-6 and abs(sold[1] - 2.0) <= 1e-6


def test_solve_eg_runs_on_past_the_prefix_solve_makes(ref_exact):
    """solve's run is proportional response with no gap target, cut at the
    iterations it ran; solve_eg runs the same iterates on to its gap target.
    In both modes, and on 12345/8x4 #15, whose float run points to no
    candidate that clears, so it ends at its gap target and the descent
    certifies it."""
    markets = [ref_exact] + [_draw(0, k, 6, 6) for k in (0, 8, 15)] + [_draw(12345, 15, 8, 4)]
    for market in markets:
        for m in (market, market.coerced(float_mode())):
            eg = solve(m).eg
            image = solver._float_image(m)
            assert eg == solver._solve_eg(image, -1.0, max_iter=eg.iterations)
            assert solve_eg(m).iterations >= eg.iterations


def test_proportional_response_reads_the_market_float_table(ref_exact, ref_float):
    """The float image's values are the market's own read-only float table,
    read once per market, and hold each value read with float()."""
    for market in (ref_exact, ref_float):
        values = solver._float_image(market)[2]
        assert values.base is market.float_values and not values.flags.writeable
        assert values.tolist() == [[float(v) for v in b.values] for b in market.buyers]
        assert solver._float_image(market)[2].base is values.base


@pytest.mark.parametrize("value", [F(10) ** 400, F(1, 10**400)], ids=["huge", "tiny"])
def test_solve_eg_of_a_market_without_a_float_image_is_none(value):
    """solve_eg raised OverflowError on the huge value and ValueError on the
    tiny one, which reads as 0.0 and leaves good A valued by nobody."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (Buyer("b1", (value, F(2)), F(1)), Buyer("b2", (F(0), F(3)), F(1))),
        EXACT,
    )
    assert solve_eg(market) is None
    assert solve(market).eg is None


def test_an_exact_market_holding_a_float_is_refused():
    """It passed validation and solve died in demand_sets with an
    AttributeError; read as Fractions, the same numbers solve."""
    market = Market(
        (Good("a", 1), Good("b", 2)),
        (Buyer("x", (1.5, 2), 1), Buyer("y", (1, 3), 2)),
    )
    with pytest.raises(MarketError, match="value for good a 1.5 is not an int or a Fraction"):
        solve(market)
    assert solve(market.coerced(EXACT)).clearing_certificate.clearing


def test_zero_supply_goods_get_imputed_prices():
    market = Market(
        (Good("A", F(2)), Good("B", F(0))),
        (Buyer("b1", (F(2), F(5)), F(2)),),
        EXACT,
    )
    res = solve(market)
    # good B cannot trade; its price rises until A is weakly preferred
    assert res.p_star == (F(1), F(5, 2))
    assert res.revenue == F(2)


def test_a_market_without_active_goods_imputes_every_price():
    """Every good has zero supply, so proportional response does not run and
    the descent sets every price: each buyer's best ratio is money's 1, and
    each price falls to the highest value anyone holds for that good."""
    market = Market(
        (Good("A", F(0)), Good("B", F(0))),
        (Buyer("x", (F(2), F(1)), F(1)), Buyer("y", (F(1), F(3)), F(2))),
        EXACT,
    )
    assert solve_eg(market) is None
    res = solve(market)
    assert res.p_star == (F(2), F(3))
    assert res.certified_by == "descent"
    assert res.eg is None and res.method_agreement is None


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_proportional_response_skips_a_market_with_a_zero_supply_good(mode):
    """Good z has no supply. Proportional response ran 316,250 iterations on
    this market (about 2 s in either mode) before the descent answered in 6
    probes: no support can hold z, so the support never pointed to a
    candidate."""
    market = Market(
        (Good("g1", F(1)), Good("z", F(0))),
        (Buyer("b1", (F(1, 2), F(2)), F(1, 2)),),
        EXACT,
    ).coerced(mode)
    assert solve_eg(market) is None
    res = solve(market)
    assert (res.certified_by, res.eg, res.method_agreement) == ("descent", None, None)
    assert res.p_star == (F(1, 2), F(2)) and res.allocation == ((1, 0),)
    assert res.descent.probes == 6


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_proportional_response_skips_a_good_that_no_funded_buyer_values(mode):
    """Only c, who has no money, values B, so B's price can fall without
    bound: proportional response does not run, and the descent finds that
    there is no minimal price."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (Buyer("b", (F(2), F(0)), F(1)), Buyer("c", (F(0), F(3)), F(0))),
        EXACT,
    ).coerced(mode)
    assert solve_eg(market) is None
    with pytest.raises(SolverConvergenceError, match=r"goods \[2\] can fall without bound"):
        solve(market)


def _with_idle_good(market, value):
    """market with one more good, of supply 0, that every buyer values at value."""
    goods = market.goods + (Good("idle", market.mode.coerce(0)),)
    buyers = tuple(Buyer(b.name, b.values + (market.mode.coerce(value),), b.budget)
                   for b in market.buyers)
    return Market(goods, buyers, market.mode)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_zero_supply_good_changes_no_other_price_or_bundle(mode):
    """Metamorphic: appending a good of supply 0 that every buyer values
    leaves the other goods' p* and every bundle as they were, nobody
    receives the new good, and proportional response does not run. On the
    seed-0 battery, with the new good valued at 1, 5/2 and 9."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6).coerced(mode)
        res = solve(market)
        for value in (F(1), F(5, 2), F(9)):
            idle = solve(_with_idle_good(market, value))
            assert idle.eg is None and idle.certified_by == "descent", (draw, value)
            assert idle.p_star[:-1] == res.p_star, (draw, value)
            assert [row[:-1] for row in idle.allocation] == list(res.allocation), (draw, value)
            assert all(row[-1] == 0 for row in idle.allocation), (draw, value)


def test_a_descent_endpoint_that_does_not_clear_raises_with_both_solutions(
    ref_exact, monkeypatch
):
    """The descent's endpoint gets its own clearing check: a non-clearing
    one raises MethodDisagreementError carrying both solvers' results."""
    start = initial_feasible_price(ref_exact)
    stuck = solver.DescentTrace(start, (), start, 0)  # feasible, but sells nothing
    monkeypatch.setattr(solver, "_snap", lambda market, sets: None)
    monkeypatch.setattr(solver, "lattice_descent", lambda market, p0: stuck)
    with pytest.raises(solver.MethodDisagreementError, match="failed its clearing check") as err:
        solve(ref_exact)
    assert err.value.descent is stuck
    assert err.value.eg == solver._proportional_response(ref_exact)[0]


def test_a_rounded_candidate_that_fails_its_float_check_raises_at_once(ref_float, monkeypatch):
    """A candidate that cleared on the rational twin is p*, since clearing
    prices are unique, so the descent could only end at the same rational
    and fail the same float check. solve raises on the float re-check's
    failure without running the descent."""

    def float_checks_fail(market, p):
        cert = check_clearing(market, p)
        return cert if market.mode.is_exact else dataclasses.replace(cert, clearing=False)

    def no_descent(market, p0):
        pytest.fail("lattice_descent ran after a candidate cleared")

    monkeypatch.setattr(solver, "check_clearing", float_checks_fail)
    monkeypatch.setattr(solver, "lattice_descent", no_descent)
    with pytest.raises(
        solver.MethodDisagreementError, match="rounding endpoint failed its clearing check"
    ) as err:
        solve(ref_float)
    assert err.value.descent.final == (0.6, 0.6)
    assert err.value.descent.steps == () and err.value.descent.probes == 0
    assert err.value.eg == solver._proportional_response(ref_float)[0]


def test_initial_feasible_price_is_feasible(ref_exact):
    p0 = initial_feasible_price(ref_exact)
    assert p0 == (F(5), F(4))
    assert check_feasible(ref_exact, p0).feasible


def test_descent_trace_is_a_consistent_chain(ref_exact):
    trace = lattice_descent(ref_exact, initial_feasible_price(ref_exact))
    assert trace.start == (F(5), F(4))
    assert trace.final == (F(3, 5), F(3, 5))
    assert trace.probes >= len(trace.steps) > 0
    cursor = trace.start
    for step in trace.steps:
        assert step.before == cursor
        assert step.after != step.before
        cursor = step.after
    assert cursor == trace.final


def test_descent_rejects_infeasible_start(ref_exact):
    with pytest.raises(InfeasibleStartError):
        lattice_descent(ref_exact, (F(1, 2), F(1, 2)))


def test_descent_reads_a_float_start_as_the_checks_do(ref_exact, ref_float):
    """0.6 is just below 3/5, so (0.6, 0.6) is infeasible on the exact
    market. The descent used to read it through its shortest decimal, as
    (3/5, 3/5), and accept it; a float market still reads it that way."""
    assert not check_feasible(ref_exact, (0.6, 0.6)).feasible
    with pytest.raises(InfeasibleStartError):
        lattice_descent(ref_exact, (0.6, 0.6))
    assert lattice_descent(ref_float, (0.6, 0.6)).final == (0.6, 0.6)


def test_descent_rejects_markets_without_a_minimal_price():
    """Only a buyer without money values good B, so its price can fall to 0."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (Buyer("b1", (F(2), F(0)), F(1)), Buyer("b2", (F(1), F(1)), F(0))),
        EXACT,
    )
    with pytest.raises(SolverConvergenceError):
        lattice_descent(market, initial_feasible_price(market))


def test_descent_enters_exact_ratio_faces():
    """Minimal price on a face where four coordinates hold exact value ratios;
    fixed-step probes alone stall within a hair of it and never finish."""
    market = Market(
        (Good("g1", F(1)), Good("g2", F(1)), Good("g3", F(3)), Good("g4", F(5))),
        (
            Buyer("b1", (F(7), F(4, 3), F(1, 3), F(4)), F(2, 3)),
            Buyer("b2", (F(8, 3), F(7), F(2), F(1)), F(1, 2)),
            Buyer("b3", (F(1), F(2), F(1), F(1)), F(3)),
            Buyer("b4", (F(1), F(0), F(2), F(8, 3)), F(4)),
            Buyer("b5", (F(4), F(3, 4), F(1), F(7, 3)), F(5)),
        ),
        EXACT,
    )
    p_star = (F(632, 293), F(553, 293), F(553, 586), F(1106, 879))
    res = solve(market)
    assert res.p_star == p_star
    assert res.clearing_certificate.clearing
    assert lattice_descent(market, initial_feasible_price(market)).final == p_star


def _wedge_market(mode=EXACT):
    """Draw 10 of the seed-0 random_market(rng, 6, 6) battery."""
    return Market(
        (
            Good("g1", F(3)),
            Good("g2", F(6)),
            Good("g3", F(6)),
            Good("g4", F(4)),
            Good("g5", F(1)),
        ),
        (
            Buyer("b1", (F(1), F(1, 2), F(2), F(4), F(7, 3)), F(1, 2)),
            Buyer("b2", (F(1), F(7, 3), F(2), F(8), F(1)), F(3, 2)),
            Buyer("b3", (F(3), F(1), F(7, 4), F(3), F(0)), F(5, 3)),
            Buyer("b4", (F(4, 3), F(5), F(7, 3), F(1), F(3, 2)), F(1)),
        ),
        EXACT,
    ).coerced(mode)


WEDGE_P_STAR = (F(156, 517), F(1, 6), F(91, 517), F(3, 8), F(637, 3102))


def test_descent_escapes_singleton_demand_wedges():
    """Every buyer's argmax is a singleton near the minimum here, so descent
    must land tie events exactly instead of shrinking the step forever."""
    market = _wedge_market()
    res = solve(market)
    assert res.p_star == WEDGE_P_STAR
    assert res.clearing_certificate.clearing
    assert lattice_descent(market, initial_feasible_price(market)).final == WEDGE_P_STAR


def test_agreement_gate_tolerates_money_indifferent_degeneracy():
    """A buyer exactly indifferent to money at the minimum flattens the dual,
    so proportional response stalls microns away from p*: it ran 120,575
    iterations to 2.3e-6 and fell to the descent. Its support points at p*
    early, and its one exact check certifies p* by rounding after 75
    (agreement 3.6e-3)."""
    market = Market(
        (Good("g1", F(3)), Good("g2", F(3))),
        (
            Buyer("b1", (F(1, 3), F(7, 3)), F(5, 3)),
            Buyer("b2", (F(1, 2), F(7, 3)), F(3)),
            Buyer("b3", (F(7, 2), F(7, 2)), F(1)),
        ),
        EXACT,
    )
    res = solve(market)
    assert res.p_star == (F(1, 3), F(14, 9))
    assert res.certified_by == "rounding"
    assert res.eg.iterations <= 1_000
    assert res.clearing_certificate.clearing


def test_random_markets_solve_to_certified_minimal_prices():
    """Each draw is certified by rounding, and no 1% cut of p* is feasible.
    Draw 3 once ran 330,950 iterations to 6.8e-6 and fell to the descent;
    its support's candidate now clears after 75 (agreement 3.3e-2)."""
    rng = random.Random(11)
    for _ in range(6):
        market = random_market(rng)
        res = solve(market)
        assert res.certified_by == "rounding"
        assert res.eg.iterations <= 1_000
        cert = check_clearing(market, res.p_star)
        assert cert.feasible and cert.clearing
        for j in range(market.n):
            cut = tuple(
                v * F(99, 100) if k == j else v for k, v in enumerate(res.p_star)
            )
            assert not check_feasible(market, cut).feasible


def _draw(seed, index, max_buyers, max_goods):
    rng = random.Random(seed)
    for _ in range(index):
        random_market(rng, max_buyers, max_goods)
    return random_market(rng, max_buyers, max_goods)


def _assert_float_p_star(res, exact):
    assert res.clearing_certificate.clearing
    assert all(abs(a - float(b)) <= 1e-9 * max(1.0, float(b)) for a, b in zip(res.p_star, exact))


def test_float_wedge_market_solves():
    """The float descent ended here at a price that failed the clearing check."""
    _assert_float_p_star(solve(_wedge_market(float_mode())), WEDGE_P_STAR)


@pytest.mark.parametrize(
    "index, p_star",
    [
        (31, (F(1), F(11, 3), F(5, 6))),
        (35, (F(129, 290), F(172, 435), F(43, 232), F(43, 145))),
        (60, (F(4, 3), F(3, 2), F(16, 9))),
    ],
)
def test_float_draws_where_descent_stopped_above_p_star(index, p_star):
    """p* of 12345-family draws, exact and in floats, each certified by
    rounding. On #31 and #35 the float descent once stopped above p*. On
    #60 the support points at p* from iteration 75, where its check clears.
    While the check waited for the prices to agree or to be seen unable to,
    it came at 100; before that, while it waited for the candidate to
    settle, the support drifted at 550 to (61/46, 3/2, 122/69), which failed
    its check, and the run fell to the descent after 3,100 iterations."""
    market = _draw(12345, index, 8, 4)
    exact = solve(market)
    assert exact.p_star == p_star
    assert exact.certified_by == "rounding"
    floaty = solve(market.coerced(float_mode()))
    _assert_float_p_star(floaty, p_star)
    assert floaty.certified_by == "rounding"
    if index == 60:
        assert exact.eg.iterations == floaty.eg.iterations == 75


# One-buyer draws (seed, index, buyers, goods) whose buyer ties every good
# at p* but spends under _SUPPORT of its budget on g1, and their p*.
_UNDER_SUPPORT = (
    ((7, 11, 6, 6), (F(4, 101), F(128, 101), F(4, 101), F(40, 101), F(16, 101))),
    ((0, 15, 6, 6), (F(3, 1396), F(2, 349), F(3, 1396), F(7, 698), F(12, 349), F(9, 1396))),
)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_tie_spent_under_the_support_threshold_is_read_off_the_band(mode):
    """Random(7) 6x6 draw 11 and seed-0 battery draw 15: the one buyer
    spends 0.99% and 0.86% of its budget on g1, under _SUPPORT, so g1 has
    no level in the support and the support points to no candidate; both
    draws fell to the descent. The buyer's band set holds every good, and
    its candidate clears at the first reading."""
    for draw, p_star in _UNDER_SUPPORT:
        market = _draw(*draw).coerced(mode)
        res = solve(market)
        assert (res.certified_by, res.eg.iterations) == ("rounding", 25), draw
        spent = res.eg.allocation[0][0] * res.eg.prices[0] / float(market.buyers[0].budget)
        assert spent < solver._SUPPORT, draw
        assert res.p_star == tuple(map(mode.coerce, p_star)), draw


def test_money_indifferent_draw_beyond_absolute_agreement_gate():
    """Proportional response stalls about 1e-5 from p* = 3/2 here, past the
    descent's old agreement gate, so its prices never agree with its
    support's candidate: it ran 143,050 iterations and fell to the descent.
    The candidate is p* from the first reading, where its exact check
    certifies it."""
    res = solve(_draw(12345, 125, 8, 4))
    assert res.p_star == (F(3, 2),)
    assert res.certified_by == "rounding"
    assert res.eg.iterations == 25
    assert res.clearing_certificate.clearing


# Draws (seed, index, buyers, goods) whose proportional response crawled to
# 10^5 iterations or more, past every agreement stop, and fell to the descent.
_EG_TAIL = (
    *((12345, index, 8, 4) for index in (20, 48, 98, 113, 123, 125, 138)),
    *((5, index, 10, 8) for index in (2, 6, 14, 16)),
    *((7, index, 6, 6) for index in (28, 39)),
)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize("draw", _EG_TAIL, ids=[f"{s}-{i}" for s, i, _, _ in _EG_TAIL])
def test_settled_support_candidates_end_the_eg_tail(mode, draw):
    """Each of these supports points at p* within a few hundred iterations,
    and the exact check at the reading where that candidate first appears
    certifies it, although the prices are still far from it."""
    market = _draw(*draw).coerced(mode)
    res = solve(market)
    assert res.certified_by == "rounding"
    assert res.eg.iterations <= 1_000
    assert res.p_star == lattice_descent(market, initial_feasible_price(market)).final


@pytest.mark.parametrize("factor", [F(10**6), F(1, 10**6)])
def test_money_rescaling_scales_p_star_exactly(factor):
    rng = random.Random(3)
    for _ in range(8):
        market = random_market(rng, 4, 3)
        scaled = Market(
            market.goods,
            tuple(
                Buyer(b.name, tuple(v * factor for v in b.values), b.budget * factor)
                for b in market.buyers
            ),
            EXACT,
        )
        assert solve(scaled).p_star == tuple(v * factor for v in solve(market).p_star)


@pytest.mark.parametrize("s", [1e-9, 1e-12])
def test_a_float_market_with_little_money_sells_out(s):
    """Goods (1, 1), one buyer valuing them (2s, s) with budget s. With the
    flow's zero and slack floored at money 1, no flow was routed, and solve
    returned p* with the allocation ((0.0, 0.0),) certified as clearing."""
    market = Market(
        (Good("a", 1.0), Good("b", 1.0)), (Buyer("x", (2 * s, s), s),), float_mode()
    )
    result = solve(market)
    assert result.p_star == pytest.approx((2 * s / 3, s / 3), rel=1e-12)
    assert result.allocation[0] == pytest.approx((1.0, 1.0), rel=1e-12)
    assert is_competitive_equilibrium(market, Outcome(result.p_star, result.allocation))


@pytest.mark.parametrize("s", [1, F(1, 10**6), F(1, 10**12)])
@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_gap_target_scales_with_the_money(mode, s):
    """Goods (1, 1), buyers (2s, s) with budget s and (s, 3s) with budget 2s.
    With the gap target floored at money 1, the run at s = 1e-12 stopped
    after 25 iterations, before its support's check, and fell to the
    descent. At every scale solve's check of the first reading's candidate,
    at 25, now clears, and solve_eg meets the target 1e-11 * total budget
    after 75."""
    c = mode.coerce
    market = Market(
        (Good("a", c(1)), Good("b", c(1))),
        (Buyer("x", (c(2 * s), c(s)), c(s)), Buyer("y", (c(s), c(3 * s)), c(2 * s))),
        mode,
    )
    result = solve(market)
    assert result.certified_by == "rounding"
    assert result.eg.iterations == 25
    assert result.p_star == (c(s), c(2 * s))
    eg = solve_eg(market)
    assert eg.iterations == 75
    assert eg.duality_gap <= 3e-11 * s


def test_descent_fallback_runs_when_rounding_finds_nothing(ref_exact, monkeypatch):
    """The support of proportional response points to no candidate, so the
    run ends at its gap target and the descent answers; its endpoint needs
    no rounding of its own."""
    calls = []

    def finds_nothing(market, sets):
        calls.append(sets)
        return None

    monkeypatch.setattr(solver, "_snap", finds_nothing)
    res = solve(ref_exact)
    assert calls
    assert res.eg.duality_gap <= 3e-11  # the gap target 1e-11 * total budget
    assert res.p_star == (F(3, 5), F(3, 5))
    assert res.certified_by == "descent"
    assert res.descent.probes > 0
    assert res.descent.final == res.p_star
    assert res.clearing_certificate.clearing


def test_stalled_proportional_response_goes_to_the_descent(ref_exact, monkeypatch):
    """Proportional response returns its last iterate on a stall; solve does
    not fail on a run that ended above its gap target without a check that
    passed, but certifies the descent's answer. The first reading's
    candidate clears at iteration 25, so this support is made to point to
    none, and the run stalls at its cap of 50."""
    last = solver._solve_eg(solver._float_image(ref_exact), 1e-12, max_iter=25)
    assert last.iterations == 25
    assert last.duality_gap > 1e-12

    stalled = []
    run_eg = solver._solve_eg

    def stalls(image, target, stop=None):
        stalled.append(run_eg(image, target, max_iter=50, stop=stop))
        assert stalled[0].duality_gap > target
        return stalled[0]

    monkeypatch.setattr(solver, "_snap", lambda market, sets: None)
    monkeypatch.setattr(solver, "_solve_eg", stalls)
    res = solve(ref_exact)
    assert res.eg is stalled[0] and res.eg.iterations == 50
    assert res.p_star == (F(3, 5), F(3, 5))
    assert res.certified_by == "descent"
    assert res.clearing_certificate.clearing


def test_prices_agreeing_with_a_failed_candidate_go_to_the_descent(ref_exact, monkeypatch):
    """The stall guard: the reference market's candidate (3/5, 3/5) appears
    at the first reading, where its check is made to fail; it is not
    checked again, and the run stops at 75, where every price first agrees
    with it within _AGREE, far above the gap target. The descent then
    certifies the same price with the one other check."""
    checks = []

    def first_fails(market, p):
        checks.append(p)
        cert = check_clearing(market, p)
        return dataclasses.replace(cert, clearing=False) if len(checks) == 1 else cert

    monkeypatch.setattr(solver, "check_clearing", first_fails)
    res = solve(ref_exact)
    assert checks == [(F(3, 5), F(3, 5))] * 2
    assert res.certified_by == "descent"
    assert res.eg.iterations == 75 and res.eg.duality_gap > 3e-11
    assert res.method_agreement <= solver._AGREE * 0.6
    assert res.p_star == (F(3, 5), F(3, 5)) and res.clearing_certificate.clearing


def test_each_candidate_is_checked_once_where_it_first_appears(monkeypatch):
    """On the seed-0 battery and 12345/8x4 draws 0-59, in exact mode, the
    candidates checked are the distinct candidates the support reads, in
    the order they appear, each checked at the reading where it first
    appears, up to the one that clears; on the descent path the endpoint's
    check follows."""
    readings, checks = [], []
    snap = solver._snap

    def recorded(market, sets):
        readings.append(snap(market, sets))
        return readings[-1]

    def counted(market, p):
        checks.append((len(readings), p))
        return check_clearing(market, p)

    monkeypatch.setattr(solver, "_snap", recorded)
    monkeypatch.setattr(solver, "check_clearing", counted)
    failed = 0
    for seed, count, buyers, goods in ((0, 20, 6, 6), (12345, 60, 8, 4)):
        rng = random.Random(seed)
        for draw in range(count):
            readings.clear()
            checks.clear()
            res = solve(random_market(rng, buyers, goods))
            first = {}
            for k, candidate in enumerate(readings, start=1):
                if candidate is not None:
                    first.setdefault(candidate, k)
            want = sorted((k, c) for c, k in first.items())
            if res.certified_by == "descent":
                want.append((len(readings), res.p_star))
            assert checks == want, (seed, draw)
            failed += len(first) - (res.certified_by == "rounding")
    assert failed > 0


def _assert_close(p, exact, rel):
    assert all(abs(a - float(b)) <= rel * float(b) for a, b in zip(p, exact))


def test_acceptance_battery_is_certified_by_rounding():
    """Every seed-0 random_market(rng, 6, 6) draw is certified by a
    candidate of its support or of its band sets, exactly and in floats.
    (test_battery_stops_are_pinned counts their clearing checks.) The
    descent alone reaches the same p* on every draw through feasible,
    falling steps."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        exact = solve(market)
        assert exact.certified_by == "rounding"
        floaty = solve(market.coerced(float_mode()))
        assert floaty.certified_by == "rounding"
        _assert_float_p_star(floaty, exact.p_star)
        for m in (market, market.coerced(float_mode())):
            trace = lattice_descent(m, initial_feasible_price(m))
            if m.mode.is_exact:
                assert trace.final == exact.p_star
            else:
                _assert_close(trace.final, exact.p_star, 1e-12)
            cursor = trace.start
            for step in trace.steps:
                assert step.before == cursor
                assert all(a <= b for a, b in zip(step.after, step.before))
                assert check_feasible(m, step.after).feasible
                cursor = step.after


def _descending_market(mode):
    """A market that solve certifies by the descent: in floats 12345/8x4
    #15, whose proportional response runs to its gap target without a
    candidate that clears (see test_float_draw_whose_twin_breaks_tie_cycles);
    exact, seed-0 battery draw 15 with a good of supply 0 that every buyer
    values at 5/2 appended, where proportional response does not run."""
    if mode.is_exact:
        return _with_idle_good(_draw(0, 15, 6, 6), F(5, 2))
    return _draw(12345, 15, 8, 4).coerced(mode)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_descent_path_validates_once_and_builds_one_twin(monkeypatch, mode):
    """On _descending_market, the descent's path reads the verdict in solve,
    initial_feasible_price, lattice_descent's feasibility check and the
    clearing check. A float market builds its twin once and keeps it, so
    solve, a later bare lattice_descent and a later run of solve's
    proportional response share it; the trace is the one a bare
    lattice_descent gives, and eg is the run solve makes."""
    market = _descending_market(mode)
    validated, twins = [], []
    body, coerced = market_module._violations, Market.coerced

    def counted_body(m):
        validated.append(m)
        return body(m)

    def counted_coerced(m, to):
        if to.is_exact:
            twins.append(m)
        return coerced(m, to)

    monkeypatch.setattr(market_module, "_violations", counted_body)
    monkeypatch.setattr(Market, "coerced", counted_coerced)
    result = solve(market)
    assert result.certified_by == "descent"
    assert list(map(id, validated)) == [id(market)]
    assert list(map(id, twins)) == ([] if mode.is_exact else [id(market)])
    assert repr(result.descent) == repr(lattice_descent(market, initial_feasible_price(market)))
    assert repr(result.eg) == repr(solver._proportional_response(market)[0])
    assert list(map(id, twins)) == ([] if mode.is_exact else [id(market)])


def test_support_stop_shortens_proportional_response():
    """On the seed-0 battery, solve stops proportional response no later than
    a gap stop at 1e-8, and solve_eg, run on to its gap target, comes within
    1e-6 of p*. Every draw is certified by rounding; draw 15, whose support
    points to no candidate, by its band sets' candidate."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        for m in (market, market.coerced(float_mode())):
            res = solve(m)
            assert res.certified_by == "rounding"
            assert res.eg.iterations <= solver._solve_eg(solver._float_image(m), 1e-8).iterations
            gap = max(abs(a - float(b)) for a, b in zip(solve_eg(m).prices, res.p_star))
            assert gap <= 1e-6 * max(res.p_star)


# (eg.iterations, exact checks) of solve on seed-0 random_market(rng, 6, 6)
# draws 0-19, in exact mode and in floats alike; every draw is certified by
# rounding. The exact checks are those of the twin: one per distinct
# candidate of either reading up to the one that clears. A float draw calls
# check_clearing once more, on its rounded-back price in floats.
_BATTERY_STOPS = (
    (75, 3), (50, 2), (25, 1), (25, 2), (25, 1), (50, 2), (25, 1), (25, 1), (25, 1), (25, 1),
    (25, 2), (25, 2), (25, 1), (25, 1), (50, 2), (25, 1), (25, 1), (50, 1), (25, 1), (25, 1),
)


def test_battery_stops_are_pinned(monkeypatch):
    """Where proportional response stops on the acceptance battery, how p*
    is certified, and how many clearing checks it takes. A stop-rule change
    that adds failed checks shows here and not only as time."""
    checks = []

    def counted(market, p):
        checks.append(p)
        return check_clearing(market, p)

    monkeypatch.setattr(solver, "check_clearing", counted)
    rng = random.Random(0)
    for draw, (iterations, exact) in enumerate(_BATTERY_STOPS):
        market = random_market(rng, 6, 6)
        for m in (market, market.coerced(float_mode())):
            checks.clear()
            res = solve(m)
            pinned = (iterations, "rounding", exact + (not m.mode.is_exact))
            assert (res.eg.iterations, res.certified_by, len(checks)) == pinned, (draw, m.mode)


def test_float_draw_whose_twin_breaks_tie_cycles():
    """Reading this float market's values as decimals breaks a tie cycle, so
    rounding finds nothing; the descent answered 1.3e-8 relative below p*."""
    market = _draw(12345, 15, 8, 4).coerced(float_mode())
    res = solve(market)
    assert res.certified_by == "descent"
    assert res.clearing_certificate.clearing
    _assert_close(res.p_star, (F(55, 111), F(55, 74), F(55, 148), F(165, 296)), 1e-12)


def test_descent_lowers_zero_supply_goods_to_their_minimum():
    """Good 2 has no supply, so no budget is ever forced into it; its price
    must still fall until some buyer demands it."""
    market = Market(
        (Good("g1", F(2)), Good("g2", F(0)), Good("g3", F(3))),
        (
            Buyer("b1", (F(3), F(2), F(1)), F(1)),
            Buyer("b2", (F(1), F(4), F(2)), F(2)),
            Buyer("b3", (F(2), F(1), F(5)), F(3, 2)),
        ),
        EXACT,
    )
    trace = lattice_descent(market, initial_feasible_price(market))
    assert trace.final == (F(9, 16), F(9, 4), F(9, 8))


def test_the_descent_from_p_star_takes_no_step():
    """Minimality over every set of goods: started at p*, lattice_descent
    finds no set of goods whose prices can fall together, so it takes no
    step and spends one probe. That proves p* minimal without the uniqueness
    theorem. On every exact market of the seed-0 battery, 12345/8x4 #0-59
    and Random(7) 6x6 #0-39."""
    for seed, count, buyers, goods in ((0, 20, 6, 6), (12345, 60, 8, 4), (7, 40, 6, 6)):
        rng = random.Random(seed)
        for draw in range(count):
            market = random_market(rng, buyers, goods)
            p_star = solve(market).p_star
            trace = lattice_descent(market, p_star)
            assert (trace.steps, trace.probes, trace.final) == ((), 1, p_star), (seed, draw)


def _digest_family(workloads, family):
    """The markets of one of the other families of tools/digests.py, drawn
    as it draws them from perfbench's workload generators."""
    if family == "crowd-100":
        return [workloads.crowd_market(random.Random(100), m, n)
                for m, n in ((50, 3), (120, 4), (200, 4))]
    if family == "crowd-11":
        rng = random.Random(11)
        return [workloads.crowd_market(rng, 100, 4) for _ in range(3)]
    if family == "ladder-100":
        rng = random.Random(100)
        return [workloads.crowd_market(rng, m, n) for m, n in ((200, 4), (500, 4), (1000, 8))]
    if family == "bench-crowd":
        return workloads.crowd_base()
    return [market for market, _, _ in workloads.region_base()]


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize(
    "family", ["crowd-100", "crowd-11", "ladder-100", "bench-crowd", "bench-region"]
)
def test_the_descent_from_p_star_takes_no_step_on_the_digest_families(family, mode, monkeypatch):
    """test_the_descent_from_p_star_takes_no_step on the other families of
    tools/digests.py, in both modes. The descent starts from the exact p*
    of the market's rational twin, since a float p* read as the rational it
    is may lie just below p*, where the start is infeasible; it ends at
    solve's p* in the market's own mode."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for index, market in enumerate(_digest_family(workloads, family)):
        market = market.coerced(mode)
        p_star = solve(market).p_star
        trace = lattice_descent(market, solve(market.rational_twin()).p_star)
        assert (trace.steps, trace.probes, trace.final) == ((), 1, p_star), index


def test_a_float_market_descent_from_its_own_p_star_may_be_refused_on_the_twin(monkeypatch):
    """The descent reads a float start through its shortest decimal on the
    rational twin. On the first crowd-100 market in floats, solve's rounded
    p* read that way lies just below the exact p*, so the descent refuses
    it, naming the twin; from the twin's p* it takes no step."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    market = workloads.crowd_market(random.Random(100), 50, 3).coerced(float_mode())
    p_star = solve(market).p_star
    assert p_star == (0.5763278962777081, 0.465495608531995, 0.5319949811794228)
    with pytest.raises(InfeasibleStartError) as refused:
        lattice_descent(market, p_star)
    assert str(refused.value) == (
        f"start price {p_star!r} is not feasible on the rational twin,"
        " each float read as its shortest decimal"
    )
    assert lattice_descent(market, solve(market.rational_twin()).p_star).final == p_star


def _fraction_event(market, p, down):
    """The descent's next event as it was computed before it read the ratio
    table: over the buyers whose bang_per_buck set misses `down`, the
    largest max(v_k / p_k for k in down) / max(1, max_j v_j / p_j), in
    Fractions; the int 0 when there is none."""
    nearest = 0
    for buyer in market.buyers:
        if bang_per_buck(buyer, p).isdisjoint(down):
            inside = max(buyer.values[k - 1] / p[k - 1] for k in down)
            best = max([1] + [v / price for v, price in zip(buyer.values, p)])
            nearest = max(nearest, inside / best)
    return nearest


def test_the_table_read_event_is_the_fraction_formula(monkeypatch):
    """At every step of these descents, each run on the rational twin from
    the start solve would give it, _next_event read off demand_patterns'
    ratio table equals the Fraction formula, in value and in type: the
    descents of seed-0 battery #15, of Random(7) 6x6 #11 in both modes and
    of 12345/8x4 #15 in floats, and those from initial_feasible_price of
    crowd_market(Random(100), 200, 4) and the first bench `crowd` market."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    markets = [
        _draw(0, 15, 6, 6),
        _draw(7, 11, 6, 6),
        _draw(7, 11, 6, 6).coerced(float_mode()),
        _draw(12345, 15, 8, 4).coerced(float_mode()),
        workloads.crowd_market(random.Random(100), 200, 4),
        workloads.crowd_base()[0],
    ]
    events = zeros = 0
    for market in markets:
        twin = market.rational_twin()
        start = tuple(map(EXACT.coerce, initial_feasible_price(market)))
        steps = lattice_descent(twin, start).steps
        assert steps
        for step in steps:
            down = frozenset(step.goods)
            _, ratios, best, patterns = demand_patterns(twin, step.before)
            got = solver._next_event(ratios.tolist(), best.tolist(), patterns, down)
            want = _fraction_event(twin, step.before, down)
            assert (got, type(got)) == (want, type(want)), (market.m, step)
            events += 1
            zeros += got == 0
    assert (events, zeros) == (89, 26)


def _walk_snap(market, sets):
    """_snap as it was written before it indexed the buyers by good: for
    each good the walk reaches, every buyer's set is read, and each of a
    buyer's links is followed from each of its goods; the levels are read
    buyer by buyer."""
    n = market.n
    weight, component, members = {}, {}, {}
    for root in range(1, n + 1):
        if root in component:
            continue
        cid = len(members)
        members[cid] = [root]
        component[root] = cid
        weight[root] = F(1)
        frontier = [root]
        while frontier:
            j = frontier.pop()
            for i, goods in enumerate(sets):
                if j not in goods:
                    continue
                values = market.buyers[i].values
                for k in goods:
                    if k == 0 or k == j:
                        continue
                    w = weight[j] * values[k - 1] / values[j - 1]
                    if k in weight:
                        if weight[k] != w:
                            return None
                    else:
                        weight[k] = w
                        component[k] = cid
                        members[cid].append(k)
                        frontier.append(k)
    level = [None] * len(members)
    unit, budgets = market_module.integer_budgets(market)
    attached_budget = [0] * len(members)
    for buyer, budget, goods in zip(market.buyers, budgets, sets):
        tied = [j for j in goods if j != 0]
        if not tied:
            continue
        cid = component[tied[0]]
        attached_budget[cid] += budget
        if 0 in goods:
            for j in tied:
                pin = buyer.values[j - 1] / weight[j]
                if level[cid] is None:
                    level[cid] = pin
                elif level[cid] != pin:
                    return None
    for cid, goods in members.items():
        if level[cid] is None:
            if not attached_budget[cid]:
                return None
            mass = sum(weight[j] * market.goods[j - 1].supply for j in goods)
            level[cid] = F(attached_budget[cid], unit) / mass
    return tuple(level[component[j]] * weight[j] for j in range(1, n + 1))


def test_snap_reads_what_the_full_walk_reads(monkeypatch):
    """_snap follows each buyer's links once, from the buyers that tie each
    good, and equals _walk_snap in value and type on every reading of both
    kinds that solve makes on the seed-0 battery and Random(7) 6x6 #0-39 in
    both modes, on the bench `crowd` markets in floats and on
    crowd_market(Random(100), 200, 4)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    markets = []
    for seed, count in ((0, 20), (7, 40)):
        rng = random.Random(seed)
        for _ in range(count):
            market = random_market(rng, 6, 6)
            markets += [market, market.coerced(float_mode())]
    markets += [market.coerced(float_mode()) for market in workloads.crowd_base()]
    markets.append(workloads.crowd_market(random.Random(100), 200, 4))
    readings = []
    snap = solver._snap

    def recorded(market, sets):
        readings.append((market, sets))
        return snap(market, sets)

    monkeypatch.setattr(solver, "_snap", recorded)
    for market in markets:
        solve(market)
    found = 0
    for market, sets in readings:
        got, want = snap(market, sets), _walk_snap(market, sets)
        assert (got, type(got)) == (want, type(want)), sets
        found += got is not None
    assert 0 < found < len(readings)


def test_descent_probe_count_stays_small_on_eight_goods():
    """The subset sweep spent 74,946 probes on this 9x8 market."""
    market = _draw(5, 22, 10, 8)
    trace = lattice_descent(market, initial_feasible_price(market))
    assert trace.final == solve(market).p_star
    assert trace.probes <= 500


def _many_buyers(rng, m, n):
    """m buyers over n goods, every entry dyadic: values and budgets in
    quarters, supplies between m/4 and m."""
    goods = tuple(Good(f"g{j + 1}", F(rng.randint(m // 4, m))) for j in range(n))
    rows = [[F(rng.randint(0, 16), 4) for _ in range(n)] for _ in range(m)]
    buyers = tuple(
        Buyer(f"b{i + 1}", tuple(rows[i]), F(rng.randint(1, 8), 4)) for i in range(m)
    )
    return Market(goods, buyers, EXACT)


def test_many_buyer_descent_trace_is_pinned():
    """The whole descent trace of a 120x4 market: probes, the goods of each
    step, the final price, and a digest of every step's prices before and
    after, all as recorded before the flow sweep and integer demand sets."""
    market = _many_buyers(random.Random(120), 120, 4)
    trace = lattice_descent(market, initial_feasible_price(market))
    text = ";".join(
        f"{step.goods}:{','.join(map(str, step.before))}:{','.join(map(str, step.after))}"
        for step in trace.steps
    )
    assert trace.probes == 114
    assert "".join(str(len(step.goods)) for step in trace.steps) == (
        "444444444444443434343434343421341414"
    )
    assert trace.final == (F(45773, 116982), F(45773, 116982), F(17605, 38994), F(85007, 233964))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bce244b62f86734fff83f7626784b3471d46f414b215dca6ed92964cdd77441b"
    )


def _crowd40():
    """The first market of the benchmark's `crowd` workload: perfbench's
    crowd_market at Random(0), 40x2, which draws what _many_buyers draws
    when every good has a positive value, as both do here."""
    return _many_buyers(random.Random(0), 40, 2)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_late_candidate_is_checked_where_it_first_appears(mode, monkeypatch):
    """The third market that perfbench's crowd_market draws from Random(11)
    at 100x4. Its band sets first point at p* after 1,050 iterations, and
    the check made there clears; its support pointed there after 1,275.
    While the check waited for the prices to agree or to be seen unable to,
    it came at 1,300, when their gap had grown; while a gap that did not
    shrink waited for the candidate to hold for 500 iterations, at 1,775."""
    rng = random.Random(11)
    drawn = [_many_buyers(rng, 100, 4) for _ in range(3)][2]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(11)
    assert [workloads.crowd_market(rng, 100, 4) for _ in range(3)][2] == drawn
    market = drawn.coerced(mode)
    res = solve(market)
    assert (res.eg.iterations, res.certified_by) == (1_050, "rounding")
    assert res.p_star == lattice_descent(market, initial_feasible_price(market)).final


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_gap_too_slow_to_agree_is_checked_at_once(mode):
    """The band sets point at p* at the first reading, 25 iterations in,
    while the prices are still far from it, and its one check clears there.
    The support points there after 150 iterations; its check used to wait
    for the candidate to settle, at 650."""
    market = _crowd40().coerced(mode)
    res = solve(market)
    assert res.certified_by == "rounding"
    assert res.p_star == lattice_descent(market, initial_feasible_price(market)).final
    assert res.eg.iterations == 25
    assert res.method_agreement > solver._AGREE * max(res.p_star)


def test_the_support_checks_a_candidate_at_its_first_call_only(monkeypatch):
    """_Support fed the bids of the crowd market's run cut at 150
    iterations, where its support points at p*, at prices 1% above p*: the
    check comes at the first call, however far the prices are, and a
    candidate that clears stops the run there. Made to fail, the check is
    not repeated: later calls at the same prices do not stop the run, and
    the first call with every price within _AGREE of the failed candidate
    does. On the way the band sets point to one other candidate, which gets
    its own one check."""
    market = _crowd40()
    res = solve(market)
    values = solver._float_image(market)[2]
    eg = solver._solve_eg(solver._float_image(market), -1.0, max_iter=150)
    bids = np.array(
        [[x * p for x, p in zip(row, eg.prices)] + [money] for row, money in zip(eg.allocation, eg.leftover)]
    )
    target = np.array([float(v) for v in res.p_star])
    buyers = np.arange(market.m)
    checks = []

    def counted(m, p):
        checks.append(p)
        return check_clearing(m, p)

    monkeypatch.setattr(solver, "check_clearing", counted)
    support = solver._Support(market, values)
    assert support(buyers, bids, target * 1.01)
    assert checks == [res.p_star] and support.cleared[0] == res.p_star

    def fails(m, p):
        checks.append(p)
        return dataclasses.replace(check_clearing(m, p), clearing=False)

    monkeypatch.setattr(solver, "check_clearing", fails)
    checks.clear()
    support = solver._Support(market, values)
    stops = [support(buyers, bids, target * (1 + gap)) for gap in (1e-2, 1e-2, 1e-5, 1e-7)]
    assert stops == [False, False, False, True]
    assert checks == [res.p_star, (F(83, 148), F(3, 4))] and support.cleared is None


def test_the_band_sets_check_a_candidate_the_support_misses(monkeypatch):
    """_Support fed Random(7) 6x6 draw 11's spending at p*: its one buyer
    spends 0.99% of its budget on g1, under _SUPPORT, so the support points
    to no candidate, while at p* the buyer's band set holds every good and
    points to p*. That candidate gets one check at the first call, which
    clears and stops the run. Made to fail, it is never checked again: not
    when the band drops g1 (its price 5% up) and the candidate with it, nor
    when the prices come back to p*. The stall guard watches only the
    support's candidate, so no call stops the run."""
    (draw, exact_p_star), _ = _UNDER_SUPPORT
    market = _draw(*draw)
    p_star = tuple(map(F, exact_p_star))
    values = solver._float_image(market)[2]
    prices = np.array([float(v) for v in p_star])
    supply = np.array([float(g.supply) for g in market.goods])
    bids = np.append(prices * supply, 0.0)[None, :]  # every good sold, no money kept
    buyers = np.arange(market.m)
    checks = []

    def counted(m, p):
        checks.append(p)
        return check_clearing(m, p)

    monkeypatch.setattr(solver, "check_clearing", counted)
    support = solver._Support(market, values)
    assert support(buyers, bids, prices)
    assert support.candidate is None
    assert checks == [p_star] and support.cleared[0] == p_star

    def fails(m, p):
        checks.append(p)
        return dataclasses.replace(check_clearing(m, p), clearing=False)

    monkeypatch.setattr(solver, "check_clearing", fails)
    checks.clear()
    support = solver._Support(market, values)
    up = prices * np.array([1.05] + [1.0] * (market.n - 1))
    stops, pointed = [], []
    for p in (prices, up, prices):
        stops.append(support(buyers, bids, p))
        pointed.append(support._band_candidate)
    assert stops == [False] * 3 and pointed == [p_star, None, p_star]
    assert support.candidate is None and support.cleared is None
    assert checks == [p_star]


def test_bench_crowd_markets_are_certified_at_an_early_reading(monkeypatch):
    """The eleven markets of the benchmark's `crowd` workload, in floats, as
    perfbench's crowd_base draws them: each is certified by rounding within
    75 iterations, where their supports alone took 75 to 925."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    got = [solve(market.coerced(float_mode())) for market in workloads.crowd_base()]
    assert [res.certified_by for res in got] == ["rounding"] * 11
    assert [res.eg.iterations for res in got] == [25, 25, 75, 25, 25, 25, 50, 50, 25, 75, 50]


# (draw, iterations, prices, duality gap) of proportional response run to
# the gap 1e-8. The exact and float images of each market give the same
# numbers.
_EG_PINS = (
    (None, 75, (0.5999999955737777, 0.6000000066393335), 3.6886014243009413e-09),
    (0, 850, (2.333333328475066, 0.8333333292308187, 0.8333333295836798, 0.7142857087205543),
     7.900457177356657e-09),
    (8, 50, (1.750000000045673,), 3.3200775462205456e-11),
)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize("draw, iterations, prices, gap", _EG_PINS, ids=["reference", "draw0", "draw8"])
def test_proportional_response_iterates_are_pinned(ref_exact, mode, draw, iterations, prices, gap):
    market = ref_exact if draw is None else _draw(0, draw, 6, 6)
    if not mode.is_exact:
        market = market.coerced(mode)
    sol = solver._solve_eg(solver._float_image(market), 1e-8)
    assert sol.iterations == iterations
    assert sol.prices == pytest.approx(prices, rel=1e-12, abs=0.0)
    assert sol.duality_gap == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_exact_flow_networks_carry_integer_capacities(monkeypatch):
    """Exact networks are scaled to ints, in the clearing checks and in the
    descent's routings alike."""
    capacities = []
    add_edge = FlowNetwork.add_edge

    def spy(net, u, v, capacity):
        capacities.append(capacity)
        return add_edge(net, u, v, capacity)

    monkeypatch.setattr(FlowNetwork, "add_edge", spy)
    rng = random.Random(0)
    for _ in range(20):
        market = random_market(rng, 6, 6)
        solve(market)
        lattice_descent(market, initial_feasible_price(market))
    assert capacities
    assert all(type(c) is int for c in capacities)


def test_market_without_a_float_image_goes_to_the_descent():
    """A budget beyond the float range leaves proportional response nothing
    to run on; solve used to raise OverflowError here."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (
            Buyer("b1", (F(2), F(2)), F(10) ** 400),
            Buyer("b2", (F(2), F(3)), F(1)),
        ),
        EXACT,
    )
    res = solve(market)
    assert res.p_star == (F(2), F(2))
    assert res.certified_by == "descent"
    assert res.descent.probes == 8
    assert res.clearing_certificate.clearing
    assert res.eg is None and res.method_agreement is None


def test_market_whose_float_image_loses_a_value_goes_to_the_descent():
    """Good A's only positive value, 1e-400, reads as 0.0 in floats, so the
    float image has a good nobody values; solve used to raise ValueError."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (
            Buyer("b1", (F("1e-400"), F(2)), F(1)),
            Buyer("b2", (F(0), F(3)), F(1)),
        ),
        EXACT,
    )
    res = solve(market)
    assert res.certified_by == "descent"
    assert res.clearing_certificate.clearing
    assert res.eg is None and res.method_agreement is None


def test_efficiency_certificate_matches_the_reference_certifier(fixture_dir):
    """solve reads its efficiency certificate off the clearing certificate;
    certify_constrained_efficiency, which re-derives it from the outcome
    alone, gives the same verdict and welfare on the seed-0 battery and the
    fixtures, in both modes."""
    rng = random.Random(0)
    markets = [random_market(rng, 6, 6) for _ in range(20)]
    for path in sorted(fixture_dir.glob("*.json")):
        markets.append(load_market(path.read_bytes(), EXACT).market)
    for market in markets:
        for m in (market, market.coerced(float_mode())):
            res = solve(m)
            reference = certify_constrained_efficiency(m, Outcome(res.p_star, res.allocation))
            assert res.efficiency_certificate.verdict == reference.verdict == VERDICT_CERTIFIED
            assert res.efficiency_certificate.welfare == reference.welfare == res.welfare


# 12345/8x4 draws whose allocation once moved when their buyers were
# shuffled: the clearing check routed one node per buyer, in buyer order.
_PERMUTED_DRAWS = (15, 20, 30, 36, 47, 80, 107, 124, 128)


def test_permuting_buyers_or_goods_permutes_p_star():
    """Buyer order does not move p*, and reordering the goods reorders p*,
    exactly, in both modes. Shuffling the buyers shuffles the allocation's
    bundles the same way: the clearing check routes demand patterns in an
    order that buyer order does not reach. On the seed-0 battery and the
    12345/8x4 draws of _PERMUTED_DRAWS, each shuffled by Random(its index)."""
    rng = random.Random(0)
    inputs = [(draw, random_market(rng, 6, 6)) for draw in range(20)]
    rng = random.Random(12345)
    draws = [random_market(rng, 8, 4) for _ in range(max(_PERMUTED_DRAWS) + 1)]
    inputs += [(index, draws[index]) for index in _PERMUTED_DRAWS]
    for draw, market in inputs:
        shuffle = random.Random(draw)
        perm = list(range(market.m))
        shuffle.shuffle(perm)
        order = list(range(market.n))
        shuffle.shuffle(order)
        by_buyers = Market(market.goods, tuple(market.buyers[i] for i in perm), EXACT)
        by_goods = Market(
            tuple(market.goods[k] for k in order),
            tuple(
                Buyer(b.name, tuple(b.values[k] for k in order), b.budget)
                for b in market.buyers
            ),
            EXACT,
        )
        for mode in (EXACT, float_mode()):
            base = solve(market.coerced(mode))
            shuffled = solve(by_buyers.coerced(mode))
            assert shuffled.p_star == base.p_star
            assert shuffled.allocation == tuple(base.allocation[i] for i in perm), (draw, mode)
            p_star = base.p_star
            assert solve(by_goods.coerced(mode)).p_star == tuple(p_star[k] for k in order)


def _redenominate(market, j, c):
    """Good j (0-based) counted in units c times smaller: its supply divided
    by c, every value for it multiplied by c."""
    goods = tuple(
        Good(g.name, g.supply / c if k == j else g.supply) for k, g in enumerate(market.goods)
    )
    buyers = tuple(
        Buyer(b.name, tuple(v * c if k == j else v for k, v in enumerate(b.values)), b.budget)
        for b in market.buyers
    )
    return Market(goods, buyers, market.mode)


def _split(market, i, shares):
    """Buyer i (0-based) replaced by bids with its values and budgets
    budget * share, one per share."""
    b = market.buyers[i]
    bids = tuple(Buyer(f"{b.name}/{k}", b.values, b.budget * s) for k, s in enumerate(shares))
    return Market(market.goods, market.buyers[:i] + bids + market.buyers[i + 1:], market.mode)


def _assert_redenominating_scales_p_star(market, j, c):
    base, moved = solve(market), solve(_redenominate(market, j, c))
    assert moved.p_star == tuple(p * c if k == j else p for k, p in enumerate(base.p_star))
    assert moved.allocation == tuple(
        tuple(x / c if k == j else x for k, x in enumerate(bundle)) for bundle in base.allocation
    )
    assert (moved.revenue, moved.welfare) == (base.revenue, base.welfare)


def _assert_splitting_keeps_p_star(market, i, shares):
    """p* and revenue stay; each bid gets its budget share of buyer i's
    bundle, and every other buyer keeps its bundle."""
    base, split = solve(market), solve(_split(market, i, shares))
    assert (split.p_star, split.revenue) == (base.p_star, base.revenue)
    bids = split.allocation[i:i + len(shares)]
    assert bids == tuple(tuple(share * x for x in base.allocation[i]) for share in shares)
    others = split.allocation[:i] + split.allocation[i + len(shares):]
    assert others == base.allocation[:i] + base.allocation[i + 1:]


def test_redenominating_a_good_scales_its_price_exactly():
    """Supply / c and values x c for one good: p*_j is multiplied by c, that
    good's column of the allocation divided by c, and revenue and welfare
    stay, exactly, on the seed-0 battery."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        for c in (F(3), F(1, 7)):
            _assert_redenominating_scales_p_star(market, draw % market.n, c)


def test_splitting_a_buyer_keeps_p_star_exactly():
    """A buyer replaced by same-valued bids whose budgets sum to its own
    leaves p* and revenue unchanged, exactly, on the seed-0 battery; each
    bid gets its share of the buyer's bundle, and the other bundles stay."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        for shares in ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 6), F(1, 2))):
            _assert_splitting_keeps_p_star(market, draw % market.m, shares)


def test_redenominating_and_splitting_float_markets():
    """The same two relations in float mode, bundles included, on dyadic
    markets (values and budgets in quarters), where scaling by a power of
    two and halving or quartering a budget round nothing."""
    for seed in range(10):
        market = _many_buyers(random.Random(seed), 6, 4).coerced(float_mode())
        for c in (4.0, 0.125):
            _assert_redenominating_scales_p_star(market, seed % market.n, c)
        _assert_splitting_keeps_p_star(market, seed % market.m, (0.5, 0.25, 0.25))
