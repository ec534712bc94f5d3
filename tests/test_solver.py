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
    assert res.method_agreement <= 1e-5
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


def test_solve_eg_is_the_run_solve_makes(ref_exact):
    """In both modes, and on draw 15, whose support points to no candidate,
    so its run ends at its first gap check and the descent certifies it."""
    markets = [ref_exact] + [_draw(0, k, 6, 6) for k in (0, 8, 15)]
    for market in markets:
        for m in (market, market.coerced(float_mode())):
            assert solve_eg(m) == solve(m).eg


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
    assert err.value.eg == solve_eg(ref_exact)


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
    assert err.value.eg == solve_eg(ref_float)


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
    #60 the support points at p* from iteration 75; at 100 its gap to the
    prices shrinks too slowly to agree within _SETTLE, so its check comes
    at once and clears. While the check waited for _SETTLE, the support
    drifted at 550 to (61/46, 3/2, 122/69), which failed its check, and the
    run fell to the descent after 3,100 iterations."""
    market = _draw(12345, index, 8, 4)
    exact = solve(market)
    assert exact.p_star == p_star
    assert exact.certified_by == "rounding"
    floaty = solve(market.coerced(float_mode()))
    _assert_float_p_star(floaty, p_star)
    assert floaty.certified_by == "rounding"
    if index == 60:
        assert exact.eg.iterations == floaty.eg.iterations == 100


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_support_share_under_the_threshold_leaves_no_candidate(mode):
    """Random(7) 6x6 draw 11, with the same cause as seed-0 battery draw 15:
    its one buyer ties all five goods at p* but spends 0.99% of its budget on g1,
    under _SUPPORT, so g1 has no level and _snap finds no candidate. The gap
    is 0 at the first check, and the descent answers."""
    market = _draw(7, 11, 6, 6).coerced(mode)
    res = solve(market)
    assert res.certified_by == "descent"
    assert (res.eg.iterations, res.eg.duality_gap) == (25, 0.0)
    spent = res.eg.allocation[0][0] * res.eg.prices[0] / float(market.buyers[0].budget)
    assert 0.0098 < spent < solver._SUPPORT
    p_star = (F(4, 101), F(128, 101), F(4, 101), F(40, 101), F(16, 101))
    assert res.p_star == tuple(map(mode.coerce, p_star))


def test_money_indifferent_draw_beyond_absolute_agreement_gate():
    """Proportional response stalls about 1e-5 from p* = 3/2 here, past the
    descent's old agreement gate, so its prices never agree with its
    support's candidate: it ran 143,050 iterations and fell to the descent.
    Its gap shrinks too slowly to agree in time, so its exact check comes
    early and certifies p* after 75."""
    res = solve(_draw(12345, 125, 8, 4))
    assert res.p_star == (F(3, 2),)
    assert res.certified_by == "rounding"
    assert res.eg.iterations <= 1_000
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
    """Each of these supports points at p* within a few hundred iterations;
    once its prices cannot agree with it within _SETTLE iterations, one
    exact check certifies it, although the prices are still far from it."""
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
    after 25 iterations, before its support agreed, and fell to the descent;
    at every scale it now certifies by rounding after 50."""
    c = mode.coerce
    market = Market(
        (Good("a", c(1)), Good("b", c(1))),
        (Buyer("x", (c(2 * s), c(s)), c(s)), Buyer("y", (c(s), c(3 * s)), c(2 * s))),
        mode,
    )
    result = solve(market)
    assert result.certified_by == "rounding"
    assert result.eg.iterations == 50
    assert result.p_star == (c(s), c(2 * s))


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
    not fail on a run that ended above its gap target without its support
    agreeing, but certifies the descent's answer."""
    last = solver._solve_eg(solver._float_image(ref_exact), 1e-12, max_iter=25)
    assert last.iterations == 25
    assert last.duality_gap > 1e-12

    stalled = []
    run_eg = solver._solve_eg

    def stalls(image, target, stop=None):
        # capped at 50 iterations; the support first agrees at 75
        stalled.append(run_eg(image, target, max_iter=50, stop=stop))
        assert stalled[0].duality_gap > target
        return stalled[0]

    monkeypatch.setattr(solver, "_solve_eg", stalls)
    res = solve(ref_exact)
    assert res.eg is stalled[0] and res.eg.iterations == 50
    assert res.p_star == (F(3, 5), F(3, 5))
    assert res.certified_by == "descent"
    assert res.clearing_certificate.clearing


def _assert_close(p, exact, rel):
    assert all(abs(a - float(b)) <= rel * float(b) for a, b in zip(p, exact))


def test_acceptance_battery_is_certified_by_rounding():
    """Every seed-0 random_market(rng, 6, 6) draw but 15 is certified by its
    support's candidate, exactly and in floats. Draw 15's support points to
    no candidate and its run ends at its first gap check, so the descent
    answers it. (test_battery_stops_are_pinned counts their clearing checks.)
    The descent alone reaches the same p* on every draw through feasible,
    falling steps."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        certified_by = "descent" if draw == 15 else "rounding"
        exact = solve(market)
        assert exact.certified_by == certified_by
        floaty = solve(market.coerced(float_mode()))
        assert floaty.certified_by == certified_by
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


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_descent_path_validates_once_and_builds_one_twin(monkeypatch, mode):
    """Seed-0 battery draw 15 is certified by the descent, whose path reads
    the verdict in solve, initial_feasible_price, lattice_descent's
    feasibility check and the clearing check. A float market builds its
    twin once and keeps it, so solve, a later bare lattice_descent and
    solve_eg share it; the trace is the one a bare lattice_descent gives."""
    market = _draw(0, 15, 6, 6).coerced(mode)
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
    assert repr(result.eg) == repr(solve_eg(market))
    assert list(map(id, twins)) == ([] if mode.is_exact else [id(market)])


def test_support_stop_shortens_proportional_response():
    """On the seed-0 battery, solve stops proportional response no later than
    a gap stop at 1e-8, within 1e-6 of p*. Every draw but 15 is certified by
    its support candidate; draw 15's support points to no candidate, and its
    run ends at its first gap check."""
    rng = random.Random(0)
    for draw in range(20):
        market = random_market(rng, 6, 6)
        for m in (market, market.coerced(float_mode())):
            res = solve(m)
            assert res.certified_by == ("descent" if draw == 15 else "rounding")
            assert res.eg.iterations <= solver._solve_eg(solver._float_image(m), 1e-8).iterations
            assert res.method_agreement <= 1e-6 * max(res.p_star)


# (eg.iterations, certified_by) of solve on seed-0 random_market(rng, 6, 6)
# draws 0-19, in exact mode and in floats alike: the runs whose agreement
# acceptance check 8 reads. Each draw calls check_clearing once, the check
# that clears its support's candidate or, on draw 15, the descent endpoint's;
# a float draw certified by rounding calls it once more, on its rounded-back
# price in floats.
_BATTERY_STOPS = tuple(
    (iterations, "descent" if draw == 15 else "rounding")
    for draw, iterations in enumerate(
        (600, 500, 50, 125, 550, 150, 25, 25, 50, 25, 175, 225, 25, 25, 200, 25, 250, 175, 150, 150)
    )
)


def test_battery_stops_are_pinned(monkeypatch):
    """Where proportional response stops on the acceptance battery, how p*
    is certified, and how many clearing checks it takes. A stop-rule change
    that moves these runs moves the agreement that acceptance check 8 reads,
    and one that adds failed checks shows here and not only as time."""
    checks = []

    def counted(market, p):
        checks.append(p)
        return check_clearing(market, p)

    monkeypatch.setattr(solver, "check_clearing", counted)
    rng = random.Random(0)
    for draw, stop in enumerate(_BATTERY_STOPS):
        market = random_market(rng, 6, 6)
        for m in (market, market.coerced(float_mode())):
            checks.clear()
            res = solve(m)
            pinned = (*stop, 1 + (not m.mode.is_exact and stop[1] == "rounding"))
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
def test_a_gap_that_grows_is_checked_at_once(mode, monkeypatch):
    """The third market that perfbench's crowd_market draws from Random(11)
    at 100x4. Its support first points at p* after 1,275 iterations, and at
    the next reading the prices' gap to it has grown, so they cannot agree
    in time: the check comes then and clears, after 1,300. While a gap that
    did not shrink waited for the candidate to hold for _SETTLE iterations,
    the check came at 1,775."""
    rng = random.Random(11)
    drawn = [_many_buyers(rng, 100, 4) for _ in range(3)][2]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(11)
    assert [workloads.crowd_market(rng, 100, 4) for _ in range(3)][2] == drawn
    market = drawn.coerced(mode)
    res = solve(market)
    assert (res.eg.iterations, res.certified_by) == (1_300, "rounding")
    assert res.p_star == lattice_descent(market, initial_feasible_price(market)).final


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_gap_too_slow_to_agree_is_checked_at_once(mode):
    """The support points at p* early, but the prices close in on it too
    slowly to agree before _SETTLE, so its one check comes at once and
    clears. The check used to wait for the candidate to settle, at 650
    iterations."""
    market = _crowd40().coerced(mode)
    res = solve(market)
    assert res.certified_by == "rounding"
    assert res.p_star == lattice_descent(market, initial_feasible_price(market)).final
    assert res.eg.iterations < 650


def test_a_gap_that_does_not_shrink_is_checked_at_the_second_reading(monkeypatch):
    """_Support fed the final bids of the crowd market's run, at prices 1%
    above their candidate p* and closing in by a fixed factor per call. A
    gap that never shrinks cannot reach _AGREE, and one that shrinks by 1%
    per call would take far longer than _SETTLE to, so each is checked at
    the second call, the first with a rate to read. A gap that halves per
    call reaches _AGREE in time, so its check waits for the prices to agree,
    at the 14th call."""
    market = _crowd40()
    res = solve(market)
    eg = res.eg
    bids = np.array(
        [[x * p for x, p in zip(row, eg.prices)] + [money] for row, money in zip(eg.allocation, eg.leftover)]
    )
    target = np.array([float(v) for v in res.p_star])
    checks = []

    def counted(m, p):
        checks.append(p)
        return check_clearing(m, p)

    monkeypatch.setattr(solver, "check_clearing", counted)
    for shrink, first_check in ((1.0, 2), (0.99, 2), (0.5, 14)):
        support = solver._Support(market)
        for calls in range(1, 2 * first_check):
            stopped = support(np.arange(market.m), bids, target * (1 + 0.01 * shrink**calls))
            if checks:
                break
        assert support.candidate == res.p_star
        assert (calls, stopped, len(checks)) == (first_check, True, 1)
        checks.clear()


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
