"""Proportional response's loop against its plain reference.

solver._solve_eg lays its loop out for few and cheap numpy calls: outputs
written in place, an inner loop of _GAP_EVERY iterations between readings,
and buffers allocated once. Its float operations, and their order, are
those of the plain loop kept here as _reference_eg, so every field of
every EGSolution must match the reference's bit for bit, and a stop rule
must be asked the same questions at the same readings. The markets cover
seeded random_market draws, many-buyer markets (whose price sums add in
numpy's pairwise order over buyers), zero-budget buyers, a market where
BID_FLOOR binds, and runs stalled at max_iter. Proportional response runs
only where every good has positive supply and a funded buyer who values
it, so every market here is such a market.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from qfmarket import solver
from qfmarket.market import Buyer, Good, Market
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import random_market
from test_solver import _many_buyers

F = Fraction


def _reference_eg(image, target, max_iter=400_000, stop=None):
    """Proportional response written plainly: one update per pass of the
    loop, with a modulo test for the reading, and fresh arrays for each
    reading's gap."""
    beta_all, s, values_all = image
    m, n = values_all.shape
    live = np.flatnonzero(beta_all > 0)
    beta = beta_all[live]
    va = np.ones((len(live), n + 1), order="F")
    va[:, :n] = values_all[live]

    valued = va > 0
    shares = 1.0 / valued.sum(axis=1)
    bids = np.asfortranarray(np.where(valued, (beta * shares)[:, None], 0.0))
    floor = np.where(valued, solver.BID_FLOOR, 0.0)
    goods_bids, money = bids[:, :n], bids[:, n]

    p = np.ones(n + 1)
    goods_p = p[:n]
    x = np.empty_like(bids)
    gains = np.empty_like(bids)
    u = np.empty(len(live))
    scale = np.empty(len(live))
    iterations = 0
    while True:
        np.add.reduce(goods_bids, axis=0, out=goods_p)
        goods_p /= s
        np.divide(bids, p, out=x)
        np.multiply(va, x, out=gains)
        np.add.reduce(gains, axis=1, out=u)
        if iterations and iterations % solver._GAP_EVERY == 0:
            primal = float(np.dot(beta, np.log(u)) - money.sum())
            rmax = (va / p).max(axis=1)
            dual = float(np.dot(goods_p, s) + (beta * np.log(beta * rmax) - beta).sum())
            gap = dual - primal
            if stop is not None and stop(live, bids, goods_p):
                break
            if gap <= target or iterations >= max_iter:
                break
        np.divide(beta, u, out=scale)
        np.multiply(gains, scale[:, None], out=bids)
        np.maximum(bids, floor, out=bids)
        iterations += 1

    allocation = np.zeros((m, n))
    allocation[live] = x[:, :n]
    leftover = np.zeros(m)
    leftover[live] = money
    return solver.EGSolution(
        allocation=tuple(map(tuple, allocation.tolist())),
        leftover=tuple(leftover.tolist()),
        prices=tuple(goods_p.tolist()),
        duality_gap=float(gap),
        iterations=iterations,
    )


def _bits(value):
    """value with every float as its hex digits, so that equal means
    bit-identical: 0.0 and -0.0 differ, and so would two NaNs' payloads."""
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return type(value)(_bits(v) for v in value)
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return value


class _Recorder:
    """A stop rule that asks solve's _Support and records every question:
    the buyers, bids (with their layout) and prices it was shown, byte for
    byte, and the answer."""

    def __init__(self, market):
        self.support = solver._Support(market.rational_twin())
        self.calls = []

    def __call__(self, buyers, bids, p):
        answer = self.support(buyers, bids, p)
        self.calls.append((buyers.tolist(), bids.shape, bids.flags.f_contiguous,
                           bids.tobytes(order="A"), p.tobytes(), answer))
        return answer


def _assert_same_runs(market, target, max_iter=400_000):
    """The loop and the reference agree bit for bit on `market`'s image,
    without a stop rule and with solve's, which must see the same bids and
    prices at every reading and reach the same candidate and verdict.
    Returns the run without a stop rule."""
    image = solver._float_image(market)
    plain = solver._solve_eg(image, target, max_iter)
    assert _bits(plain) == _bits(_reference_eg(image, target, max_iter))
    ours, theirs = _Recorder(market), _Recorder(market)
    got = solver._solve_eg(image, target, max_iter, stop=ours)
    want = _reference_eg(image, target, max_iter, stop=theirs)
    assert _bits(got) == _bits(want)
    assert ours.calls == theirs.calls
    assert ours.support.candidate == theirs.support.candidate
    assert ours.support.cleared == theirs.support.cleared
    return plain


def _solve_target(market):
    return solver._GAP_TARGET * float(sum(b.budget for b in market.buyers))


_MODES = pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])


@_MODES
@pytest.mark.parametrize("seed, count, buyers, goods", [(0, 20, 6, 6), (12345, 20, 8, 4)],
                         ids=["0-6x6", "12345-8x4"])
def test_the_loop_is_the_reference_on_random_markets(mode, seed, count, buyers, goods):
    rng = random.Random(seed)
    for draw in range(count):
        market = random_market(rng, buyers, goods).coerced(mode)
        _assert_same_runs(market, _solve_target(market))


@_MODES
@pytest.mark.parametrize("seed, buyers, goods", [(0, 40, 2), (120, 120, 4), (12, 200, 8)],
                         ids=["40x2", "120x4", "200x8"])
def test_the_loop_is_the_reference_with_many_buyers(mode, seed, buyers, goods):
    """Eight or more buyers put each price's bid sum on numpy's pairwise
    order, which a row-by-row sum would not keep."""
    market = _many_buyers(random.Random(seed), buyers, goods).coerced(mode)
    _assert_same_runs(market, _solve_target(market))


def _with(market, budgets):
    """market with some budgets replaced: {index: number}."""
    buyers = tuple(Buyer(b.name, b.values, budgets.get(i, b.budget))
                   for i, b in enumerate(market.buyers))
    return Market(market.goods, buyers, market.mode)


@_MODES
def test_the_loop_is_the_reference_with_zero_budgets_and_supplies(mode):
    """Zero-budget buyers leave the bid matrix. (A zero-supply good makes
    the market one that proportional response does not run on; see
    tests/test_solver.py.)"""
    base = _many_buyers(random.Random(7), 30, 4)
    cases = [
        _with(base, {0: F(0), 5: F(0), 17: F(0)}),
        _with(base, {2: F(0), 29: F(0)}),
    ]
    for market in cases:
        market = market.coerced(mode)
        sol = _assert_same_runs(market, _solve_target(market))
        assert all(sol.prices), sol.prices


@_MODES
def test_the_loop_is_the_reference_where_the_bid_floor_binds(mode):
    """Each buyer values one good a thousand times more than the other and
    than money, so its other bids fall by about 1e-3 per iteration and sit
    at BID_FLOOR after a few hundred."""
    market = Market(
        (Good("A", F(1)), Good("B", F(1))),
        (Buyer("a", (F(1000), F(1)), F(1)), Buyer("b", (F(1), F(1000)), F(1))),
        EXACT,
    ).coerced(mode)
    sol = _assert_same_runs(market, -1.0, max_iter=400)
    assert sol.iterations == 400
    assert solver.BID_FLOOR in sol.leftover


@_MODES
@pytest.mark.parametrize("max_iter", [25, 50])
def test_the_loop_is_the_reference_when_it_stalls(mode, max_iter):
    """A gap target below zero is never met, so the run stalls at max_iter."""
    for market in (random_market(random.Random(3), 6, 6),
                   _many_buyers(random.Random(12), 200, 8)):
        market = market.coerced(mode)
        sol = _assert_same_runs(market, -1.0, max_iter=max_iter)
        assert sol.iterations == max_iter
