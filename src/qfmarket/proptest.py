"""Randomized property suites: structural claims checked on generated markets.

Each suite takes a probe (market + solved equilibrium + oracle grid) and
returns failures as data. Failures mean a guaranteed property broke and
the build should go red. Findings are observations the theory does not rule
out (the feasible region is not upward closed in general) and are reported
without failing.

Markets are generated with exact rational entries and probed in exact mode,
so tie handling and meets carry no float ambiguity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .feasibility import check_clearing, check_feasible, meet, meet_allocation
from .gridoracle import RegionGrid, grid_scan
from .market import Buyer, Good, Market, MarketError, demand_sets, outcome_is_feasible
from .metrics import social_welfare
from .numeric import EXACT
from .solver import EquilibriumResult, initial_feasible_price, solve

__all__ = [
    "MarketProbe",
    "SuiteResult",
    "build_probe",
    "random_market",
    "run_all",
]

# Lattice points per axis, chosen to keep full scans near a few thousand
# points regardless of dimension.
_RESOLUTION = {1: 129, 2: 33, 3: 13, 4: 7, 5: 5, 6: 4}
_WELFARE_TOL = 1e-6  # welfare this close to equilibrium welfare matches it


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: Tuple[str, ...]
    findings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class MarketProbe:
    market: Market
    result: EquilibriumResult
    grid: RegionGrid


def random_market(rng: random.Random, max_buyers: int = 6, max_goods: int = 6) -> Market:
    """Small market with rational entries; every good valued by someone and
    every buyer funded."""
    m = rng.randint(1, max_buyers)
    n = rng.randint(1, max_goods)
    goods = tuple(Good(f"g{j + 1}", Fraction(rng.randint(1, 6))) for j in range(n))
    rows = []
    for i in range(m):
        rows.append(
            [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]
        )
    for j in range(n):
        if not any(row[j] > 0 for row in rows):
            rows[rng.randrange(m)][j] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    buyers = tuple(
        Buyer(f"b{i + 1}", tuple(rows[i]), Fraction(rng.randint(1, 8), rng.randint(1, 4)))
        for i in range(m)
    )
    return Market(goods, buyers, EXACT)


def build_probe(market: Market) -> MarketProbe:
    """Solve the market and scan a grid window bracketing its minimal price.

    The window reaches from half the solved price (so the interesting lower
    boundary is inside) up to one above every value (where feasibility is
    trivial); the suites then quantify over the window's lattice.
    """
    result = solve(market)
    hi = initial_feasible_price(market)
    bounds = tuple((p / 2, h) for p, h in zip(result.p_star, hi))
    grid = grid_scan(market, bounds, _RESOLUTION[market.n])
    return MarketProbe(market, result, grid)


def _feasible_points(grid: RegionGrid):
    """The feasible lattice points, in lattice order."""
    for idx in zip(*(i.tolist() for i in np.nonzero(grid.membership))):
        yield tuple(ax[i] for ax, i in zip(grid.axes, idx))


def _point(grid: RegionGrid, idx) -> tuple:
    """The lattice point at index idx, in floats."""
    return tuple(float(ax[i]) for ax, i in zip(grid.axes, idx))


def suite_meet_closure(probe: MarketProbe, rng: random.Random, pairs: int = 100) -> SuiteResult:
    """Meets of feasible prices stay feasible, spliced allocations extend
    them, and demand sets shift across the meet the way the lattice argument
    says they must."""
    market = probe.market
    points = list(_feasible_points(probe.grid))
    failures = []
    cases = 0
    if len(points) < 2:
        return SuiteResult("meet-closure", 0, ("grid window has < 2 feasible points",))
    for _ in range(pairs):
        p, q = rng.choice(points), rng.choice(points)
        cases += 1
        r = meet(p, q)
        cert_r = check_feasible(market, r)
        if not cert_r.feasible:
            failures.append(f"meet {r} of feasible {p}, {q} is infeasible")
            continue
        cert_p = check_feasible(market, p)
        cert_q = check_feasible(market, q)
        z = meet_allocation(market, p, q, cert_p.allocation, cert_q.allocation)
        if not outcome_is_feasible(market, r, z):
            failures.append(f"spliced allocation at meet {r} is not a feasible outcome")
        a_side = {j + 1 for j in range(market.n) if p[j] < q[j]}
        b_side = {j + 1 for j in range(market.n) if p[j] >= q[j]}
        demanded = [demand_sets(market, x) for x in (r, p, q)]
        for i, (jr, jp, jq) in enumerate(zip(*demanded)):
            if jr & a_side:
                if not (jr & a_side) <= jp or not jp <= jr:
                    failures.append(f"demand shift toward {p} broke for buyer {i} at meet {r}")
            if jr & b_side:
                if not (jr & b_side) <= jq or not jq <= jr or not (jq - {0}) <= b_side:
                    failures.append(f"demand shift toward {q} broke for buyer {i} at meet {r}")
    return SuiteResult("meet-closure", cases, tuple(failures))


def suite_revenue_dominance(probe: MarketProbe) -> SuiteResult:
    """Equilibrium revenue beats the max-extension revenue of every feasible
    lattice point, up to one lattice step of total supply."""
    market = probe.market
    grid = probe.grid
    step = max(grid.step)
    slack = step * sum(g.supply for g in market.goods)
    best = float(probe.result.revenue) + float(slack) + 1e-9
    over = grid.membership & (grid.revenue > best)
    failures = [
        f"revenue {grid.revenue[tuple(idx)]} at {_point(grid, idx)} exceeds equilibrium "
        f"revenue {float(probe.result.revenue)} + {float(slack)}"
        for idx in np.argwhere(over).tolist()
    ]
    cases = int(grid.membership.sum())
    return SuiteResult("revenue-dominance", cases, tuple(failures))


def suite_efficiency(probe: MarketProbe) -> SuiteResult:
    """No feasible lattice outcome beats equilibrium welfare by _WELFARE_TOL,
    and any within it sit within two lattice steps of the minimal price."""
    market = probe.market
    grid = probe.grid
    w_star = float(probe.result.welfare)
    p_star = probe.result.p_star
    failures = []
    cases = 0
    for point in _feasible_points(grid):
        cases += 1
        extended = check_clearing(market, point)
        if not extended.feasible:
            failures.append(f"feasible point {point} lost its extension")
            continue
        w = float(social_welfare(market, extended.allocation))
        if w > w_star + _WELFARE_TOL:
            failures.append(
                f"outcome at {tuple(map(float, point))} has welfare {w} > {w_star}"
            )
        elif w >= w_star - _WELFARE_TOL:
            for d in range(grid.n):
                gap = abs(point[d] - p_star[d])
                if gap > 2 * grid.step[d] + Fraction(1, 10**9):
                    failures.append(
                        f"near-equilibrium welfare at {tuple(map(float, point))} "
                        f"but coordinate {d + 1} is {float(gap)} from the minimal price"
                    )
                    break
    return SuiteResult("efficiency", cases, tuple(failures))


def suite_minimality(probe: MarketProbe) -> SuiteResult:
    """Cutting any single coordinate of the minimal price by 1% loses feasibility."""
    market = probe.market
    p_star = probe.result.p_star
    failures = []
    for j in range(market.n):
        reduced = tuple(
            price * Fraction(99, 100) if k == j else price
            for k, price in enumerate(p_star)
        )
        if check_feasible(market, reduced).feasible:
            failures.append(f"1% cut of coordinate {j + 1} at {p_star} stays feasible")
    return SuiteResult("minimality", market.n, tuple(failures))


def suite_upward_closure(probe: MarketProbe) -> SuiteResult:
    """Single-step upward moves from feasible lattice points.

    Not guaranteed: the region is visibly upward-unbounded but nothing forbids
    dents. Violations are reported as findings, never failures.
    """
    grid = probe.grid
    feasible = grid.membership
    cases = 0
    found = []  # (lattice index, axis)
    for d in range(grid.n):
        below = tuple(slice(None, -1) if k == d else slice(None) for k in range(grid.n))
        above = tuple(slice(1, None) if k == d else slice(None) for k in range(grid.n))
        cases += int(feasible[below].sum())
        found += [(idx, d) for idx in np.argwhere(feasible[below] & ~feasible[above]).tolist()]
    findings = [
        f"feasible {_point(grid, idx)} turns infeasible one step up along axis {d + 1}"
        for idx, d in sorted(found)
    ]
    return SuiteResult("upward-closure", cases, (), tuple(findings))


def run_all(seed: int, markets: int = 20, pairs: int = 100):
    """Generate markets, build probes, and run every suite; returns the probe
    list and one merged SuiteResult per suite name. A count below one would
    run no case at all, so it is an error rather than a pass."""
    if markets < 1 or pairs < 1:
        raise MarketError(f"need markets >= 1 and pairs >= 1, got {markets} and {pairs}")
    rng = random.Random(seed)
    probes = [build_probe(random_market(rng)) for _ in range(markets)]
    merged = []
    for name, runner in (
        ("meet-closure", lambda pr: suite_meet_closure(pr, rng, pairs)),
        ("revenue-dominance", suite_revenue_dominance),
        ("efficiency", suite_efficiency),
        ("minimality", suite_minimality),
        ("upward-closure", suite_upward_closure),
    ):
        cases = 0
        failures = []
        findings = []
        for probe in probes:
            out = runner(probe)
            cases += out.cases
            failures.extend(out.failures)
            findings.extend(out.findings)
        merged.append(SuiteResult(name, cases, tuple(failures), tuple(findings)))
    return probes, merged
