"""End-to-end acceptance battery.

Ten checks covering the full surface: the reference two-good market in both
numeric modes, the closed-form single-good family, the concave monopoly
example, region geometry through the CLI, the randomized property suites on
a shared 20-market battery, cross-method agreement, owner-structure
neutrality of bid collections, and the linear-monopoly coincidence. Each
check prints one verdict line directly to the terminal.
"""

import contextlib
import csv
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from qfmarket import market as market_module
from qfmarket.cli import main
from qfmarket.feasibility import check_feasible
from qfmarket.market import Buyer, Good, Market, aggregate
from qfmarket.marketio import load_market, reaggregate
from qfmarket.monopoly import (
    MonopolyInstance,
    clearing_price,
    divergence_witness,
    example_a1,
    linear_valuation,
    max_revenue_price,
    revenue_at,
)
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import run_all
from qfmarket.solver import solve, solve_eg

F = Fraction


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {number} failed: {detail}"


@pytest.fixture(scope="module")
def battery_validations():
    """The market of each validation body run while probe_battery is built."""
    return []


@pytest.fixture(scope="module")
def probe_battery(battery_validations):
    """20 random markets solved once and grid-scanned, shared by checks 5-8."""
    body = market_module._violations

    def counted(market):
        battery_validations.append(market)
        return body(market)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market_module, "_violations", counted)
        probes, merged = run_all(seed=0, markets=20, pairs=100)
    return probes, {suite.name: suite for suite in merged}


def test_01_reference_market_end_to_end(fixture_dir, capsys):
    text = (fixture_dir / "example2.json").read_text()
    started = time.perf_counter()
    exact = solve(load_market(text, EXACT).market)
    floaty = solve(load_market(text, float_mode()).market)
    elapsed = time.perf_counter() - started
    agg_exact = aggregate(exact.allocation, 2)
    agg_float = aggregate(floaty.allocation, 2)
    ok = (
        exact.p_star == (F(3, 5), F(3, 5))
        and max(abs(p - 0.6) for p in floaty.p_star) <= 1e-6
        and exact.revenue == 3
        and abs(floaty.revenue - 3.0) <= 1e-9
        and max(abs(float(a) - t) for a, t in zip(agg_exact, (3.0, 2.0))) <= 1e-9
        and max(abs(a - t) for a, t in zip(agg_float, (3.0, 2.0))) <= 1e-9
        and abs(float(exact.welfare) - 15.0) <= 1e-8
        and abs(floaty.welfare - 15.0) <= 1e-8
        and elapsed < 1.0
    )
    _verdict(
        capsys, 1, ok,
        f"p* = (3/5, 3/5) exact and (0.6, 0.6) float, revenue 3, welfare 15, {elapsed:.2f}s",
    )


def test_02_single_good_family_matches_the_closed_form(capsys):
    rng = random.Random(2024)
    started = time.perf_counter()
    worst_price = worst_share = 0.0
    for _ in range(100):
        v2 = rng.uniform(0.5, 5.0)
        v1 = v2 * rng.uniform(1.05, 2.0)
        total = v2 * rng.uniform(0.3, 0.95)  # joint budget below the weaker value
        b1 = total * rng.uniform(0.55, 0.9)  # buyer 1 holds the larger budget
        b2 = total - b1
        market = Market(
            (Good("g", 1.0),),
            (Buyer("b1", (v1,), b1), Buyer("b2", (v2,), b2)),
            float_mode(),
        )
        res = solve(market)
        worst_price = max(worst_price, abs(res.p_star[0] - (b1 + b2)))
        worst_share = max(worst_share, abs(res.allocation[0][0] - b1 / (b1 + b2)))
    elapsed = time.perf_counter() - started
    ok = worst_price <= 1e-7 and worst_share <= 1e-7 and elapsed < 10.0
    _verdict(
        capsys, 2, ok,
        f"100 instances: price within {worst_price:.1e} of the budget sum, "
        f"buyer-1 quantity within {worst_share:.1e}, {elapsed:.1f}s",
    )


def test_03_concave_monopoly_example(capsys):
    started = time.perf_counter()
    capped = MonopolyInstance(example_a1(), 3.0, 2.0)
    cp = clearing_price(capped)
    free_price, free_qty, free_rev = max_revenue_price(MonopolyInstance(example_a1(), 3.0))
    rev_at_one = revenue_at(capped, 1.0)
    elapsed = time.perf_counter() - started
    ok = (
        abs(cp - 0.5) <= 1e-9
        and abs(revenue_at(capped, cp) - 1.5) <= 1e-9
        and abs(free_price - 4.0 / math.e) <= 1e-4
        and abs(free_qty - 1.0 / math.log(2.0)) <= 1e-4
        and abs(free_rev - 4.0 / (math.e * math.log(2.0))) <= 1e-4
        and abs(rev_at_one - 2.0) <= 1e-9
        and elapsed < 1.0
    )
    _verdict(
        capsys, 3, ok,
        f"clearing (0.5, 1.5), optimum ({free_price:.5f}, {free_qty:.5f}, {free_rev:.5f}), "
        f"revenue 2 at price 1, {elapsed:.2f}s",
    )


def test_04_region_geometry_through_the_cli(fixture_dir, tmp_path, capsys):
    started = time.perf_counter()
    grid_path = tmp_path / "grid.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "region", str(fixture_dir / "example2.json"),
            "--bounds", "0.4:3.2", "--resolution", "281",  # lattice step 0.01
            "--out", str(grid_path), "--no-timestamp",
        ])
    report = json.loads(out.getvalue())

    with open(report["boundary_csv"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    vertices = [(float(x), float(y)) for x, y, _sid in rows]
    corners = [(1, 1.5), (2 / 3, 1), (2 / 3, 2 / 3), (1, 1), (2, 1), (3, 1.5)]
    worst = max(
        min(math.hypot(x - cx, y - cy) for x, y in vertices) for cx, cy in corners
    )

    member = {}
    with open(grid_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for x, y, feasible, _rev in reader:
            member[(round(float(x), 4), round(float(y), 4))] = feasible == "1"
    verdicts = (
        member[(0.6, 0.6)],
        member[(2.0, 2.0)],
        not member[(0.5, 0.5)],
        not member[(0.9, 0.7)],
    )
    elapsed = time.perf_counter() - started
    ok = code == 0 and worst <= 0.02 and all(verdicts) and elapsed < 60.0
    _verdict(
        capsys, 4, ok,
        f"boundary within {worst:.3f} of all six corners, membership verdicts "
        f"(0.6,0.6)+ (2,2)+ (0.5,0.5)- (0.9,0.7)-, {elapsed:.1f}s",
    )


def test_05_meets_of_feasible_prices_stay_feasible(probe_battery, capsys):
    _, suites = probe_battery
    suite = suites["meet-closure"]
    ok = suite.cases == 2000 and not suite.failures
    _verdict(
        capsys, 5, ok,
        f"{suite.cases} sampled meets feasible with spliced allocations, "
        f"{len(suite.failures)} failures",
    )


def test_06_equilibrium_revenue_dominates_the_grid(probe_battery, capsys):
    _, suites = probe_battery
    suite = suites["revenue-dominance"]
    ok = suite.cases > 0 and not suite.failures
    _verdict(
        capsys, 6, ok,
        f"max-extension revenue at {suite.cases} feasible grid points never beats "
        f"p* revenue beyond one grid step of supply, {len(suite.failures)} violations",
    )


def test_07_equilibrium_welfare_is_constrained_optimal(probe_battery, capsys):
    _, suites = probe_battery
    suite = suites["efficiency"]
    ok = suite.cases > 0 and not suite.failures
    _verdict(
        capsys, 7, ok,
        f"no feasible grid outcome beats CE welfare (within 1e-6) across "
        f"{suite.cases} points (the 2-step bound on near-optimal points is "
        "tested in test_proptest.py)",
    )


def _eg_gap(market, p_star):
    """Proportional response run to its gap target (solve_eg, not solve's
    run, which stops at its first certified candidate) against p*."""
    return max(abs(a - float(b)) for a, b in zip(solve_eg(market).prices, p_star))


def test_08_methods_agree_and_prices_are_minimal(probe_battery, fixture_dir, capsys):
    probes, suites = probe_battery
    worst = max(_eg_gap(probe.market, probe.result.p_star) for probe in probes)
    fixture_cuts_ok = True
    for name, mode in (
        ("example2.json", EXACT),
        ("example1.json", float_mode()),
        ("example2_arctic_split.json", EXACT),
        ("example2_arctic_merged.json", EXACT),
    ):
        market = load_market((fixture_dir / name).read_text(), mode).market
        res = solve(market)
        worst = max(worst, _eg_gap(market, res.p_star))
        for j in range(market.n):
            cut = tuple(
                v * 0.99 if k == j else v for k, v in enumerate(res.p_star)
            )
            if check_feasible(market, cut).feasible:
                fixture_cuts_ok = False
    minimality = suites["minimality"]
    ok = worst <= 1e-5 and not minimality.failures and fixture_cuts_ok
    _verdict(
        capsys, 8, ok,
        f"EG within {worst:.1e} of certified p* per coordinate on 20 random markets "
        f"+ 4 fixtures; every 1% price cut is infeasible",
    )


def test_09_owner_structure_is_neutral_for_bid_collections(fixture_dir, capsys):
    direct = solve(load_market((fixture_dir / "example2.json").read_text(), EXACT).market)
    split_loaded = load_market((fixture_dir / "example2_arctic_split.json").read_text(), EXACT)
    merged_loaded = load_market((fixture_dir / "example2_arctic_merged.json").read_text(), EXACT)
    split = solve(split_loaded.market)
    merged = solve(merged_loaded.market)
    base = aggregate(direct.allocation, 2)
    ok = (
        split.p_star == merged.p_star == direct.p_star
        and aggregate(split.allocation, 2) == base
        and aggregate(merged.allocation, 2) == base
        and split.revenue == merged.revenue == direct.revenue == F(3)
    )
    split_spends = [row[2] for row in reaggregate(split_loaded.owners, split.allocation, split.p_star)]
    pool = reaggregate(merged_loaded.owners, merged.allocation, merged.p_star)
    ok = ok and split_spends == [F(1)] * 3 and pool[0][2] == F(3)
    _verdict(
        capsys, 9, ok,
        "three single-bid owners and one three-bid owner both reproduce the "
        "direct solve exactly (rational mode)",
    )


def test_10_linear_monopoly_clearing_coincides_with_optimal(capsys):
    rng = random.Random(7)
    worst = 0.0
    witness_free = True
    for _ in range(200):
        v = rng.uniform(0.2, 8.0)
        beta = rng.uniform(0.1, 20.0)
        s = rng.uniform(0.2, 6.0)
        valuation = linear_valuation(v)
        price, _qty, _rev = max_revenue_price(MonopolyInstance(valuation, s, beta))
        worst = max(worst, abs(price - min(v, beta / s)))
        witness_free = witness_free and divergence_witness(valuation, beta) is None
    ok = worst <= 1e-7 and witness_free
    _verdict(
        capsys, 10, ok,
        f"200 random triples: optimal price within {worst:.1e} of min(v, budget/supply), "
        f"no divergence witnesses",
    )


def test_probe_battery_validates_each_market_once(probe_battery, battery_validations):
    """Every solve, grid scan and suite check of a market reads the verdict
    its first validation left on it."""
    probes, _ = probe_battery
    assert sorted(map(id, battery_validations)) == sorted(id(probe.market) for probe in probes)
