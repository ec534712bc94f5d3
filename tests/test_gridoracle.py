"""Grid ground truth: membership scans, reductions, contours, CSV exports."""

import csv
import io
import random
from fractions import Fraction

import numpy as np
import pytest

from qfmarket import gridoracle
from qfmarket.feasibility import check_clearing
from qfmarket.gridoracle import (
    export_boundary_csv,
    export_grid_csv,
    grid_scan,
    oracle_max_revenue,
    oracle_min_price,
    region_boundary_2d,
)
from qfmarket.market import Buyer, Good, Market, MarketError
from qfmarket.marketio import load_market
from qfmarket.numeric import EXACT, float_mode
from qfmarket.proptest import random_market

from conftest import reference_market

F = Fraction


@pytest.fixture(scope="module")
def ref_grid():
    # 54 points over (0.35, 3.0) puts 0.6 exactly on the lattice (step 0.05)
    return grid_scan(reference_market(float_mode()), (0.35, 3.0), 54)


def test_grid_shape_and_step(ref_grid):
    assert ref_grid.n == 2
    assert ref_grid.membership.shape == (54, 54)
    assert all(abs(s - 0.05) < 1e-12 for s in ref_grid.step)
    assert abs(ref_grid.axes[0][5] - 0.6) < 1e-12


def test_membership_matches_known_region(ref_grid):
    assert ref_grid.membership[5, 5]  # (0.6, 0.6)
    assert not ref_grid.membership[3, 3]  # (0.5, 0.5)
    assert ref_grid.membership[13, 13]  # (1.0, 1.0)
    assert ref_grid.revenue[5, 5] == pytest.approx(3.0, abs=1e-9)


def test_oracle_reductions(ref_grid):
    lo = oracle_min_price(ref_grid)
    assert max(abs(v - 0.6) for v in lo) < 1e-12
    price, rev = oracle_max_revenue(ref_grid)
    assert rev == pytest.approx(3.0, abs=1e-9)
    # the plateau tie breaks toward the lexicographically smallest point
    assert max(abs(v - 0.6) for v in price) < 1e-12


def test_max_revenue_plateau_ties_within_the_grid_tolerance():
    """Float revenues along a plateau can differ in their last bit; the first
    plateau point is reported, not the one whose sum rounded up."""
    revenue = np.array([1.0, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 0.0)])
    membership = np.ones(4, dtype=bool)

    def grid(tol):
        axes = ((1.0, 2.0, 3.0, 4.0),)
        return gridoracle.RegionGrid(((1.0, 4.0),), 4, axes, membership, revenue, tol)

    assert oracle_max_revenue(grid(1e-9)) == ((2.0,), float(np.nextafter(10.0, 0.0)))
    assert oracle_max_revenue(grid(0)) == ((3.0,), 10.0)


def test_empty_window_raises(ref_float):
    empty = grid_scan(ref_float, (0.05, 0.2), 4)
    assert not empty.membership.any()
    with pytest.raises(MarketError):
        oracle_min_price(empty)
    with pytest.raises(MarketError):
        oracle_max_revenue(empty)


def test_bounds_validation(ref_float):
    with pytest.raises(MarketError):
        grid_scan(ref_float, (0.35, 3.0), 1)
    with pytest.raises(MarketError):
        grid_scan(ref_float, (0.0, 3.0), 5)
    with pytest.raises(MarketError):
        grid_scan(ref_float, (2.0, 1.0), 5)
    with pytest.raises(MarketError):
        grid_scan(ref_float, [(0.1, 2.0)], 5)


@pytest.mark.parametrize(
    "window", [(0.5, float("inf")), (0.5, float("nan")), (float("nan"), 2.0), (1, 10**400)]
)
@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_non_finite_windows_are_refused(fixture_dir, mode, window):
    """A float scan over (0.5, inf) returned axes (nan, inf, inf, inf, inf)
    and no feasible point; an exact one raised a bare ValueError. Over
    (1, 10**400) a float scan raised a bare OverflowError, and an exact one
    completed and left it to the boundary and the CSV export. The refusal
    printed 10**400 in full; it prints 12 significant digits now."""
    market = load_market((fixture_dir / "example2.json").read_text(), mode).market
    with pytest.raises(MarketError, match="bad price window") as caught:
        grid_scan(market, window, 5)
    assert len(str(caught.value)) < 80
    with pytest.raises(MarketError, match="bad price window"):
        grid_scan(market, (window, (0.5, 2.0)), 5)


def test_per_good_bounds(ref_float):
    grid = grid_scan(ref_float, ((0.5, 1.0), (0.4, 2.0)), 5)
    assert grid.axes[0][-1] == pytest.approx(1.0)
    assert grid.axes[1][-1] == pytest.approx(2.0)


def _assert_scan_matches_the_flow(market, grid):
    """Membership and revenue at every lattice point, as check_clearing reads
    them: an exact revenue as the float nearest the flow's Fraction."""
    for idx in np.ndindex(grid.membership.shape):
        p = tuple(grid.axes[d][idx[d]] for d in range(market.n))
        cert = check_clearing(market, p)
        assert grid.membership[idx] == cert.feasible, p
        if not cert.feasible:
            assert grid.revenue[idx] == 0.0, p
        elif market.mode.is_exact:
            assert grid.revenue[idx] == float(cert.max_extension_revenue), p
        else:
            assert grid.revenue[idx] == pytest.approx(
                cert.max_extension_revenue, rel=1e-12, abs=0.0
            ), p


def _draws(mode):
    """The first random_market draw with n goods, for n = 3..6, in `mode`."""
    rng = random.Random(11)
    draws = {}
    while len(draws) < 4:
        market = random_market(rng, 6, 6)
        if 3 <= market.n <= 6:
            draws.setdefault(market.n, market.coerced(mode))
    return [draws[n] for n in sorted(draws)]


def _assert_draw_scans_match_the_flow(mode):
    for market in _draws(mode):
        resolution = {3: 7, 4: 5, 5: 4, 6: 3}[market.n]
        top = max(float(v) for b in market.buyers for v in b.values) + 1
        grid = grid_scan(market, (0.1, top), resolution)
        _assert_scan_matches_the_flow(market, grid)


def test_float_scan_agrees_with_the_flow_check(ref_float, ref_grid, fixture_dir):
    _assert_scan_matches_the_flow(ref_float, ref_grid)  # hits the (0.6, 0.6) tie
    one_good = load_market((fixture_dir / "example1.json").read_bytes(), float_mode()).market
    _assert_scan_matches_the_flow(one_good, grid_scan(one_good, (0.05, 1.2), 60))
    _assert_draw_scans_match_the_flow(float_mode())


def test_exact_scan_agrees_with_the_flow_check(ref_exact, fixture_dir):
    grid = grid_scan(ref_exact, (F(1, 2), F(3)), 6)
    assert grid.axes[0] == (F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3))
    _assert_scan_matches_the_flow(ref_exact, grid)
    tie = grid_scan(ref_exact, (F(2, 5), F(3)), 14)  # steps of 1/5 hit (3/5, 3/5)
    _assert_scan_matches_the_flow(ref_exact, tie)
    one_good = load_market((fixture_dir / "example1.json").read_bytes(), EXACT).market
    _assert_scan_matches_the_flow(one_good, grid_scan(one_good, (0.05, 1.2), 60))
    _assert_draw_scans_match_the_flow(EXACT)
    # Good a has no supply, so its capacity is 0 at every price, and buyer x
    # has no budget to route. Good b's supply puts the scan's money unit
    # beyond 64 bits.
    market = Market(
        (Good("a", F(0)), Good("b", F(2**70 + 1, 2**69))),
        (
            Buyer("x", (F(3), F(1)), F(0)),
            Buyer("y", (F(1), F(2)), F(3, 2)),
            Buyer("z", (F(2), F(2)), F(1)),
        ),
        EXACT,
    )
    _assert_scan_matches_the_flow(market, grid_scan(market, (F(1, 10), F(4)), 21))
    # At price 1 the strict budget tops the capacity by 2^-60, which a scan
    # in floats would lose; the other buyer keeps its money.
    market = Market(
        (Good("g", F(1)),),
        (Buyer("s", (F(4),), 1 + F(1, 2**60)), Buyer("f", (F(1, 2),), F(1))),
        EXACT,
    )
    grid = grid_scan(market, (F(1), F(2)), 2)
    assert grid.membership.tolist() == [False, True]
    _assert_scan_matches_the_flow(market, grid)


def test_float_scan_reads_feasibility_within_the_flow_slack(ref_float):
    """Prices (0.6, 0.6) scaled by 1 - delta leave the strict budgets 3 * delta
    short. The flow check's slack, 1e-9 * 3 * (m + n + 4) = 2.7e-8, covers
    delta = 5e-9 but not delta = 1e-7."""
    inside = grid_scan(ref_float, (0.6 * (1 - 5e-9), 0.6), 2)
    outside = grid_scan(ref_float, (0.6 * (1 - 1e-7), 0.6), 2)
    assert inside.membership[0, 0] and not outside.membership[0, 0]
    _assert_scan_matches_the_flow(ref_float, inside)
    _assert_scan_matches_the_flow(ref_float, outside)


def test_scans_across_chunk_seams(ref_float, ref_grid, ref_exact, monkeypatch):
    """Chunks of 7 points (84 elements over 3 buyers and 2^2 goods sets) cut
    the 54 x 54 float window into 417 pieces, most of them seamed mid-row,
    and the 12 x 12 exact one into 21."""
    exact_whole = grid_scan(ref_exact, (F(1, 2), F(3)), 12)
    monkeypatch.setattr(gridoracle, "_CHUNK_ELEMENTS", 84)
    for market, window, whole in (
        (ref_float, (0.35, 3.0), ref_grid),
        (ref_exact, (F(1, 2), F(3)), exact_whole),
    ):
        grid = grid_scan(market, window, whole.resolution)
        assert np.array_equal(grid.membership, whole.membership)
        assert np.array_equal(grid.revenue, whole.revenue)
        _assert_scan_matches_the_flow(market, grid)


def _points_major_scan(market, axes):
    """The float scan's formula laid out points first, with no chunks:
    prices (k, n), ratios and demand (k, m, n), cut terms (k, m, 2^n). Each
    ratio, cutoff, cut and sum is taken with the operation grid_scan takes,
    so the two layouts must agree bit for bit."""
    m, n, tol = market.m, market.n, market.mode.tol
    values = np.array([b.values for b in market.buyers], dtype=np.float64)
    budgets = np.array([b.budget for b in market.buyers], dtype=np.float64)
    supplies = np.array(market.supplies, dtype=np.float64)
    p = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    ratios = values / p[:, None, :]
    cutoff = (1 - tol) * np.maximum(ratios.max(axis=-1), 1.0)
    demand = ((ratios >= cutoff[..., None]) * (1 << np.arange(n))).sum(axis=-1)
    strict = np.where(cutoff <= 1, 0, budgets)
    sets = np.arange(1 << n)
    in_set = ((sets[:, None] >> np.arange(n)) & 1).astype(np.float64)
    missed = (demand[..., None] & ((1 << n) - 1 - sets)) != 0
    caps = p * supplies
    cut_caps = caps @ in_set.T
    strict_flow = (cut_caps + np.einsum("kma,km->ka", missed, strict)).min(axis=-1)
    scale = np.maximum(sum(b.budget for b in market.buyers), caps.sum(axis=-1))
    feasible = strict.sum(axis=-1) - strict_flow <= tol * scale * (m + n + 4)
    flow = (cut_caps + np.einsum("kma,m->ka", missed, budgets)).min(axis=-1)
    shape = tuple(len(ax) for ax in axes)
    return feasible.reshape(shape), np.where(feasible, flow, 0.0).reshape(shape)


def _non_dyadic_markets():
    """Float markets of 1 to 6 goods and 1 to 10 buyers whose entries are
    not dyadic, so sums taken in another order round differently; some
    values are 0."""
    rng = random.Random(18)
    for n in range(1, 7):
        for _ in range(4):
            m = rng.randint(1, 10)
            goods = tuple(Good(f"g{j}", rng.uniform(0.3, 5.0)) for j in range(n))
            rows = [[rng.choice((0.0, rng.uniform(0.1, 7.0))) for _ in range(n)] for _ in range(m)]
            for j in range(n):
                rows[rng.randrange(m)][j] = rng.uniform(0.1, 7.0)
            buyers = tuple(
                Buyer(f"b{i}", tuple(row), rng.uniform(0.05, 3.0)) for i, row in enumerate(rows)
            )
            window = (rng.uniform(0.05, 0.5), rng.uniform(2.0, 8.0))
            yield Market(goods, buyers, float_mode()), window, {1: 40, 2: 17, 3: 8, 4: 5, 5: 4, 6: 3}[n]


@pytest.mark.parametrize("elements", [gridoracle._CHUNK_ELEMENTS, 300, 1])
def test_goods_major_scan_matches_the_points_major_formula(monkeypatch, elements):
    """Membership and revenue, bit for bit, whatever the chunks: 300
    elements seam most lattices mid-row, and 1 gives every chunk its
    least, two points."""
    monkeypatch.setattr(gridoracle, "_CHUNK_ELEMENTS", elements)
    for market, window, resolution in _non_dyadic_markets():
        grid = grid_scan(market, window, resolution)
        membership, revenue = _points_major_scan(market, grid.axes)
        assert np.array_equal(grid.membership, membership), (market.m, market.n)
        assert np.array_equal(grid.revenue.view(np.uint64), revenue.view(np.uint64))


@pytest.mark.parametrize("s", [1e-9, 1e-12])
def test_float_scan_of_a_market_with_little_money_agrees_with_the_flow_check(s):
    """Goods (1, 1), one buyer valuing them (2s, s) with budget s. With the
    slack floored at money 1, the scan called every point feasible."""
    market = Market(
        (Good("a", 1.0), Good("b", 1.0)), (Buyer("x", (2 * s, s), s),), float_mode()
    )
    grid = grid_scan(market, (s / 10, 3 * s), 21)
    assert 0 < grid.membership.sum() < grid.membership.size
    _assert_scan_matches_the_flow(market, grid)


def test_boundary_passes_near_the_region_corner(ref_grid):
    polylines = region_boundary_2d(ref_grid)
    assert polylines
    vertices = [pt for poly in polylines for pt in poly]
    nearest = min(max(abs(x - 0.6), abs(y - 0.6)) for x, y in vertices)
    assert nearest <= 0.05  # within one lattice step of the minimal price


def test_boundary_of_an_all_feasible_window_is_its_frame(ref_float):
    grid = grid_scan(ref_float, (2.5, 4.0), 16)
    assert grid.membership.all()
    polylines = region_boundary_2d(grid)
    assert len(polylines) == 1
    loop = polylines[0]
    assert loop[0] == loop[-1]
    for x, y in loop:
        assert min(abs(x - 2.5), abs(x - 4.0), abs(y - 2.5), abs(y - 4.0)) < 1e-9


def test_boundary_scales_with_money(ref_float):
    """Endpoints keyed by coordinates rounded to 9 decimals all fell on
    (0, 0) in a window of prices below 1e-9, which scrambled the polylines.
    2^-40 is about 1e-12, and a power of two scales every float exactly."""
    s = 2.0**-40
    scaled = Market(
        ref_float.goods,
        tuple(
            Buyer(b.name, tuple(v * s for v in b.values), b.budget * s) for b in ref_float.buyers
        ),
        ref_float.mode,
    )
    unit = region_boundary_2d(grid_scan(ref_float, (0.35, 3.0), 54))
    small = region_boundary_2d(grid_scan(scaled, (0.35 * s, 3.0 * s), 54))
    assert small == tuple(tuple((x * s, y * s) for x, y in line) for line in unit)


def test_boundary_needs_two_goods():
    market = Market((Good("g", 1.0),), (Buyer("b", (1.0,), 0.3),), float_mode())
    grid = grid_scan(market, (0.05, 1.0), 9)
    with pytest.raises(MarketError):
        region_boundary_2d(grid)


def test_grid_csv_export(ref_float):
    grid = grid_scan(ref_float, (2.5, 4.0), 4)
    buf = io.StringIO()
    export_grid_csv(grid, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "price_1,price_2,feasible,max_revenue"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(2.5)
    assert first[2] == "1"
    # At (2.5, 2.5) only buyers 1 and 3 are strict; buyer 2's best ratio is
    # 0.8 < 1, so its budget cannot be extended and revenue caps at 2.
    assert float(first[3]) == pytest.approx(2.0, abs=1e-9)


def _csv_writer_text(grid):
    """The grid CSV as csv.writer writes it, one row per lattice point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"price_{d + 1}" for d in range(grid.n)] + ["feasible", "max_revenue"])
    for idx in np.ndindex(grid.membership.shape):
        writer.writerow(
            [f"{float(grid.axes[d][i]):.12g}" for d, i in enumerate(idx)]
            + [int(grid.membership[idx]), f"{grid.revenue[idx]:.12g}"]
        )
    return buf.getvalue()


def test_grid_csv_is_what_csv_writer_writes(ref_grid, ref_exact, fixture_dir):
    """Scans of one good (no head labels), two goods in each mode, and three
    goods; then the hand-set grids, whose revenues range from one distinct
    value to all distinct, with a -0.0 beside 0.0."""
    one_good = load_market((fixture_dir / "example1.json").read_bytes(), float_mode()).market
    three_goods = _draws(float_mode())[0]
    assert three_goods.n == 3
    scans = (
        grid_scan(one_good, (0.05, 1.2), 60),
        ref_grid,
        grid_scan(ref_exact, (F(1, 2), F(3)), 12),
        grid_scan(three_goods, (0.1, 9.0), 7),
    )
    assert all(grid.membership.any() and not grid.membership.all() for grid in scans)
    hand_set = _hand_set_grids()
    for grid in (*scans, *hand_set.values()):
        buf = io.StringIO()
        export_grid_csv(grid, buf)
        assert buf.getvalue() == _csv_writer_text(grid)
    buf = io.StringIO()
    export_grid_csv(hand_set["signed zero"], buf)
    assert ",1,-0\r\n" in buf.getvalue() and ",1,0\r\n" in buf.getvalue()


# Per-cell marching squares, one cell and one _EDGE_TABLE entry at a time,
# and the stitching that takes the first unused segment at each end: the
# reference that region_boundary_2d's array version must match.


def _cell_codes(membership):
    padded = np.zeros(tuple(k + 2 for k in membership.shape), dtype=np.uint8)
    padded[1:-1, 1:-1] = membership
    return (
        padded[:-1, :-1] | padded[1:, :-1] << 1 | padded[1:, 1:] << 2 | padded[:-1, 1:] << 3
    )


def _per_cell_boundary(grid):
    xs = [float(v) for v in grid.axes[0]]
    ys = [float(v) for v in grid.axes[1]]
    sx, sy = xs[1] - xs[0], ys[1] - ys[0]
    xs = [xs[0] - sx] + xs + [xs[-1] + sx]
    ys = [ys[0] - sy] + ys + [ys[-1] + sy]
    lo_x, hi_x = float(grid.bounds[0][0]), float(grid.bounds[0][1])
    lo_y, hi_y = float(grid.bounds[1][0]), float(grid.bounds[1][1])

    def clamp(pt):
        return (min(max(pt[0], lo_x), hi_x), min(max(pt[1], lo_y), hi_y))

    codes = _cell_codes(grid.membership)
    segments = []
    for i in range(codes.shape[0]):
        for j in range(codes.shape[1]):
            mid = {
                "bottom": ((xs[i] + xs[i + 1]) / 2, ys[j]),
                "top": ((xs[i] + xs[i + 1]) / 2, ys[j + 1]),
                "left": (xs[i], (ys[j] + ys[j + 1]) / 2),
                "right": (xs[i + 1], (ys[j] + ys[j + 1]) / 2),
            }
            for a, b in gridoracle._EDGE_TABLE.get(int(codes[i, j]), ()):
                pa, pb = clamp(mid[a]), clamp(mid[b])
                if pa != pb:
                    segments.append((pa, pb))
    return _reference_stitch(segments)


def _reference_stitch(segments):
    adjacency = {}
    for sid, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((sid, b))
        adjacency.setdefault(b, []).append((sid, a))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        for _ in range(2):
            while True:
                step = next(
                    ((sid, far) for sid, far in adjacency[chain[-1]] if not used[sid]), None
                )
                if step is None:
                    break
                used[step[0]] = True
                chain.append(step[1])
            chain.reverse()
        polylines.append(tuple(chain))
    return tuple(polylines)


def test_stitch_takes_the_first_unused_segment_at_each_end():
    """Segment soups over a few vertices, where one vertex may end many
    segments, so the rule that picks the next segment decides the chains."""
    rng = random.Random(7)
    for _ in range(200):
        vertices = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(6)]
        segments = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(0, 12))]
        segments = [(a, b) for a, b in segments if a != b]
        assert gridoracle._stitch(segments) == _reference_stitch(segments)


def _hand_set_grids():
    """2-good grids with hand-set membership and revenue, by name: random
    densities, resolutions and windows; a checkerboard, with saddle codes 5
    and 10 in every inner cell; fully feasible and fully infeasible
    windows; one distinct revenue and all revenues distinct; a -0.0
    revenue beside 0.0; and an exact window."""
    rng = random.Random(19)

    def grid(membership, revenue, window=None):
        resolution = membership.shape[0]
        if window is None:
            lo = rng.uniform(0.01, 2.0)
            window = (lo, lo + rng.uniform(0.001, 5.0))
        lo, hi = window
        axis = tuple(lo + (hi - lo) * k / (resolution - 1) for k in range(resolution))
        tol = 0 if isinstance(lo, Fraction) else 1e-9
        return gridoracle.RegionGrid((window,) * 2, resolution, (axis, axis), membership, revenue, tol)

    def bits(shape, density):
        return np.array([rng.random() < density for _ in range(np.prod(shape))]).reshape(shape)

    grids = {}
    for k in range(12):
        shape = (rng.randint(2, 30),) * 2
        membership = bits(shape, rng.random())
        revenue = np.array([rng.choice((1.5, 2.0, 1 / 3)) for _ in range(np.prod(shape))])
        grids[f"random{k}"] = grid(membership, np.where(membership, revenue.reshape(shape), 0.0))
    shape = (9, 9)
    checkerboard = np.indices(shape).sum(axis=0) % 2 == 0
    grids["checkerboard"] = grid(checkerboard, np.where(checkerboard, 1.0, 0.0))
    grids["one revenue"] = grid(np.ones(shape, dtype=bool), np.full(shape, 0.1 + 0.2))
    grids["infeasible"] = grid(np.zeros(shape, dtype=bool), np.zeros(shape))
    distinct = np.array([rng.uniform(-5.0, 5.0) for _ in range(np.prod(shape))]).reshape(shape)
    grids["distinct revenues"] = grid(np.ones(shape, dtype=bool), distinct)
    membership = bits(shape, 0.5)
    membership[2, 3] = membership[2, 4] = True
    signed = np.zeros(shape)
    signed[2, 3] = -0.0
    grids["signed zero"] = grid(membership, signed)
    membership = bits(shape, 0.6)
    grids["exact"] = grid(membership, np.where(membership, 3.0, 0.0), (F(1, 5), F(22, 5)))
    return grids


def test_boundary_is_the_per_cell_marching_squares():
    saddles = clamped = 0
    for name, grid in _hand_set_grids().items():
        got = region_boundary_2d(grid)
        assert got == _per_cell_boundary(grid), name
        codes = _cell_codes(grid.membership)
        saddles += int(((codes == 5) | (codes == 10)).sum())
        bounds = {float(v) for pair in grid.bounds for v in pair}
        clamped += sum(x in bounds or y in bounds for line in got for x, y in line)
    assert saddles and clamped


def test_boundary_csv_is_what_csv_writer_writes(ref_grid):
    polylines = (
        (),
        (((0.0, 0.0), (1.0, 0.5)), ((2.0, 2.0), (2.5, 2.0), (2.5, 3.0))),
        (((-0.0, 1e-300), (1 / 3, 2.0**70), (1, 7)),),
        region_boundary_2d(ref_grid),
        *(region_boundary_2d(grid) for grid in _hand_set_grids().values()),
    )
    for lines in polylines:
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["x", "y", "segment_id"])
        for sid, line in enumerate(lines):
            for x, y in line:
                writer.writerow([f"{x:.12g}", f"{y:.12g}", sid])
        buf = io.StringIO()
        export_boundary_csv(lines, buf)
        assert buf.getvalue() == expected.getvalue()


def test_boundary_csv_export():
    polylines = (((0.0, 0.0), (1.0, 0.5)), ((2.0, 2.0), (2.5, 2.0), (2.5, 3.0)))
    buf = io.StringIO()
    export_boundary_csv(polylines, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,y,segment_id"
    assert len(lines) == 1 + 2 + 3
    assert lines[1] == "0,0,0"
    assert lines[-1] == "2.5,3,1"
