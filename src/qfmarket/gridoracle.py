"""Brute-force ground truth on a price lattice.

At desk scale the feasible region, the revenue landscape, and the minimal
price can all be read off a grid: decide feasibility and the max-extension
revenue at every lattice point, remember both, and reduce. The solvers are
tested against these scans, never the other way around.

Both modes read both numbers off Gale's supply-demand condition in closed
form, vectorized over chunks of lattice points. With D_i the goods buyer i
demands and c_j = p_j s_j, the max flow of budgets b_i into the goods is the
minimum over good sets A of sum_{j in A} c_j plus the budgets of the buyers
with D_i not inside A. Demand comes from market.demand_lattice, the one
formula demand_sets also reads, run over whole chunks of points. An
exact-mode scan scales the lattice's prices to integers once, over one
common denominator, and its budgets and capacities over another, so its
demand masks and cut values are exact.

A chunk of k lattice points is laid out goods-major, with the points on the
innermost axis: prices and capacities (n, k), demand masks (m, k), and the
cut terms "D_i not inside A" (2^n, m, k). Every division, maximum and
comparison then runs along the k points, and np.einsum sums each cut's
buyers in buyer order, whatever the chunking.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .feasibility import flow_slack
from .market import Market, MarketError, PriceVector, demand_lattice, mode_array, require_valid
from .numeric import Number, float_mode, format_number

__all__ = [
    "RegionGrid",
    "export_boundary_csv",
    "export_grid_csv",
    "grid_scan",
    "oracle_max_revenue",
    "oracle_min_price",
    "region_boundary_2d",
]


@dataclass(frozen=True)
class RegionGrid:
    """Membership bitmap plus revenue per lattice point.

    axes[d] holds the d-th coordinate values (length `resolution`); arrays
    are indexed by the corresponding lattice indices. Revenue entries are
    max-extension values at feasible points and 0 elsewhere. tol is the
    scanned market's mode tolerance.
    """

    bounds: Tuple[Tuple[Number, Number], ...]
    resolution: int
    axes: Tuple[Tuple[Number, ...], ...]
    membership: np.ndarray
    revenue: np.ndarray
    tol: Number

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def step(self) -> Tuple[Number, ...]:
        return tuple(ax[1] - ax[0] for ax in self.axes)


def _normalize_bounds(market: Market, bounds) -> Tuple[Tuple[Number, Number], ...]:
    """One (lo, hi) pair per good, each in the market's mode: a single pair
    is every good's. "bad price window" unless 0 < lo < hi and hi lies in
    the float range, in both modes: a float scan coerces the window to
    floats, and an exact scan's boundary and CSV read its axes as floats.
    The message prints each bound to 12 significant digits (format_number),
    so a bound of 10**400 reads "1e+400"."""
    coerce = market.mode.coerce
    if len(bounds) == 2 and not isinstance(bounds[0], (tuple, list)):
        bounds = [bounds] * market.n
    if len(bounds) != market.n:
        raise MarketError("need one (lo, hi) bound pair per good")
    out = []
    for lo, hi in bounds:
        # Checked before coercion, which raises on NaN and infinities; NaN
        # fails every comparison.
        if not 0 < lo < hi <= sys.float_info.max:
            lo, hi = (format_number(x, float_mode()) for x in (lo, hi))
            raise MarketError(f"bad price window ({lo}, {hi}): need 0 < lo < hi <= max float")
        out.append((coerce(lo), coerce(hi)))
    return tuple(out)


# Most elements that any one temporary array of a scan holds; the lattice is
# cut into chunks of k points that fit (two at the least). The largest are
# the (2^n, m, k) cut terms, one byte an element (bit masks ANDed, then their
# truth); float mode's (n, m, k) ratios hold fewer elements, of 8 bytes.
# Float scans of the 6-good probe-battery markets ran 3x slower at 1 << 18.
_CHUNK_ELEMENTS = 1 << 16


def grid_scan(market: Market, bounds, resolution: int) -> RegionGrid:
    """Evaluate feasibility and max-extension revenue at every lattice point.

    Each point is decided in closed form (see the module docstring) and
    costs 2^n cut values of m buyers, in either mode, so the scan outruns one
    max flow per point for small n and falls behind it as n grows.
    """
    require_valid(market)
    if resolution < 2:
        raise MarketError("resolution must be at least 2")
    pairs = _normalize_bounds(market, bounds)
    axes = tuple(
        tuple(lo + (hi - lo) * k / (resolution - 1) for k in range(resolution))
        for lo, hi in pairs
    )
    membership, revenue = _gale_scan(market, axes)
    return RegionGrid(pairs, resolution, axes, membership, revenue, market.mode.tol)


def _gale_scan(market: Market, axes):
    """Membership and revenue by Gale's condition, chunk by chunk.

    A point is feasible when the strict budgets fall short of their max flow
    by no more than the flow checks' slack, feasibility.flow_slack, which is
    0 in exact mode. Both modes read demand as demand_sets does, with
    demand_lattice over each chunk's (n, k) prices; only the numbers differ
    (mode_array):
    - an exact scan scales every axis value to integers once, over one
      common `price_unit`, and carries budgets and capacities as Python
      ints times another common denominator `unit`, so its cut values are
      exact; a float scan keeps floats, and both its units are 1;
    - revenue: flow / unit, which for ints is one correctly rounded division.
    """
    m, n = market.m, market.n
    amounts = [b.budget for b in market.buyers]
    amounts += [price * good.supply for ax, good in zip(axes, market.goods) for price in ax]
    unit, amounts = mode_array(market, amounts)
    budgets, cap_axes = amounts[:m], amounts[m:].reshape(n, -1)  # c_j per axis value
    price_unit, grid_axes = mode_array(market, [x for ax in axes for x in ax])
    grid_axes = grid_axes.reshape(n, -1)  # P_j per axis value
    total_budget = sum(budgets.tolist())  # over the capacities' unit
    sets = np.arange(1 << n)
    in_set = ((sets[:, None] >> np.arange(n)) & 1).astype(amounts.dtype)  # (2^n, n)
    mask_type = np.min_scalar_type((1 << n) - 1)
    outside = ((1 << n) - 1 - sets).astype(mask_type)[:, None, None]  # complement of each A

    shape = tuple(len(ax) for ax in axes)
    points = int(np.prod(shape))
    membership = np.zeros(points, dtype=bool)
    revenue = np.zeros(points, dtype=np.float64)
    # Every chunk holds two points at the least: with one, einsum would sum
    # the buyers along its innermost loop, in another order.
    chunk = max(2, _CHUNK_ELEMENTS // (m << n))  # m * 2^n >= m * n
    seams = [*range(0, points - 1, chunk), points]
    for start, stop in zip(seams, seams[1:]):
        idx = np.unravel_index(np.arange(start, stop), shape)
        p = np.stack([ax[i] for ax, i in zip(grid_axes, idx)])  # (n, k)
        demanded = demand_lattice(market, p, price_unit)[2]  # (n + 1, m, k), money first
        demand = np.zeros(demanded.shape[1:], dtype=mask_type)
        for j, plane in enumerate(demanded[1:]):
            demand |= plane.astype(mask_type) << j
        strict = np.where(demanded[0], 0, budgets[:, None])  # (m, k)
        caps = np.stack([c[i] for c, i in zip(cap_axes, idx)])  # (n, k)
        missed = (demand & outside) != 0  # (2^n, m, k): D_i not in A
        cut_caps = in_set @ caps  # (2^n, k)
        strict_flow = (cut_caps + np.einsum("amk,mk->ak", missed, strict)).min(axis=0)
        scale = np.maximum(total_budget, caps.sum(axis=0))
        feasible = strict.sum(axis=0) - strict_flow <= flow_slack(market, scale)
        flow = (cut_caps + np.einsum("amk,m->ak", missed, budgets)).min(axis=0)
        membership[start:stop] = feasible
        revenue[start:stop] = np.where(feasible, flow / unit, 0.0)
    return membership.reshape(shape), revenue.reshape(shape)


def oracle_min_price(grid: RegionGrid) -> PriceVector:
    """Elementwise minimum over all feasible lattice points (a lattice point
    itself, and feasible, because meets of feasible prices stay feasible)."""
    coords = np.nonzero(grid.membership)
    if coords[0].size == 0:
        raise MarketError("no feasible point in the scanned window; widen bounds")
    return tuple(grid.axes[d][int(coords[d].min())] for d in range(grid.n))


def oracle_max_revenue(grid: RegionGrid):
    """Feasible lattice point with the largest max-extension revenue.

    Revenues within the grid's tolerance of the largest, scaled by it, tie:
    float revenues on a plateau can differ in their last bits. Ties break
    toward the lexicographically smallest lattice index, so the reported
    price is deterministic along revenue plateaus.
    """
    if not grid.membership.any():
        raise MarketError("no feasible point in the scanned window; widen bounds")
    masked = np.where(grid.membership, grid.revenue, -np.inf)
    best = masked.max()
    flat = int(np.argmax(masked >= best - grid.tol * abs(best)))
    idx = np.unravel_index(flat, masked.shape)
    price = tuple(grid.axes[d][int(idx[d])] for d in range(grid.n))
    return price, float(masked[idx])


# Marching squares: per-cell segments between edge midpoints. Corner bits are
# (bottom-left, bottom-right, top-right, top-left); entries name the crossed
# edges. Saddles split toward 4-connectivity of the feasible side.
_EDGE_TABLE = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    5: (("left", "bottom"), ("right", "top")),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("bottom", "top"),),
    10: (("bottom", "right"), ("top", "left")),
    11: (("top", "right"),),
    12: (("right", "left"),),
    13: (("bottom", "right"),),
    14: (("left", "bottom"),),
}
_EDGES = ("left", "bottom", "right", "top")
# _EDGE_TABLE as one lookup: [code, entry] holds the entry's two edges as
# indices into _EDGES, or -1 where the code has no such entry.
_SEGMENT_TABLE = np.full((16, 2, 2), -1, dtype=np.intp)
for _code, _entries in _EDGE_TABLE.items():
    for _k, _pair in enumerate(_entries):
        _SEGMENT_TABLE[_code, _k] = [_EDGES.index(edge) for edge in _pair]


def region_boundary_2d(grid: RegionGrid) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Contour of the membership bitmap as stitched polylines.

    The bitmap is padded with an infeasible ring so a fully feasible window
    contours as its own frame; vertices are clamped back into the window.
    The mixed cells, their edge midpoints, the clamp and the segments are
    numpy arrays; segments run by cell in np.nonzero order, then by
    _EDGE_TABLE entry, and a segment whose clamped ends meet is dropped.
    Only the stitching runs in Python.
    """
    if grid.n != 2:
        raise MarketError("boundary extraction is only defined for two goods")
    padded = np.zeros((grid.resolution + 2, grid.resolution + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = grid.membership
    codes = (
        padded[:-1, :-1]
        | padded[1:, :-1] << 1
        | padded[1:, 1:] << 2
        | padded[:-1, 1:] << 3
    )
    rows, cols = np.nonzero((codes != 0) & (codes != 15))  # mixed cells, i then j

    def edge_midpoints(axis, bounds, cells):
        """Each cell's low side, midpoint and high side on one axis, clamped
        into the window; the axis is padded by one step at either end."""
        values = np.array([float(v) for v in axis])
        step = values[1] - values[0]
        padded_axis = np.concatenate(([values[0] - step], values, [values[-1] + step]))
        low, high = padded_axis[cells], padded_axis[cells + 1]
        lo, hi = float(bounds[0]), float(bounds[1])
        return [np.minimum(np.maximum(v, lo), hi) for v in (low, (low + high) / 2, high)]

    x_low, x_mid, x_high = edge_midpoints(grid.axes[0], grid.bounds[0], rows)
    y_low, y_mid, y_high = edge_midpoints(grid.axes[1], grid.bounds[1], cols)
    # (cells, 4 edges, 2 coordinates), the edges in _EDGES order.
    midpoints = np.stack([
        np.stack([x_low, x_mid, x_high, x_mid], axis=1),
        np.stack([y_mid, y_low, y_mid, y_high], axis=1),
    ], axis=2)
    entries = _SEGMENT_TABLE[codes[rows, cols]]  # (cells, 2 entries, 2 ends)
    cell, entry = np.nonzero(entries[:, :, 0] >= 0)  # by cell, then by entry
    edges = entries[cell, entry]
    start, end = midpoints[cell, edges[:, 0]], midpoints[cell, edges[:, 1]]
    keep = (start != end).any(axis=1)
    segments = zip(map(tuple, start[keep].tolist()), map(tuple, end[keep].tolist()))
    return _stitch(list(segments))


def _stitch(segments) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Chain shared-endpoint segments into polylines (closed loops included).

    Endpoints match on their exact coordinates: the two cells that share an
    edge compute its midpoint with one expression, and a clamped vertex lies
    on a window bound. Rounding to a fixed number of decimals would merge
    distinct vertices wherever the window is small enough.
    """
    adjacency = {}
    for sid, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((sid, b))
        adjacency.setdefault(b, []).append((sid, a))
    used = [False] * len(segments)
    polylines = []
    for start, segment in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        chain = list(segment)
        for _ in range(2):  # extend forward, then flip and extend again
            tip = chain[-1]
            while True:
                for sid, far in adjacency[tip]:  # the first unused segment at tip
                    if not used[sid]:
                        break
                else:
                    break  # none: this end is done
                used[sid] = True
                chain.append(far)
                tip = far
            chain.reverse()
        polylines.append(tuple(chain))
    return tuple(polylines)


def export_grid_csv(grid: RegionGrid, fp) -> None:
    """Rows of `price_1,...,price_n,feasible,max_revenue` in lattice order,
    byte for byte as csv.writer writes them: no field needs quoting, and
    every line ends in CRLF.

    Each axis value and each distinct revenue is formatted once with .12g;
    revenues are told apart by their float bits, so 0.0 and -0.0 stay
    apart. A row's tail `price_n,feasible,max_revenue` is then one of the
    distinct (last coordinate, flag, revenue) pieces, and each lattice row
    is written as one string.
    """
    names = [f"price_{d + 1}" for d in range(grid.n)] + ["feasible", "max_revenue"]
    fp.write(",".join(names) + "\r\n")
    labels = [[f"{float(v):.12g}" for v in axis] for axis in grid.axes]
    bits = np.ascontiguousarray(grid.revenue, dtype=np.float64).view(np.uint64)
    distinct, revenue_class = np.unique(bits, return_inverse=True)
    revenues = [f"{r:.12g}" for r in distinct.view(np.float64).tolist()]
    shape = (-1, grid.resolution)  # lattice rows
    flagged = np.arange(grid.resolution) * 2 + grid.membership.reshape(shape)
    keys, tail_class = np.unique(
        flagged * len(revenues) + revenue_class.reshape(shape), return_inverse=True
    )
    pieces = []
    for key in keys.tolist():
        flagged_column, revenue = divmod(key, len(revenues))
        column, flag = divmod(flagged_column, 2)
        pieces.append(f"{labels[-1][column]},{flag},{revenues[revenue]}")
    pieces = np.array(pieces, dtype=object)
    # One lattice row at a time, so no full-grid string is ever built.
    for head, row in zip(itertools.product(*labels[:-1]), tail_class.reshape(shape)):
        prefix = "".join(label + "," for label in head)
        fp.write(prefix + ("\r\n" + prefix).join(pieces[row].tolist()) + "\r\n")


def export_boundary_csv(polylines: Sequence[Sequence[Tuple[float, float]]], fp) -> None:
    """Rows of `x,y,segment_id`, vertices in order within each polyline,
    written as one string, byte for byte as csv.writer writes them: no
    field needs quoting, and every line ends in CRLF."""
    fp.write("".join([
        "x,y,segment_id\r\n",
        *(f"{x:.12g},{y:.12g},{sid}\r\n" for sid, line in enumerate(polylines) for x, y in line),
    ]))
