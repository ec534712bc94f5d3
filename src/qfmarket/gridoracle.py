"""Brute-force ground truth on a price lattice.

At desk scale the feasible region, the revenue landscape, and the minimal
price can all be read off a grid: evaluate the flow check at every lattice
point, remember membership and the max-extension revenue, and reduce. The
solvers are tested against these scans, never the other way around.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .feasibility import _Routing
from .market import Market, MarketError, PriceVector, require_valid
from .numeric import Number


@dataclass(frozen=True)
class RegionGrid:
    """Membership bitmap plus revenue per lattice point.

    axes[d] holds the d-th coordinate values (length `resolution`); arrays
    are indexed by the corresponding lattice indices. Revenue entries are
    max-extension values at feasible points and 0 elsewhere.
    """

    bounds: Tuple[Tuple[Number, Number], ...]
    resolution: int
    axes: Tuple[Tuple[Number, ...], ...]
    membership: np.ndarray
    revenue: np.ndarray

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def step(self) -> Tuple[Number, ...]:
        return tuple(ax[1] - ax[0] for ax in self.axes)


def _normalize_bounds(market: Market, bounds) -> Tuple[Tuple[Number, Number], ...]:
    coerce = market.mode.coerce
    if len(bounds) == 2 and not isinstance(bounds[0], (tuple, list)):
        bounds = [bounds] * market.n
    if len(bounds) != market.n:
        raise MarketError("need one (lo, hi) bound pair per good")
    out = []
    for lo, hi in bounds:
        lo, hi = coerce(lo), coerce(hi)
        if lo <= 0 or hi <= lo:
            raise MarketError(f"bad price window ({lo}, {hi}): need 0 < lo < hi")
        out.append((lo, hi))
    return tuple(out)


def grid_scan(market: Market, bounds, resolution: int) -> RegionGrid:
    """Evaluate feasibility and max-extension revenue at every lattice point."""
    require_valid(market)
    if resolution < 2:
        raise MarketError("resolution must be at least 2")
    pairs = _normalize_bounds(market, bounds)
    axes = tuple(
        tuple(lo + (hi - lo) * k / (resolution - 1) for k in range(resolution))
        for lo, hi in pairs
    )
    shape = (resolution,) * market.n
    membership = np.zeros(shape, dtype=bool)
    revenue = np.zeros(shape, dtype=np.float64)
    for idx in np.ndindex(shape):
        p = tuple(axes[d][idx[d]] for d in range(market.n))
        routing = _Routing(market, p)
        if routing.run_strict_phase():
            membership[idx] = True
            revenue[idx] = float(routing.run_extension_phase())
    return RegionGrid(pairs, resolution, axes, membership, revenue)


def oracle_min_price(grid: RegionGrid) -> PriceVector:
    """Elementwise minimum over all feasible lattice points (a lattice point
    itself, and feasible, because meets of feasible prices stay feasible)."""
    coords = np.nonzero(grid.membership)
    if coords[0].size == 0:
        raise MarketError("no feasible point in the scanned window; widen bounds")
    return tuple(grid.axes[d][int(coords[d].min())] for d in range(grid.n))


def oracle_max_revenue(grid: RegionGrid):
    """Feasible lattice point with the largest max-extension revenue.

    Ties break toward the lexicographically smallest lattice index, so the
    reported price is deterministic along revenue plateaus.
    """
    if not grid.membership.any():
        raise MarketError("no feasible point in the scanned window; widen bounds")
    masked = np.where(grid.membership, grid.revenue, -np.inf)
    flat = int(masked.argmax())
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


def region_boundary_2d(grid: RegionGrid) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Contour of the membership bitmap as stitched polylines.

    The bitmap is padded with an infeasible ring so a fully feasible window
    contours as its own frame; vertices are clamped back into the window.
    """
    if grid.n != 2:
        raise MarketError("boundary extraction is only defined for two goods")
    padded = np.zeros((grid.resolution + 2, grid.resolution + 2), dtype=bool)
    padded[1:-1, 1:-1] = grid.membership
    xs = [float(v) for v in grid.axes[0]]
    ys = [float(v) for v in grid.axes[1]]
    sx, sy = xs[1] - xs[0], ys[1] - ys[0]
    xs = [xs[0] - sx] + xs + [xs[-1] + sx]
    ys = [ys[0] - sy] + ys + [ys[-1] + sy]
    lo_x, hi_x = float(grid.bounds[0][0]), float(grid.bounds[0][1])
    lo_y, hi_y = float(grid.bounds[1][0]), float(grid.bounds[1][1])

    def clamp(pt):
        return (min(max(pt[0], lo_x), hi_x), min(max(pt[1], lo_y), hi_y))

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            code = (
                int(padded[i, j])
                | int(padded[i + 1, j]) << 1
                | int(padded[i + 1, j + 1]) << 2
                | int(padded[i, j + 1]) << 3
            )
            if code in (0, 15):
                continue
            mid = {
                "bottom": ((xs[i] + xs[i + 1]) / 2, ys[j]),
                "top": ((xs[i] + xs[i + 1]) / 2, ys[j + 1]),
                "left": (xs[i], (ys[j] + ys[j + 1]) / 2),
                "right": (xs[i + 1], (ys[j] + ys[j + 1]) / 2),
            }
            for a, b in _EDGE_TABLE[code]:
                pa, pb = clamp(mid[a]), clamp(mid[b])
                if pa != pb:
                    segments.append((pa, pb))

    return _stitch(segments)


def _stitch(segments) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Chain shared-endpoint segments into polylines (closed loops included)."""

    def key(pt):
        return (round(pt[0], 9), round(pt[1], 9))

    adjacency = {}
    for sid, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append((sid, a, b))
        adjacency.setdefault(key(b), []).append((sid, b, a))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for _ in range(2):  # extend forward, then flip and extend again
            while True:
                tail = key(chain[-1])
                step = next(
                    (
                        (sid, far)
                        for sid, near, far in adjacency.get(tail, ())
                        if not used[sid]
                    ),
                    None,
                )
                if step is None:
                    break
                used[step[0]] = True
                chain.append(step[1])
            chain.reverse()
        polylines.append(tuple(chain))
    return tuple(polylines)


def export_grid_csv(grid: RegionGrid, fp) -> None:
    """Rows of `price_1,...,price_n,feasible,max_revenue` in lattice order."""
    writer = csv.writer(fp)
    writer.writerow(
        [f"price_{d + 1}" for d in range(grid.n)] + ["feasible", "max_revenue"]
    )
    for idx in np.ndindex(grid.membership.shape):
        coords = [f"{float(grid.axes[d][idx[d]]):.12g}" for d in range(grid.n)]
        writer.writerow(
            coords
            + [int(grid.membership[idx]), f"{float(grid.revenue[idx]):.12g}"]
        )


def export_boundary_csv(polylines: Sequence[Sequence[Tuple[float, float]]], fp) -> None:
    """Rows of `x,y,segment_id`, vertices in order within each polyline."""
    writer = csv.writer(fp)
    writer.writerow(["x", "y", "segment_id"])
    for sid, line in enumerate(polylines):
        for x, y in line:
            writer.writerow([f"{x:.12g}", f"{y:.12g}", sid])
