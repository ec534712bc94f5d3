"""The property suites on hand-built probes, where a branch that the seeded
battery never reaches is known to run."""

import dataclasses
from fractions import Fraction

from qfmarket.gridoracle import grid_scan
from qfmarket.proptest import MarketProbe, suite_efficiency
from qfmarket.solver import solve

F = Fraction


def test_efficiency_bounds_near_optimal_points_by_two_steps(ref_exact):
    """The window (3/10, 9/10)^2 at resolution 5 (step 3/20) puts
    p* = (3/5, 3/5) on the lattice, so the suite's near-optimal clause runs
    at p* itself: it passes there, and fails once p* is moved three steps
    away."""
    result = solve(ref_exact)
    grid = grid_scan(ref_exact, (F(3, 10), F(9, 10)), 5)
    assert result.p_star == (F(3, 5), F(3, 5)) and F(3, 5) in grid.axes[0]
    assert suite_efficiency(MarketProbe(ref_exact, result, grid)).failures == ()

    shifted = dataclasses.replace(result, p_star=(F(3, 5) + 3 * grid.step[0], F(3, 5)))
    failures = suite_efficiency(MarketProbe(ref_exact, shifted, grid)).failures
    assert (
        "near-equilibrium welfare at (0.6, 0.6) but coordinate 1 is 0.45 "
        "from the minimal price"
    ) in failures
