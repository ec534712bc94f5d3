"""The property suites on hand-built probes, where a branch that the seeded
battery never reaches is known to run."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from qfmarket import proptest
from qfmarket.gridoracle import grid_scan
from qfmarket.proptest import (
    MarketProbe,
    SuiteResult,
    suite_efficiency,
    suite_meet_closure,
    suite_minimality,
)
from qfmarket.solver import solve

F = Fraction


def _probe(market):
    """The reference market's probe over (3/10, 9/10)^2 at resolution 5,
    which puts p* = (3/5, 3/5) on the lattice."""
    return MarketProbe(market, solve(market), grid_scan(market, (F(3, 10), F(9, 10)), 5))


def _with_membership(probe, value):
    """The probe with every lattice point marked feasible (True) or not."""
    membership = np.full_like(probe.grid.membership, value)
    return dataclasses.replace(probe, grid=dataclasses.replace(probe.grid, membership=membership))


def test_efficiency_bounds_near_optimal_points_by_two_steps(ref_exact):
    """The window (3/10, 9/10)^2 at resolution 5 (step 3/20) puts
    p* = (3/5, 3/5) on the lattice, so the suite's near-optimal clause runs
    at p* itself: it passes there, and fails once p* is moved three steps
    away."""
    probe = _probe(ref_exact)
    result, grid = probe.result, probe.grid
    assert result.p_star == (F(3, 5), F(3, 5)) and F(3, 5) in grid.axes[0]
    assert suite_efficiency(probe).failures == ()

    shifted = dataclasses.replace(result, p_star=(F(3, 5) + 3 * grid.step[0], F(3, 5)))
    failures = suite_efficiency(MarketProbe(ref_exact, shifted, grid)).failures
    assert (
        "near-equilibrium welfare at (0.6, 0.6) but coordinate 1 is 0.45 "
        "from the minimal price"
    ) in failures


def test_meet_closure_refuses_a_window_without_two_feasible_points(ref_exact):
    probe = _with_membership(_probe(ref_exact), False)
    assert suite_meet_closure(probe, random.Random(0)) == SuiteResult(
        "meet-closure", 0, ("grid window has < 2 feasible points",)
    )


@pytest.mark.parametrize(
    "defect, kinds",
    [
        (lambda p, q: tuple(min(a, b) / 2 for a, b in zip(p, q)), {"meet"}),
        (
            lambda p, q: tuple(map(max, p, q)),
            {"spliced allocation at meet", "demand shift toward"},
        ),
    ],
    ids=["halved", "join"],
)
def test_meet_closure_reports_a_broken_meet(ref_exact, monkeypatch, defect, kinds):
    """A meet that halves its prices leaves the feasible region; one that
    returns the join keeps it, but the spliced allocation does not extend
    it and demand does not shift across it as the lattice argument says."""
    probe = _probe(ref_exact)
    monkeypatch.setattr(proptest, "meet", defect)
    result = suite_meet_closure(probe, random.Random(0))
    assert result.cases == 100
    assert {f.split(" (")[0] for f in result.failures} == kinds


def test_efficiency_reports_misread_points_and_welfare_above_equilibrium(ref_exact):
    """A grid that calls every point feasible loses the extension of the
    infeasible ones; an equilibrium welfare cut by 1 is beaten at p*."""
    probe = _probe(ref_exact)
    lost = suite_efficiency(_with_membership(probe, True)).failures
    assert "feasible point (Fraction(3, 10), Fraction(3, 10)) lost its extension" in lost
    poorer = dataclasses.replace(probe.result, welfare=probe.result.welfare - 1)
    beaten = suite_efficiency(dataclasses.replace(probe, result=poorer)).failures
    assert "outcome at (0.6, 0.6) has welfare 15.0 > 14.0" in beaten


def test_minimality_reports_a_price_above_p_star(ref_exact):
    probe = _probe(ref_exact)
    doubled = dataclasses.replace(probe.result, p_star=(F(6, 5), F(6, 5)))
    result = suite_minimality(dataclasses.replace(probe, result=doubled))
    assert result == SuiteResult(
        "minimality",
        2,
        tuple(
            f"1% cut of coordinate {j} at (Fraction(6, 5), Fraction(6, 5)) stays feasible"
            for j in (1, 2)
        ),
    )
