"""tools/: the code-line count that the change log cites, the output digests
that compare two trees, the line tracer that lists statements no test runs,
and the summary of alternated benchmark pairs."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from qfmarket import (
    Good,
    Market,
    aggregate,
    check_clearing,
    check_feasible,
    float_mode,
    solve,
)
from qfmarket.proptest import random_market

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    """tools/<name>.py as module `name`, registered so that a later tool can
    import it as it does when run from tools/."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("ab")
code_lines = _load("code_lines")
digests = _load("digests")
linecov = _load("linecov")

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment keeps its line


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        text = """a multi-line string
that is not a docstring"""
        return math.pi, text


def bare():
    "A one-line docstring in plain quotes."
    return (
        1
    )
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def area, text = (2 lines), return, def bare, return ( 1 ) (3 lines)
    assert code_lines.code_lines(SAMPLE) == 10


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]


def test_the_cli_digest_does_not_depend_on_where_the_checkout_sits(tmp_path, monkeypatch):
    """The fixtures' reports name their input path; the digest reads it
    relative to the checkout, so a copy of the fixtures elsewhere digests
    the same."""
    here = digests.cli_digest()
    fixtures = tmp_path / "elsewhere" / "tests" / "fixtures"
    fixtures.mkdir(parents=True)
    for path in (digests.ROOT / "tests" / "fixtures").glob("*.json"):
        (fixtures / path.name).write_bytes(path.read_bytes())
    monkeypatch.setattr(digests, "ROOT", tmp_path / "elsewhere")
    assert digests.cli_digest() == here


def test_market_digests_repeat_and_tell_families_apart():
    def family(count):
        rng = random.Random(0)
        return [random_market(rng) for _ in range(count)]

    first = digests.market_digests(family(3))
    assert list(first) == list(digests.OUTPUTS)
    assert all(len(value) == 64 for value in first.values())
    assert digests.market_digests(family(3)) == first
    assert digests.market_digests(family(2))["solve"] != first["solve"]


def test_the_idle_family_is_the_battery_with_a_zero_supply_good(monkeypatch):
    """Each `idle` market is its battery market with one more good, of
    supply 0, that every buyer values at 5/2."""
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    families = dict(digests.families())
    assert list(families)[:2] == ["battery", "idle"]
    for market, idle in zip(families["battery"], families["idle"]):
        assert idle.goods == market.goods + (Good("idle", 0),)
        assert [b.values for b in idle.buyers] == [b.values + (Fraction(5, 2),) for b in market.buyers]
        assert [b.budget for b in idle.buyers] == [b.budget for b in market.buyers]


def test_a_demand_set_digests_as_its_goods(monkeypatch):
    """A demand set with a `.goods` field, as an older tree returns, and the
    bare frozenset of its goods give the same `demand_sets` digest."""
    import qfmarket

    market = random_market(random.Random(0))
    bare = digests.market_digests([market])
    sets = qfmarket.demand_sets

    def wrapped(m, p):
        return tuple(SimpleNamespace(goods=s) for s in sets(m, p))

    monkeypatch.setattr(qfmarket, "demand_sets", wrapped)
    assert digests.market_digests([market]) == bare


def test_outcomes_hold_no_bundle():
    """Reversing the buyers reverses the bundles, so `answers` moves, but
    not `outcomes`. That record holds p* and each check's verdicts and
    witness goods; in exact mode also solve's revenue, welfare and sales,
    and each check's max-extension revenue, forced budget and capacity."""
    rng = random.Random(0)
    markets = [random_market(rng) for _ in range(3)]
    reversed_ = [Market(m.goods, m.buyers[::-1], m.mode) for m in markets]
    first, second = digests.market_digests(markets), digests.market_digests(reversed_)
    assert first["outcomes"] == second["outcomes"]
    assert first["answers"] != second["answers"]

    market = markets[0]
    result = solve(market)
    cut = (result.p_star[0] / 2,) + result.p_star[1:]
    clearing, infeasible = check_clearing(market, result.p_star), check_feasible(market, cut)
    witness = infeasible.witness
    assert digests.outcomes(market, result, [clearing, infeasible]) == (
        result.p_star, result.revenue, result.welfare, aggregate(result.allocation, market.n),
        [(True, True, None, clearing.max_extension_revenue, None),
         (False, None, witness.goods, None, (witness.forced_budget, witness.capacity))],
    )
    floats = market.coerced(float_mode())
    result = solve(floats)
    cut = (result.p_star[0] / 2,) + result.p_star[1:]
    certificates = [check_clearing(floats, result.p_star), check_feasible(floats, cut)]
    assert digests.outcomes(floats, result, certificates) == (
        result.p_star, [(True, True, None), (False, None, certificates[1].witness.goods)],
    )


BRANCHY = '''"""Module docstring."""


def sign(x):
    """Function docstring."""
    global calls
    if x > 0:
        return 1
    return -1
'''


def test_linecov_lists_the_statements_that_never_ran(tmp_path):
    """sign(2) takes the first branch, so only `return -1` never runs; the
    docstrings and the `global` statement, which compiles to no code, are
    not counted."""
    path = tmp_path / "branchy.py"
    path.write_text(BRANCHY)
    files = [str(path)]

    def run():
        spec = importlib.util.spec_from_file_location("branchy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(2)

    result, executed = linecov.traced(files, run)
    assert result == 1
    assert linecov.never_ran(files, executed) == {str(path): [(9, "return -1")]}
    assert [line for line, _, _ in linecov.statements(BRANCHY)] == [4, 7, 8, 9]


def test_ab_summary_counts_wins_and_reads_the_claim_rule():
    """A tie counts for neither side; the claim needs 9 wins of every 10
    pairs (rounded up) and a median gain beyond the parent's interquartile
    range."""
    s = ab.summarize([10, 11, 12, 13, 14], [9, 9.5, 12, 11, 10], "lower")
    assert (s["parent_median"], s["change_median"]) == (12, 10)
    assert (s["parent_quartiles"], s["change_quartiles"]) == ([11, 13], [9.5, 11])
    assert (s["change_wins"], s["change_losses"]) == ("4/5", "0/5")
    assert s["gain"] == 2 / 12
    assert s["claim_holds"] is False  # 4 of 5 wins, and a gain of 2 is not above the IQR of 2

    parent = [8.7, 8.9, 8.6, 8.8, 8.75, 8.85, 8.65, 8.8, 8.7, 8.9]
    change = [7.9, 7.8, 8.0, 7.85, 7.9, 9.0, 7.8, 7.95, 7.9, 7.85]
    s = ab.summarize(parent, change, "lower")
    assert s["change_wins"] == "9/10" and s["claim_holds"] is True
    # The same numbers read as a rate: the change loses every pair but one.
    s = ab.summarize(parent, change, "higher")
    assert s["change_wins"] == "1/10" and s["claim_holds"] is False and s["gain"] < 0
