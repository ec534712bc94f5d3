"""sha256 digests of qfmarket's outputs, one line per market family and output.

    python tools/digests.py               # qfmarket from src/
    python tools/digests.py path/to/src   # e.g. from a `git archive` of another commit

Two trees give the same answers when their printouts are the same, so
"identical to the parent" is one diff between two runs, each in its own
process. Each line is `family output sha256`. For every market of a family,
in exact mode and as the same market in floats, the outputs are:

- answers: repr((p_star, allocation, revenue, welfare, clearing_certificate,
  efficiency_certificate)) of solve(m), the answer without the diagnostics of
  how it was reached, so "same answers, changed diagnostics" reads as an
  identical `answers` line beside a different `solve` line;
- solve: repr(solve(m));
- descent: repr(lattice_descent(m, initial_feasible_price(m)));
- demand_sets, check_clearing: their reprs at p* and at that start price,
  each demand set digested as its goods, getattr(s, "goods", s), so a
  frozenset and an older set type with a `.goods` field print the same
  line;
- check_feasible: its repr at the start price, at p*, and at p* with each
  coordinate in turn times 99/100 in the market's mode (the minimality
  suite's cuts, which are infeasible, so their witnesses are digested too);
- outcomes: what does not depend on which bundles an allocation hands
  out. In both modes: p* and each digested check's verdicts and witness
  goods. In exact mode also: solve's revenue, welfare and per-good sales
  (the same for every clearing allocation), and each check's max-extension
  revenue and its witness's forced budget and capacity. Float sums of
  these depend on the order of their terms, so float mode leaves them out.

After a family's digests comes one plain line of counts over its solves,
`family counts descents D checks C eg_iterations I`: how many solves fell to
the descent, how many clearing checks solve made (those of the support's
candidates, the descent endpoint's and a float market's re-check), and the
proportional-response iterations run. A stop-rule change that keeps every
answer shows its cost there as a diff.

The families are the seed-0 6x6 acceptance battery, `idle` (that battery
with one good of supply 0 appended, valued 5/2 by every buyer: a change in
how solve reaches its answers on such markets shows as identical
`answers`, `descent`, `check_*`, `demand_sets` and `outcomes` lines beside
a changed `solve` line), random_market draws 12345/8x4 #0-59 and Random(7)
6x6 #0-39, crowd_market draws from Random(100)
at 50x3, 120x4 and 200x4, the first three crowd_market draws from one
Random(11) at 100x4, a ladder from one Random(100) at 200x4, 500x4 and
1000x8, and the benchmark's `crowd` and `region` markets (read from
perfbench/workloads.py's generators). Also digested: the grid_scan membership
and revenue of the acceptance battery's windows and of the `region` markets,
in both modes, and the `--no-timestamp` solve reports of the four fixtures in
both modes, each report's input path written relative to the checkout (see
cli_digest). The readers are digested too: repr((kind, market, owners)) of
each fixture read by load_market with no mode, exact and in floats, and of
one CSV table with a repeated owner and a zero-budget row read by
load_market_csv in the same modes as a market and as arctic bids, with the
warnings each read gives. Markets, fixtures and generators come from this
tool's own checkout, so the two runs differ only in the qfmarket they
import, and two checkouts in different places print the same lines. A run
takes about 10 s (2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = (
    "answers", "solve", "descent", "demand_sets", "check_clearing", "check_feasible", "outcomes",
)
COUNTS = ("descents", "checks", "eg_iterations")


def import_program(src: Path):
    """Import qfmarket from src and nowhere else, and put this checkout's
    perfbench/ on the path for its workload generators; returns the package."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import qfmarket

    if Path(qfmarket.__file__).resolve().parent != src.resolve() / "qfmarket":
        raise ImportError(f"qfmarket was imported from {qfmarket.__file__}, not {src}")
    return qfmarket


@contextlib.contextmanager
def counted_checks():
    """Yields the list of prices that qfmarket.solver's check_clearing is
    called with until the block ends."""
    solver = sys.modules["qfmarket.solver"]
    check = solver.check_clearing
    calls = []

    def counted(market, p):
        calls.append(p)
        return check(market, p)

    solver.check_clearing = counted
    try:
        yield calls
    finally:
        solver.check_clearing = check


def market_digests(markets, counts=None) -> dict:
    """{output: sha256} over every market, in exact mode and in floats;
    adds the solves' descents, checks and eg_iterations into `counts` (a
    Counter) when one is given."""
    import qfmarket as q

    hashes = {name: hashlib.sha256() for name in OUTPUTS}

    def feed(name, value):
        hashes[name].update(repr(value).encode("utf-8") + b"\n")

    for market in markets:
        for m in (market, market.coerced(q.float_mode())):
            with counted_checks() as checks:
                result = q.solve(m)
            if counts is not None:
                counts["descents"] += result.certified_by == "descent"
                counts["checks"] += len(checks)
                counts["eg_iterations"] += result.eg.iterations if result.eg else 0
            start = q.initial_feasible_price(m)
            feed("answers", (result.p_star, result.allocation, result.revenue, result.welfare,
                             result.clearing_certificate, result.efficiency_certificate))
            feed("solve", result)
            feed("descent", q.lattice_descent(m, start))
            certificates = []
            for p in (result.p_star, start):
                feed("demand_sets", tuple(getattr(s, "goods", s) for s in q.demand_sets(m, p)))
                certificates.append(q.check_clearing(m, p))
                feed("check_clearing", certificates[-1])
            cut = Fraction(99, 100) if m.mode.is_exact else 0.99
            p_star = result.p_star
            cuts = [p_star[:j] + (p_star[j] * cut,) + p_star[j + 1:] for j in range(m.n)]
            for p in (start, p_star, *cuts):
                certificates.append(q.check_feasible(m, p))
                feed("check_feasible", certificates[-1])
            feed("outcomes", outcomes(m, result, certificates))
    return {name: h.hexdigest() for name, h in hashes.items()}


def outcomes(market, result, certificates):
    """The `outcomes` record of one market: see the module docstring."""
    import qfmarket as q

    exact = market.mode.is_exact
    checks = []
    for cert in certificates:
        witness = cert.witness
        check = (cert.feasible, cert.clearing, witness and witness.goods)
        if exact:
            check += (cert.max_extension_revenue,
                      witness and (witness.forced_budget, witness.capacity))
        checks.append(check)
    if not exact:
        return result.p_star, checks
    sales = q.aggregate(result.allocation, market.n)
    return result.p_star, result.revenue, result.welfare, sales, checks


def grid_digest(windows) -> str:
    """sha256 of grid_scan's membership and revenue for each (market,
    bounds, resolution), in exact mode and in floats."""
    import qfmarket as q

    h = hashlib.sha256()
    for market, bounds, resolution in windows:
        for m in (market, market.coerced(q.float_mode())):
            grid = q.grid_scan(m, bounds, resolution)
            h.update(repr((grid.membership.tolist(), grid.revenue.tolist())).encode("utf-8"))
    return h.hexdigest()


def cli_digest() -> str:
    """sha256 of the `--no-timestamp` solve reports of the four fixtures,
    each report's input path written relative to this checkout, so the line
    does not depend on where the checkout sits."""
    from qfmarket.cli import main

    h = hashlib.sha256()
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        for mode in ("exact", "float"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["solve", str(path), "--mode", mode, "--no-timestamp"])
            report = out.getvalue().replace(
                json.dumps(str(path)), json.dumps(path.relative_to(ROOT).as_posix())
            )
            h.update(f"{code}\n{report}".encode("utf-8"))
    return h.hexdigest()


def load_digest() -> str:
    """sha256 of what the readers make of the fixtures and of one CSV table."""
    import qfmarket as q

    table = "name,budget,v_1,v_2\no,1,2,3\no,0,1,0\np,2,1,1\no,3,1/2,4\nz,0,0,1\n"
    reads = [(q.load_market, path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests" / "fixtures").glob("*.json"))]
    reads += [(functools.partial(q.load_market_csv, supplies=["3", "2"], kind=kind), table)
              for kind in ("market", "arctic")]
    h = hashlib.sha256()
    for read, text in reads:
        for mode in (None, q.EXACT, q.float_mode()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = read(text, mode=mode)
            messages = [str(w.message) for w in caught]
            h.update(repr((loaded.kind, loaded.market, loaded.owners, messages)).encode("utf-8"))
    return h.hexdigest()


def families():
    """[(name, markets)]: the market families, each drawn afresh."""
    import qfmarket as q
    import workloads

    def draws(seed, count, buyers, goods):
        rng = random.Random(seed)
        return [q.random_market(rng, buyers, goods) for _ in range(count)]

    def idle(market):  # market with a good of supply 0 that every buyer values at 5/2
        goods = market.goods + (q.Good("idle", 0),)
        buyers = tuple(q.Buyer(b.name, b.values + (Fraction(5, 2),), b.budget)
                       for b in market.buyers)
        return q.Market(goods, buyers, market.mode)

    ladder, crowd11 = random.Random(100), random.Random(11)
    battery = draws(0, 20, 6, 6)
    return [
        ("battery", battery),
        ("idle", [idle(market) for market in battery]),
        ("12345-8x4", draws(12345, 60, 8, 4)),
        ("7-6x6", draws(7, 40, 6, 6)),
        ("crowd-100", [workloads.crowd_market(random.Random(100), m, n)
                       for m, n in ((50, 3), (120, 4), (200, 4))]),
        ("crowd-11", [workloads.crowd_market(crowd11, 100, 4) for _ in range(3)]),
        ("ladder-100", [workloads.crowd_market(ladder, m, n)
                        for m, n in ((200, 4), (500, 4), (1000, 8))]),
        ("bench-crowd", workloads.crowd_base()),
        ("bench-region", [market for market, _, _ in workloads.region_base()]),
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    q = import_program(Path(args[0]) if args else ROOT / "src")
    for name, markets in families():
        counts = Counter()
        for output, digest in market_digests(markets, counts).items():
            print(f"{name} {output} {digest}")
        print(f"{name} counts " + " ".join(f"{k} {counts[k]}" for k in COUNTS))
    import workloads

    rng = random.Random(0)  # run_all(seed=0) builds its probes from these draws first
    probes = [q.build_probe(q.random_market(rng)) for _ in range(20)]
    battery_windows = [(probe.market, probe.grid.bounds, probe.grid.resolution) for probe in probes]
    print(f"battery grid_scan {grid_digest(battery_windows)}")
    print(f"bench-region grid_scan {grid_digest(workloads.region_base())}")
    print(f"fixtures cli {cli_digest()}")
    print(f"fixtures load {load_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
