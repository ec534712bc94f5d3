"""Command-line front end.

Subcommands: solve, check-price, region, monopoly, proptest. Each cmd_*
builds a report, a JSON object with a stable field order so runs diff
cleanly, and a few summary lines; it reads no clock and writes no report.
main is the one report path: it starts the clock once the arguments parse,
stamps the report unless --no-timestamp is given, and writes it to --out,
printing the summary on stdout, or else writes it to stdout. region's --out
names the grid CSV it writes, so its report always goes to stdout. Every
file the CLI writes, report or CSV, goes through _write_all, which refuses
a path that is not a regular file and replaces each file whole.

Exit codes: 0 success, 1 input problem, usage errors and an unwritable
--out included, 2 solver failure (solve's price failing its clearing check,
whether rounded from a certified candidate or reached by the descent
fallback, or a market with no minimal price) or a proptest with failing
suites. A stalled proportional-response iteration is not a failure:
solve checks its support's candidate or falls back to the descent.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import sys
import tempfile
import time
import warnings
from datetime import datetime, timezone
from fractions import Fraction

from .feasibility import check_clearing
from .gridoracle import (
    export_boundary_csv,
    export_grid_csv,
    grid_scan,
    oracle_max_revenue,
    oracle_min_price,
    region_boundary_2d,
)
from .market import Market, MarketError, aggregate
from .marketio import ParseError, load_market, load_market_csv, reaggregate
from .monopoly import (
    MonopolyInstance,
    clearing_price,
    divergence_witness,
    example_a1,
    linear_valuation,
    max_revenue_price,
    revenue_at,
)
from .numeric import EXACT, Number, float_mode, number_to_json, parse_number
from .proptest import run_all
from .solver import MethodDisagreementError, SolverConvergenceError, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2


def _num(value: Number, exact: bool):
    """12-significant-digit float, or a p/q string (an int if whole) in exact mode."""
    if exact and isinstance(value, Fraction):
        return number_to_json(value)
    return float(format(float(value), ".12g"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load(args) -> tuple:
    """(loaded market, the report's input block) for args.path. --supply and
    --kind describe CSV rows; a JSON market carries its own, so they are
    refused there rather than ignored. Each warning of the read (a dropped
    zero-budget bid) is one `warning: ...` line on stderr, printed before
    any refusal of the input."""
    with open(args.path, "rb") as fh:
        raw = fh.read()
    mode = {"exact": EXACT, "float": float_mode()}.get(args.mode)
    if args.path.endswith(".csv"):
        if not args.supply:
            raise ParseError("csv", "CSV input needs --supply s_1,...,s_n")
        supplies = [s.strip() for s in args.supply.split(",")]
        read = functools.partial(
            load_market_csv, raw.decode("utf-8"), supplies, args.kind or "market", mode
        )
    else:
        for flag, value in (("--supply", args.supply), ("--kind", args.kind)):
            if value is not None:
                message = f"{flag} applies to CSV input only; a JSON market sets its own"
                raise ParseError("json", message)
        read = functools.partial(load_market, raw, mode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = read()
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    return loaded, {"path": args.path, "sha256": _digest(raw), "kind": loaded.kind}


def _parse_price(text: str, market: Market):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != market.n:
        raise ParseError("price", f"expected {market.n} comma-separated prices, got {len(parts)}")
    try:
        return tuple(parse_number(t, market.mode) for t in parts)
    except ValueError as exc:
        raise ParseError("price", str(exc)) from None


def cmd_solve(args) -> tuple:
    loaded, source = _load(args)
    market = loaded.market
    exact = market.mode.is_exact
    result = solve(market)
    eg = result.eg  # None when proportional response did not run
    totals = aggregate(result.allocation, market.n)
    report = {
        "command": "solve",
        "input": source,
        "mode": market.mode.kind,
        "goods": [g.name for g in market.goods],
        "p_star": [_num(v, exact) for v in result.p_star],
        "buyers": [b.name for b in market.buyers],
        "allocation": [[_num(q, exact) for q in row] for row in result.allocation],
        "aggregate": [_num(v, exact) for v in totals],
        "revenue": _num(result.revenue, exact),
        "welfare": _num(result.welfare, exact),
        "certificates": {
            "clearing": {
                "feasible": result.clearing_certificate.feasible,
                "clearing": result.clearing_certificate.clearing,
                "max_extension_revenue": _num(
                    result.clearing_certificate.max_extension_revenue, exact
                ),
            },
            "efficiency": {
                "verdict": result.efficiency_certificate.verdict,
                "welfare": _num(result.efficiency_certificate.welfare, exact),
            },
        },
        "diagnostics": {
            "method_agreement": _num(result.method_agreement, False) if eg else None,
            "eg_duality_gap": _num(eg.duality_gap, False) if eg else None,
            "eg_iterations": eg.iterations if eg else None,
            "descent_steps": len(result.descent.steps),
            "descent_probes": result.descent.probes,
            "certified_by": result.certified_by,
        },
    }
    if loaded.owners is not None:
        report["owners"] = [
            {
                "owner": owner,
                "bundle": [_num(q, exact) for q in bundle],
                "spend": _num(spend, exact),
            }
            for owner, bundle, spend in reaggregate(
                loaded.owners, result.allocation, result.p_star
            )
        ]
    return report, [
        "p* = (" + ", ".join(str(v) for v in report["p_star"]) + ")",
        f"revenue = {report['revenue']}",
        f"welfare = {report['welfare']}",
    ]


def cmd_check_price(args) -> tuple:
    loaded, source = _load(args)
    market = loaded.market
    exact = market.mode.is_exact
    price = _parse_price(args.price, market)
    cert = check_clearing(market, price)
    report = {
        "command": "check-price",
        "input": source,
        "mode": market.mode.kind,
        "price": [_num(v, exact) for v in price],
        "feasible": cert.feasible,
        "clearing": cert.clearing,
    }
    if not cert.feasible:
        witness = cert.witness
        report["witness"] = {
            "goods": [market.goods[j - 1].name for j in witness.goods],
            "forced_budget": _num(witness.forced_budget, exact),
            "capacity": _num(witness.capacity, exact),
            "excess": _num(witness.excess, exact),
        }
        over = ", ".join(report["witness"]["goods"])
        return report, ["infeasible", f"over-demanded goods: {over}"]
    report["max_extension_revenue"] = _num(cert.max_extension_revenue, exact)
    report["allocation"] = [[_num(q, exact) for q in row] for row in cert.allocation]
    return report, [
        "feasible" + (", clearing" if cert.clearing else ", not clearing"),
        f"max-extension revenue = {report['max_extension_revenue']}",
    ]


def cmd_region(args) -> tuple:
    loaded, source = _load(args)
    market = loaded.market
    exact = market.mode.is_exact
    try:
        lo_text, hi_text = args.bounds.split(":")
        lo = parse_number(lo_text, market.mode)
        hi = parse_number(hi_text, market.mode)
    except ValueError:
        raise ParseError("bounds", f"expected lo:hi, got {args.bounds!r}") from None
    points = args.resolution ** market.n
    if points > 10**7:
        raise MarketError(
            f"{args.resolution}^{market.n} = {points} lattice points exceeds the "
            "10^7 cap; lower --resolution or scan fewer goods"
        )
    if args.boundary and market.n != 2:
        raise MarketError("boundary extraction needs exactly 2 goods")
    if args.boundary and os.path.realpath(args.boundary) == os.path.realpath(args.grid_csv):
        raise MarketError(f"--boundary {args.boundary} is the --out file")
    grid = grid_scan(market, (lo, hi), args.resolution)
    outputs = [(args.grid_csv, functools.partial(export_grid_csv, grid))]
    feasible_count = int(grid.membership.sum())
    report = {
        "command": "region",
        "input": source,
        "mode": market.mode.kind,
        "bounds": [_num(lo, exact), _num(hi, exact)],
        "resolution": args.resolution,
        "points": points,
        "feasible_points": feasible_count,
        "grid_csv": args.grid_csv,
    }
    if market.n == 2:
        stem = args.grid_csv[:-4] if args.grid_csv.endswith(".csv") else args.grid_csv
        report["boundary_csv"] = args.boundary or stem + ".boundary.csv"
        polylines = region_boundary_2d(grid)
        outputs.append((report["boundary_csv"], functools.partial(export_boundary_csv, polylines)))
        report["polylines"] = len(polylines)
    _write_all(outputs)
    if feasible_count:
        report["min_feasible_price"] = [_num(v, exact) for v in oracle_min_price(grid)]
        price, rev = oracle_max_revenue(grid)
        report["max_revenue"] = {
            "price": [_num(v, exact) for v in price],
            "revenue": _num(rev, False),
        }
    return report, []


def _write_all(outputs) -> None:
    """Write each (path, export) pair, each file whole. Every path is checked
    before any export runs: one that names something other than a regular
    file (a directory, a device, a FIFO) is refused, and each is opened in
    append mode, which truncates nothing but refuses a path that cannot be
    written. Each export then writes a temporary file beside its path's
    target (a symlink is written through), with the target's permission
    bits, and the temporaries are renamed over their targets once every
    export has finished. On a failure before the renames the temporaries and
    the files this call created are removed, so every old file keeps its
    bytes, and the error is raised. The temporaries are not flushed to disk,
    so this guards against failures in the process (an exception, a full
    disk), not a crash of the machine. A rename gives the target a new
    inode: other hard links to it keep the old bytes, and the file takes the
    writer's owner and group, without the old file's ACL."""
    new = [path for path, _ in outputs if not os.path.exists(path)]
    temps = []
    try:
        for path, _ in outputs:
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError(f"{path}: not a regular file")
            open(path, "a").close()
        for path, export in outputs:
            target = os.path.realpath(path)
            fd, temp = tempfile.mkstemp(dir=os.path.dirname(target))
            temps.append((temp, target))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
                export(fh)
        for temp, target in temps:
            os.replace(temp, target)
    except BaseException:
        for path in filter(os.path.exists, [temp for temp, _ in temps] + new):
            os.remove(path)
        raise


def _parse_valuation(text: str):
    if text == "example-a1":
        return example_a1()
    if text.startswith("linear:"):
        token = text[len("linear:"):]
        if token.startswith("v="):
            token = token[2:]
        try:
            return linear_valuation(float(token))
        except ValueError:
            raise ParseError("valuation", f"bad linear value {token!r}") from None
    raise ParseError("valuation", f"unknown valuation {text!r} (use example-a1 or linear:v)")


def _offer(price, quantity, revenue) -> dict:
    """A monopoly report block: a price, the quantity sold there and its revenue."""
    return {"price": _num(price, False), "quantity": _num(quantity, False),
            "revenue": _num(revenue, False)}


def _spoken(block: dict) -> str:
    """A report block as summary text: "price 1.0, revenue 2.0"."""
    return ", ".join(f"{key} {value}" for key, value in block.items())


def cmd_monopoly(args) -> tuple:
    valuation = _parse_valuation(args.valuation)
    try:
        budget = math.inf if args.budget in (None, "inf") else float(args.budget)
    except ValueError:
        raise ParseError("budget", f"bad number {args.budget!r}") from None
    instance = MonopolyInstance(valuation, float(args.supply), budget)
    clearing = clearing_price(instance)
    report = {
        "command": "monopoly",
        "input": {
            "valuation": args.valuation,
            "budget": "inf" if math.isinf(budget) else _num(budget, False),
            "supply": _num(instance.supply, False),
            "sha256": _digest(
                f"{args.valuation}|{budget}|{instance.supply}".encode("utf-8")
            ),
        },
        "clearing": {
            "price": _num(clearing, False),
            "revenue": _num(revenue_at(instance, clearing), False),
        },
        "optimal": _offer(*max_revenue_price(instance)),
    }
    lines = [f"clearing {_spoken(report['clearing'])}", f"optimal {_spoken(report['optimal'])}"]
    if math.isfinite(budget):
        free = MonopolyInstance(valuation, instance.supply, math.inf)
        report["optimal_unconstrained"] = _offer(*max_revenue_price(free))
        lines.append(f"optimal ignoring the budget: {_spoken(report['optimal_unconstrained'])}")
    witness = divergence_witness(valuation, budget)
    report["divergence_witness"] = None if witness is None else {
        key: value if value is None or isinstance(value, bool) else _num(value, False)
        for key, value in dataclasses.asdict(witness).items()
    }
    lines.append(
        "divergence witness: "
        + ("none" if witness is None else f"s = {report['divergence_witness']['supply']}")
    )
    return report, lines


def cmd_proptest(args) -> tuple:
    _probes, merged = run_all(args.seed, markets=args.markets, pairs=args.pairs)
    report = {
        "command": "proptest",
        "seed": args.seed,
        "markets": args.markets,
        "pairs": args.pairs,
        "suites": [dataclasses.asdict(s) for s in merged],
        "ok": all(s.ok for s in merged),
    }
    return report, [
        f"{s.name}: {s.cases} cases, {len(s.failures)} failures, {len(s.findings)} findings"
        for s in merged
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfmarket",
        description="Budget-constrained quasi-linear market clearing tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, report_out=True):
        if with_input:
            p.add_argument("path", help="market JSON (or CSV with --supply)")
            p.add_argument("--mode", choices=["exact", "float"], default=None)
            p.add_argument("--supply", help="comma-separated supplies for CSV input")
            p.add_argument(
                "--kind",
                choices=["market", "arctic"],
                default=None,
                help="row semantics for CSV input (default: market)",
            )
        if report_out:
            p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timing fields so reports are byte-reproducible",
        )

    p_solve = sub.add_parser("solve", help="compute equilibrium prices and allocation")
    common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_check = sub.add_parser("check-price", help="feasibility/clearing verdict at a price")
    common(p_check)
    p_check.add_argument("--price", required=True, help="comma-separated price vector")
    p_check.set_defaults(fn=cmd_check_price)

    p_region = sub.add_parser("region", help="scan the feasible region on a grid")
    common(p_region, report_out=False)
    p_region.add_argument(
        "--out",
        required=True,
        dest="grid_csv",
        help="write the grid CSV here; the JSON report goes to stdout",
    )
    p_region.add_argument("--bounds", default="0.1:5", help="price window lo:hi")
    p_region.add_argument("--resolution", type=int, default=491)
    p_region.add_argument("--boundary", default=None, help="boundary CSV path (2 goods)")
    # Both modes scan in closed form, but an exact scan reads its demand and
    # cut values in Python ints: example2's scan at resolution 141 takes
    # about 0.003 s in float and 0.04 s exact (2 vCPUs, Python 3.11). So
    # region reads its market in floats unless the caller forces exact.
    p_region.set_defaults(fn=cmd_region, out=None, mode="float")

    p_mono = sub.add_parser("monopoly", help="single-good concave-valuation analysis")
    common(p_mono, with_input=False)
    p_mono.add_argument("--valuation", required=True, help="example-a1 or linear:v")
    p_mono.add_argument("--budget", default=None, help="number or 'inf' (default)")
    p_mono.add_argument("--supply", required=True, type=float)
    p_mono.set_defaults(fn=cmd_monopoly)

    p_prop = sub.add_parser("proptest", help="randomized property suites")
    common(p_prop, with_input=False)
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--markets", type=int, default=20)
    p_prop.add_argument("--pairs", type=int, default=100)
    p_prop.set_defaults(fn=cmd_proptest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and shared by every later
    main call in the process: parse_args keeps nothing between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, or the usage and its error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    started = time.perf_counter()
    try:
        report, summary = args.fn(args)
        if not args.no_timestamp:
            report["generated_at"] = datetime.now(timezone.utc).isoformat()
            report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
        text = json.dumps(report, indent=2) + "\n"
        if args.out:
            _write_all([(args.out, lambda fh: fh.write(text))])
            for line in summary:
                print(line)
        else:
            sys.stdout.write(text)
    except (MethodDisagreementError, SolverConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except (MarketError, OSError) as exc:  # ParseError is a MarketError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if report.get("ok", True) else EXIT_DISAGREE  # proptest's verdict


if __name__ == "__main__":
    sys.exit(main())
