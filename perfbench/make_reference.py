"""Regenerate perfbench/reference/*.json, the answers for the seed-0 bases.

    python3 perfbench/make_reference.py

battery.json and crowd.json hold the exact clearing price of every base
market, from `solve` in exact mode; `solve` certifies its answer with an exact
clearing check, which is conclusive because the clearing price is unique.
region.json holds each region market's feasibility grid from `grid_scan`,
bit-packed, after confirming it against the benchmark's own min-cut oracle.
Only rerun this to add a base market; the stored answers are the benchmark's
ground truth, and a program change must never be the reason to rewrite them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from qfmarket.gridoracle import grid_scan  # noqa: E402
from qfmarket.numeric import DEFAULT_FLOAT_TOL, float_mode  # noqa: E402
from qfmarket.solver import solve  # noqa: E402


def exact_prices(markets):
    return [[str(v) for v in solve(market).p_star] for market in markets]


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    battery = exact_prices(workloads.battery_base())
    (out / "battery.json").write_text(json.dumps({"p_star": battery}, indent=1) + "\n")
    crowd = exact_prices(workloads.crowd_base())
    (out / "crowd.json").write_text(json.dumps({"p_star": crowd}, indent=1) + "\n")
    membership = []
    for market, (lo, hi), resolution in workloads.region_base():
        lo, hi = float(lo), float(hi)
        grid = grid_scan(market.coerced(float_mode()), (lo, hi), resolution)
        axis = workloads.lattice(lo, hi, resolution)
        oracle = workloads.region_oracle(market, [axis, axis], DEFAULT_FLOAT_TOL)[0]
        mismatches = int((oracle != grid.membership).sum())
        if mismatches:
            print(f"region market {len(membership)}: {mismatches} points disagree with the oracle",
                  file=sys.stderr)
            return 1
        membership.append(workloads.pack_bits(grid.membership))
    (out / "region.json").write_text(json.dumps({"membership": membership}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
