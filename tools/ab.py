"""Alternated benchmark pairs of two trees, and whether a claimed gain holds.

    python tools/ab.py PARENT_TREE CHANGE_TREE --workload crowd --pairs 10 --out BENCH.json
    python tools/ab.py PARENT_TREE CHANGE_TREE --workload battery --workload region \
        --seconds 8 --out BENCH.json

Each tree is a checkout (a `git archive` of a commit will do) with its own
perfbench/run.py, src/ and BENCHMARK.json. Pair i runs
`python3 perfbench/run.py --workload W --seed i --seconds S --trace 0` once in
each tree, one after the other, the parent first on odd i and the change
first on even i, so neither side always meets the machine first. Both sides
get the same run length and seed. Several workloads run one after the other.

For each end-to-end metric that CHANGE_TREE's BENCHMARK.json declares, it
prints both sides' medians and quartiles (inclusive method), the change's
wins (a pair whose values are equal counts for neither side), the median's
relative move in the metric's "better" direction, and whether the claim rule
holds: the change wins at least 9 of every 10 pairs, and its median beats the
parent's by more than the parent's interquartile range. It also prints the
failed operations of each side. The runs and the summaries, per workload,
are written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent, change, better: str) -> dict:
    """Both sides' values of one metric over the same pairs, in pair order.

    `better` is "lower" or "higher". `gain` is the change's median against
    the parent's, relative and signed so that a gain is positive. The claim
    holds when the change wins at least 9 of every 10 pairs (rounded up) and
    its median beats the parent's by more than the parent's interquartile
    range."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of pairs on each side, at least two")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    margin = sign * (c_med - p_med)
    return {
        "parent": list(parent),
        "parent_median": p_med,
        "parent_quartiles": list(p_q),
        "change": list(change),
        "change_median": c_med,
        "change_quartiles": list(c_q),
        "change_wins": f"{wins}/{len(parent)}",
        "change_losses": f"{losses}/{len(parent)}",
        "gain": margin / abs(p_med) if p_med else 0.0,
        "claim_holds": wins >= math.ceil(0.9 * len(parent)) and margin > p_q[1] - p_q[0],
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line that perfbench/run.py prints in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=60 + 20 * seconds, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(trees, workload: str, pairs: int, seconds: float, declared) -> dict:
    """{summary, failed, runs} of `pairs` alternated pairs on one workload,
    printing each pair's first metric as it ends and then the summary."""
    runs = {side: [] for side in SIDES}
    for seed in range(1, pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        print(f"{workload} pair {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics'][declared[0]['name']]['value']:.4g}"
            for side in SIDES), flush=True)
    summary = {}
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        summary[name] = s = summarize(values["parent"], values["change"], metric["better"])
        print(f"{workload} {name}: parent {s['parent_median']:.4g} "
              f"[{s['parent_quartiles'][0]:.4g}, {s['parent_quartiles'][1]:.4g}], "
              f"change {s['change_median']:.4g} "
              f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][1]:.4g}], "
              f"gain {100 * s['gain']:+.1f}%, wins {s['change_wins']}, "
              f"claim {'holds' if s['claim_holds'] else 'does not hold'}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    print(f"{workload} failed operations: "
          + ", ".join(f"{side} {failed[side]}" for side in SIDES))
    return {"summary": summary, "failed": failed, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to compare; repeat for several, run in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = {
        workload: compare(trees, workload, args.pairs, args.seconds, declared)
        for workload in args.workload
    }
    args.out.write_text(json.dumps({
        "command": f"perfbench/run.py --workload W --seed i --seconds {args.seconds} "
                   f"--trace 0, i = 1..{args.pairs}, in each tree; the parent first on odd i",
        "workloads": workloads,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
