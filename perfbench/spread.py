"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads crowd,region --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints per metric the median, the quartiles, and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, and the failed share of all operations. A metric is steady
when its spread is below a third of its BENCHMARK.json bound; setup_s's
spread is not bounded. --out writes every run's result and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# Set-up time's spread is not bounded, only its median.
UNBOUNDED_SPREAD = {"setup_s"}


def summarize(name, values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or name in UNBOUNDED_SPREAD or spread < bound / 3}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                config["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed,
                         "wall_s": time.perf_counter() - started, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[workload] = {name: summarize(name, v, bounds.get(name))
                             for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload:14s} {name:14s} median {s['median']:10.5g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}  "
                  f"{'ok' if s['steady'] else 'NOT STEADY'}", flush=True)
        mine = [r for r in runs if r["workload"] == workload]
        failed, attempted = sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)
        summary[workload]["fail_frac"] = {"failed": failed, "attempted": attempted,
                                          "value": failed / attempted}
        print(f"  {workload:14s} fail_frac      {failed}/{attempted}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
