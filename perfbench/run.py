"""qfmarket benchmark: timed, answer-checked runs of three workloads.

    python3 perfbench/run.py                      # every workload, each in its own process
    python3 perfbench/run.py --workload crowd --seed 3 --seconds 40 --trace 0

Run from the repository root. Each workload is a closed loop with one caller:
one process, no threads, each call starting when the previous one returned.
A run makes whole passes over the workload's markets, at least three and as
many as end within --seconds, and checks every answer. The shared machine's
speed drifts by 15-40% over seconds to minutes, so each call's wall time is
scaled to a reference speed by a fixed pure-Python job timed just before and
just after it (see `calibration`). It prints its metrics, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 instead runs one pass with
spans around each layer's public functions, writes the spans under
.perfbench_out/, reports per-layer calls and self times, and reruns the pass
untraced to report the tracing overhead.

See perfbench/README.md for the workloads, metrics and what should move them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("battery", "crowd", "region")
MIN_PASSES = 3
# solve_ms_tail is the mean time of the slowest fifth of the markets, and of
# at least two: one market's time alone is too noisy to bound.
TAIL_SHARE = 0.2
TAIL_MIN_MARKETS = 2
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh ones
# Seconds that `calibration` takes at the reference speed: about its time on a
# lightly loaded Intel Xeon vCPU of a shared two-vCPU VM under CPython 3.11.
# Scaled times are wall times at that speed.
CALIBRATION_REFERENCE_S = 1.0e-3
CALIBRATION_REPEATS = 5  # the median of these, before and after each call


def import_program():
    """Import qfmarket from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qfmarket

    if Path(qfmarket.__file__).resolve().parent != src / "qfmarket":
        raise ImportError(f"qfmarket was imported from {qfmarket.__file__}, not {src}")


def setup(workload: str, seed: int, workdir: Path):
    import_program()
    import workloads

    return workloads.SETUP[workload](seed, workload, workdir)


def timed_setup(workload: str, seed: int, workdir: Path):
    """(ops, set-up seconds at the reference speed), scaled like a call."""
    before = calibration_seconds()
    t0 = time.perf_counter()
    ops = setup(workload, seed, workdir)
    wall = time.perf_counter() - t0
    return ops, wall * 2 * CALIBRATION_REFERENCE_S / (before + calibration_seconds())


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a new interpreter: imports, inputs, files, references."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Sample(NamedTuple):
    label: str
    seconds: float  # wall time of the call
    speed: float  # CALIBRATION_REFERENCE_S over the calibration time around it
    error: Optional[str]  # None when the operation succeeded and its answer checked
    wrong: bool  # an answer came back and failed its check
    points: int  # lattice points scanned, for region calls

    @property
    def scaled(self) -> float:
        """Wall time of the call at the reference speed."""
        return self.seconds * self.speed


def calibration():
    """A fixed job of the kinds of work qfmarket does: Fraction arithmetic,
    dicts, lists, float loops and small function calls, all pure Python, so
    that the machine's neighbours slow it as much as they slow qfmarket."""
    total = Fraction(0)
    rows = {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        rows[i] = [i * 0.5, float(i)]
    dot = 0.0
    for row in rows.values():
        dot += row[0] * row[1]
    return total, dot


def calibration_seconds() -> float:
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        calibration()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(ops):
    """One call of each op in turn, each between two calibrations. An
    exception, or a nonzero exit code, is the program refusing to answer: a
    failure, but not a wrong answer. So is a thread left running, which
    would slow the calibration as much as the program."""
    samples = []
    for op in ops:
        before = calibration_seconds()
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed operation is data, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        threads = threading.active_count() - 1
        speed = 2 * CALIBRATION_REFERENCE_S / (before + calibration_seconds())
        wrong = False
        if error is None and threads:
            error = f"{threads} threads left running after the call"
        elif error is None:
            error = op.check(out)
            wrong = error is not None
        samples.append(Sample(op.label, elapsed, speed, error, wrong, op.points))
    return samples


def run_passes(ops, seconds: float):
    """At least MIN_PASSES passes, then more while the next one, if it takes
    as long as the last, ends within `seconds` of the start."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - t0) > seconds:
            return passes


def tail_markets(markets: int) -> int:
    return max(TAIL_MIN_MARKETS, math.ceil(TAIL_SHARE * markets))


def tail_mean(values) -> float:
    """Mean of the slowest tail_markets(len(values)) values."""
    return statistics.fmean(sorted(values)[-tail_markets(len(values)):])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s):
    """solve_ms_p50 is the median of all scaled calls, every market having
    one per pass. A market's time is the median of its scaled calls."""
    samples = [s for p in passes for s in p]
    labels = [s.label for s in passes[0]]
    times = [statistics.median(s.scaled for s in column) for column in zip(*passes)]
    wall = [statistics.median(s.seconds for s in column) for column in zip(*passes)]
    ok = sum(1 for s in samples if s.error is None)
    metrics = {
        "solve_ms_p50": (statistics.median(s.scaled for s in samples) * 1e3, "ms"),
        "solve_ms_tail": (tail_mean(times) * 1e3, "ms"),
        "solves_per_s": (ok / len(passes) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    failed = len(samples) - ok
    speeds = [s.speed for s in samples]
    notes = [
        f"{len(passes)} passes over {len(times)} markets; times are at the reference speed",
        f"machine speed over the reference: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f} to {max(speeds):.3f}",
        f"median market time {statistics.median(times) * 1e3:.6g} ms; unscaled wall time: "
        f"p50 {statistics.median(s.seconds for s in samples) * 1e3:.6g} ms, "
        f"tail {tail_mean(wall) * 1e3:.6g} ms",
        f"solve_ms_tail is the mean of the slowest {tail_markets(len(times))} "
        f"of {len(times)} markets",
        f"fail_frac = {failed}/{len(samples)} = {failed / len(samples):.4f}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_s)}",
    ]
    points = sum(s.points for s in samples if s.error is None) / len(passes)
    if points:
        notes.append(f"region_points_per_s = {points / sum(times):.6g} 1/s at the reference speed")
    for label, t, w in sorted(zip(labels, times, wall), key=lambda row: row[1]):
        notes.append(f"  {label:24s} {t * 1e3:10.2f} ms scaled {w * 1e3:10.2f} ms wall")
    return metrics, notes


def per_layer(workload: str, ops, seed: int):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for k, op in enumerate(ops):
            tracer.op = k
            traced += run_pass([op])
    finally:
        tracer.uninstall()
    plain = run_pass(ops)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(span_file)

    metrics = {}
    for module, attr in tracing.TRACED:
        name = tracing.span_name(module, attr)
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    counters = tracer.counters
    probes = counters["solver.descent.probes"]
    checks = tracer.calls["feasibility.check_feasible"]
    for name in ("flow.FlowNetwork.add_edge.calls", "solver.descent.probes",
                 "solver.descent.steps", "solver.eg.iterations", "gridoracle.points"):
        metrics[name] = (counters[name], "count")
    metrics["solver.descent.accept_ratio"] = (
        counters["solver.descent.steps"] / probes if probes else 0.0, "ratio")
    metrics["feasibility.check_feasible.feasible_ratio"] = (
        counters["feasibility.check_feasible.feasible"] / checks if checks else 0.0, "ratio")
    traced_s = sum(s.seconds for s in traced)
    plain_s = sum(s.seconds for s in plain)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")

    total_self = sum(tracer.self_s.values())
    notes = [f"traced pass: {len(ops)} operations; spans written to {span_file}",
             f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s"]
    for name, self_s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {name:45s} {self_s:9.4f} s  {100 * self_s / total_self:5.1f}%  "
                     f"{tracer.calls[name]} calls")
    return metrics, traced + plain, notes


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops, first_setup_s = timed_setup(args.workload, args.seed, workdir)
        setup_s = [first_setup_s]
        if args.setup_only:
            print(setup_s[0])
            return 0
        if args.trace:
            metrics, samples, notes = per_layer(args.workload, ops, args.seed)
        else:
            setup_s += [fresh_setup_seconds(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
            passes = run_passes(ops, args.seconds)
            samples = [s for p in passes for s in p]
            metrics, notes = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [s for s in samples if s.error is not None]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(samples)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for (label, wrong, error), count in Counter((s.label, s.wrong, s.error) for s in failed).items():
        print(f"  {'WRONG' if wrong else 'FAILED'} {label} ({count} calls): {error}")
    print(json.dumps({
        "correct": not any(s.wrong for s in samples),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfmarket").is_dir():
        print(f"error: no qfmarket sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
