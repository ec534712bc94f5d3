"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each traced qfmarket function with a wrapper at
every name a caller can look it up by: the defining module, every qfmarket
module that imported it, and the class for methods. `uninstall()` puts the
originals back, so untraced runs execute the unmodified program.

Each wrapper records one span (name, start, end, parent span, operation) and
adds its self time, the span's duration minus the time its direct child spans
cover, to a per-name total. Calls are strictly nested in one thread, so the
children of a span never overlap and their durations can simply be summed.
Spans are kept in memory and written out by `write_spans` at the end.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module that defines it, attribute path): the public functions whose spans
# the benchmark reports, one group per layer of src/qfmarket.
TRACED = (
    ("qfmarket.cli", "main"),
    ("qfmarket.marketio", "load_market"),
    ("qfmarket.solver", "solve"),
    ("qfmarket.solver", "solve_eg"),
    ("qfmarket.solver", "lattice_descent"),
    ("qfmarket.feasibility", "check_feasible"),
    ("qfmarket.feasibility", "check_clearing"),
    ("qfmarket.feasibility", "build_spending_graph"),
    ("qfmarket.flow", "FlowNetwork.max_flow"),
    ("qfmarket.flow", "FlowNetwork.reachable_from"),
    ("qfmarket.market", "validate_market"),
    ("qfmarket.market", "bang_per_buck"),
    ("qfmarket.metrics", "certify_constrained_efficiency"),
    ("qfmarket.gridoracle", "grid_scan"),
    ("qfmarket.gridoracle", "region_boundary_2d"),
    ("qfmarket.gridoracle", "export_grid_csv"),
    ("qfmarket.gridoracle", "export_boundary_csv"),
)
# Counted but not timed: too small and too frequent for a span to be useful.
COUNTED = (("qfmarket.flow", "FlowNetwork.add_edge"),)

MAX_SPANS = 100_000


def span_name(module: str, attr: str) -> str:
    return module.split(".", 1)[1] + "." + attr


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.spans = []  # (id, parent id or -1, op, name, start, end)
        self.dropped = 0
        self.op = -1
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._restore = []

    def wrap(self, name: str, fn, on_return=None):
        """Wrapper around fn that records a span named `name`."""
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, self.op, name, start, end))
                else:
                    self.dropped += 1
            if on_return is not None:
                on_return(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # Counters read from return values, where the work happens. A field that a
    # later solver drops reads as 0.
    def _after_solve(self, result):
        descent = getattr(result, "descent", None)
        eg = getattr(result, "eg", None)
        self.counters["solver.descent.probes"] += getattr(descent, "probes", 0)
        self.counters["solver.descent.steps"] += len(getattr(descent, "steps", ()))
        self.counters["solver.eg.iterations"] += getattr(eg, "iterations", 0)

    def _after_check_feasible(self, cert):
        if getattr(cert, "feasible", False):
            self.counters["feasibility.check_feasible.feasible"] += 1

    def _after_grid_scan(self, grid):
        self.counters["gridoracle.points"] += int(grid.membership.size)

    def install(self) -> None:
        hooks = {
            "solver.solve": self._after_solve,
            "feasibility.check_feasible": self._after_check_feasible,
            "gridoracle.grid_scan": self._after_grid_scan,
        }
        for module, attr in TRACED:
            name = span_name(module, attr)
            self._patch(module, attr, lambda fn, n=name: self.wrap(n, fn, hooks.get(n)))
        for module, attr in COUNTED:
            name = span_name(module, attr) + ".calls"
            self._patch(module, attr, lambda fn, n=name: self.count(n, fn))

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, make(original))
            self._restore.append((owner, meth, original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("qfmarket"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    self._restore.append((other, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        """One header line, then `id,parent,op,name,start_us,end_us` per span
        in the order spans ended, times in microseconds since the first start."""
        t0 = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"# spans={len(self.spans)} dropped_after_cap={self.dropped}\n"
                "id,parent,op,name,start_us,end_us\n"
            )
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    f"{sid},{parent},{op},{name},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n"
                )
