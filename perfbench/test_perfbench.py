"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
import qfmarket.solver as solver  # noqa: E402
from qfmarket.gridoracle import grid_scan  # noqa: E402
from qfmarket.numeric import DEFAULT_FLOAT_TOL, float_mode  # noqa: E402


def test_bases_are_deterministic():
    assert workloads.battery_base() == workloads.battery_base()
    assert workloads.crowd_base() == workloads.crowd_base()
    assert workloads.region_base() == workloads.region_base()


@pytest.mark.parametrize("workload", ["crowd", "region"])
def test_written_inputs_depend_only_on_the_seed(workload):
    def inputs(seed):
        work = HERE.parent / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as workdir:
            workloads.SETUP[workload](seed, workload, Path(workdir))
            return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}

    first = inputs(5)
    assert first == inputs(5)
    assert first != inputs(6)


def test_shuffled_buyers_keep_the_reference_answer():
    base = workloads.battery_base()[2]
    reference = workloads.fractions(workloads.load_reference("battery")["p_star"][2])
    assert workloads.shuffled(base, 0, "battery-exact", 2) == base
    for seed in (1, 2, 3):
        market = workloads.shuffled(base, seed, "battery-exact", 2)
        assert sorted(market.buyers, key=lambda b: b.name) == sorted(base.buyers, key=lambda b: b.name)
        assert workloads.check_exact(solver.solve(market).p_star, reference) is None


def test_wrapped_functions_return_what_the_originals_return():
    market = workloads.battery_base()[2]
    original = solver.solve
    plain = solver.solve(market)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.solve is not original
        traced = solver.solve(market)
    finally:
        tracer.uninstall()
    assert solver.solve is original
    assert traced.p_star == plain.p_star
    assert traced.allocation == plain.allocation
    assert traced.descent.probes == plain.descent.probes
    assert tracer.calls["solver.solve"] == 1
    assert tracer.calls["feasibility.check_feasible"] == plain.descent.probes + 1
    assert tracer.counters["solver.descent.probes"] == plain.descent.probes


def _children_cover(tracer):
    covered = {}
    for sid, parent, _op, _name, start, end in tracer.spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    return covered


def test_self_time_is_span_time_minus_child_spans():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        time.sleep(0.003)
        wrapped_inner()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()

    covered = _children_cover(tracer)
    expected = {}
    for sid, _parent, _op, name, start, end in tracer.spans:
        expected[name] = expected.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 3}
    for name, value in expected.items():
        assert tracer.self_s[name] == pytest.approx(value, abs=1e-12)
    assert tracer.self_s["outer"] >= 0.003
    assert tracer.self_s["leaf"] >= 0.006


def test_self_times_add_up_on_a_real_solve():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver.solve(workloads.battery_base()[0])
    finally:
        tracer.uninstall()
    covered = _children_cover(tracer)
    expected = {}
    for sid, _parent, _op, name, start, end in tracer.spans:
        expected[name] = expected.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
    assert tracer.dropped == 0
    for name, value in expected.items():
        assert tracer.self_s[name] == pytest.approx(value, rel=1e-9, abs=1e-9)
    root = [s for s in tracer.spans if s[1] == -1]
    assert [s[3] for s in root] == ["solver.solve"]
    assert sum(tracer.self_s.values()) == pytest.approx(root[0][5] - root[0][4], rel=1e-9)


def test_region_oracle_matches_grid_scan():
    market, (lo, hi), _ = workloads.region_base()[0]
    lo, hi = float(lo), float(hi)
    grid = grid_scan(market.coerced(float_mode()), (lo, hi), 29)
    axis = workloads.lattice(lo, hi, 29)
    assert np.array_equal(np.array(grid.axes[0], dtype=float), axis)
    feasible, revenue = workloads.region_oracle(market, [axis, axis], DEFAULT_FLOAT_TOL)
    assert np.array_equal(feasible, grid.membership)
    assert np.allclose(np.where(feasible, revenue, 0.0), grid.revenue, rtol=1e-9, atol=0.0)


def test_bit_packing_round_trips():
    bits = np.random.default_rng(0).random((7, 9)) < 0.5
    assert np.array_equal(workloads.unpack_bits(workloads.pack_bits(bits), bits.shape), bits)


def test_float_check_uses_a_relative_band():
    assert workloads.check_close((1.0 + 5e-10, 2000.0 + 1e-6), (Fraction(1), Fraction(2000))) is None
    assert workloads.check_close((1.0 + 5e-9,), (Fraction(1),)) is not None


def test_times_are_medians_of_scaled_calls():
    import run

    def sample(label, seconds, speed, error=None):
        return run.Sample(label, seconds, speed, error, False, 0)

    passes = [
        [sample("a", 1.0, 1.0), sample("b", 4.0, 0.5)],
        [sample("a", 2.0, 0.5), sample("b", 2.0, 1.0, "Boom: refused")],
        [sample("a", 3.0, 0.5), sample("b", 1.0, 1.0)],
    ]
    metrics, _ = run.end_to_end(passes, [0.3, 0.1, 0.2])
    # scaled calls: a 1.0, 1.0, 1.5 (market time 1.0); b 2.0, 2.0, 1.0 (2.0)
    assert metrics["solve_ms_p50"][0] == pytest.approx(1250.0)
    assert metrics["solve_ms_tail"][0] == pytest.approx(1500.0)
    assert metrics["solves_per_s"][0] == pytest.approx((5 / 3) / 3.0)
    assert metrics["setup_s"][0] == pytest.approx(0.2)


def test_a_thread_left_running_fails_the_call():
    import threading

    import run

    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))

    def leaves_a_thread():
        thread.start()
        return 1

    op = workloads.Op("t", leaves_a_thread, lambda out: None)
    try:
        [sample] = run.run_pass([op])
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert sample.error is not None and "thread" in sample.error
    assert not sample.wrong
    assert sample.speed > 0
