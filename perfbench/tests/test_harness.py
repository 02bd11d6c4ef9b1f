"""Tests of the benchmark harness itself: span arithmetic, the tail-percentile
rule, failure counting, and that a seed fixes every count.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

run.import_package()
workloads = run.workloads


# --- self time ----------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [9, 12] overhangs
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    selfs = tracing.self_times(start, end, parent)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1:] == pytest.approx([3.0, 3.0, 3.0])


def test_self_time_charges_grandchildren_only_to_their_parent():
    start = [0.0, 2.0, 3.0, 7.0]
    end = [10.0, 6.0, 5.0, 7.0]
    parent = [-1, 0, 1, 0]  # span 3 has zero length
    assert tracing.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 2.0, 0.0])


def test_wrapped_calls_nest_and_account_for_the_root():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    root = tracer.begin("bench.op")
    outer()
    tracer.finish(root)
    spans = tracing.summarize(tracer, 0, len(tracer))
    assert spans["m.inner"]["calls"] == 2
    assert spans["m.outer"]["calls"] == 1
    total = sum(v["self_s"] for v in spans.values())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0])


# --- tail percentile ------------------------------------------------------------

@pytest.mark.parametrize("samples, p, beyond", [
    (19, 50.0, 9),    # ceil(9.5) = 10, so only 9 samples lie beyond the median
    (20, 50.0, 10),
    (39, 75.0, 9),    # p75 rank is 30
    (40, 75.0, 10),
    (99, 90.0, 9),    # p90 rank is 90
    (100, 90.0, 10),
])
def test_samples_beyond_nearest_rank(samples, p, beyond):
    assert run.samples_beyond(samples, p) == beyond


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_percentile_keeps_ten_timed_samples_beyond(workload):
    for seed in (1, 2):
        samples = len(workloads.build(workload, seed)) * run.TIMED_PASSES[workload]
        assert run.samples_beyond(samples, run.TAIL_PERCENTILE) >= run.TAIL_MIN_BEYOND


def test_nearest_rank():
    values = [float(v) for v in range(1, 41)]
    assert run.nearest_rank(values, 75.0) == 30.0
    assert run.nearest_rank(values, 50.0) == 20.0


# --- failure counting -------------------------------------------------------------

@lru_cache(maxsize=None)
def _cached(x):
    return x


def _op(label, run_fn, check_fn=lambda out: None):
    return workloads.Op(label, run_fn, check_fn, lambda out: 1)


def _raise():
    raise ValueError("boom")


def test_failures_are_counted_not_raised():
    ops = [
        _op("ok", lambda: 1),
        _op("raises", _raise),
        _op("wrong", lambda: 2, lambda out: "wrong answer"),
        _op("unreadable", lambda: None, lambda out: out["missing"]),
    ]
    _, results = run.run_pass(ops, _cached)
    assert [r.failure is None for r in results] == [True, False, False, False]
    assert results[1].failure == "ValueError: boom"
    assert results[2].failure == "wrong answer"
    assert results[3].failure.startswith("TypeError")
    assert [r.evaluations for r in results] == [1, 0, 1, 0]


def test_scaled_pass_takes_the_reference_times_on_both_sides(monkeypatch):
    ref = run.Reference("oracle-search")
    # the host runs at the nominal speed, then at half of it
    times = iter([ref.nominal_s, ref.nominal_s, 2 * ref.nominal_s])
    monkeypatch.setattr(ref, "time", lambda: next(times))
    results, scales = run.scaled_pass([_op("a", lambda: 1), _op("b", _raise)], _cached, ref)
    assert [r.label for r in results] == ["a", "b"]
    assert scales == pytest.approx([1.0, 2.0 / 3.0])


def test_solve_check_rejects_nonzero_exit():
    op = workloads.solve_op("star", (3,), [2, 1, 2])  # tau below eccentricity
    result = run.run_op(op, _cached)
    assert result.failure.startswith("exit 2")


def test_unconverged_stationary_solve_fails_the_residual_check():
    rng = workloads.np.random.default_rng(0)
    n = workloads.LAZY_LARGE
    op = workloads.evaluate_op("lazy-tour", workloads.lazy_tour(rng, n),
                               workloads._seeded_tau(rng, n, 1, 4))
    assert run.run_op(op, _cached).failure.startswith("stationary residual")


# --- same seed, same counts ---------------------------------------------------------

CHEAP = {
    "exact-large": ("evaluate dirichlet n=30", "evaluate lazy-tour n=60"),
    "oracle-search": ("local-search star n=4",),
    "verify-sweep": ("suite alloc-oracle", "sweep bipartite np x nq x B"),
}


def _traced_counts(workload, seed):
    ops = [op for op in workloads.build(workload, seed) if op.label in CHEAP[workload]]
    equalized = run.pg.synthesis.solve_equalized_value  # the cached original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, results = run.run_pass(ops, equalized, tracer)
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer, wall, results, 0, len(tracer), dict(tracer.counters))
    assert not any(r.failure for r in results)
    return {k: v for k, (v, unit) in metrics.items() if unit in run.COUNT_UNITS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts(workload):
    first = _traced_counts(workload, 3)
    assert first == _traced_counts(workload, 3)
    assert first["trace.spans"] > 0


def test_simulation_walk_steps_repeat_and_wrappers_come_off():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.pg.monte_carlo_suite(trials=1000, seed=5, instances=2)
        once = tracer.counters["markov.simulate_capture.walk_steps"]
        run.pg.monte_carlo_suite(trials=1000, seed=5, instances=2)
    finally:
        tracer.uninstall()
    assert once > 0
    assert tracer.counters["markov.simulate_capture.walk_steps"] == 2 * once
    assert not hasattr(run.pg.monte_carlo_suite, "__wrapped__")
    assert not hasattr(run.pg.oracles.simulate_capture, "__wrapped__")


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 11), workloads.build(workload, 11)
        assert [op.label for op in a] == [op.label for op in b]
    np = workloads.np
    same = [workloads.lazy_tour(np.random.default_rng(11), 50) for _ in range(2)]
    other = workloads.lazy_tour(np.random.default_rng(12), 50)
    assert np.array_equal(same[0], same[1])
    assert not np.array_equal(same[0], other)


# --- command line -------------------------------------------------------------------

def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_shape():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "oracle-search",
                           "--seed", "2", "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb", "evals_per_s"}
