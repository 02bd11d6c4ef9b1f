"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s` or `-rP`) and
asserts both the numerical claim and its runtime budget.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from patrolgame import (
    build_bipartite,
    build_complete,
    build_star,
    bound_suite,
    capture_probability,
    exhaustive_allocation,
    exhaustive_side_allocation,
    local_search_strategy,
    synthesize_bipartite,
    synthesize_complete,
    synthesize_star,
)
from patrolgame.cli import main
from patrolgame.oracles import ALLOCATION_TOLERANCE, monte_carlo_suite


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_numerical_example_reproduction(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, [
        "allocate", "--family", "bipartite", "--np", "3", "--nq", "2",
        "--B", "20", "--compare-uniform"])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["B_p"] == 14 and payload["B_q"] == 6
    assert Counter(payload["tau_p"]) == Counter([6, 4, 4])
    assert Counter(payload["tau_q"]) == Counter([4, 2])
    assert payload["uniform"]["tau"] == [4, 4, 4, 4, 4]
    delta = payload["mu"] - payload["uniform"]["mu"]
    assert abs(delta - 0.045) <= 0.005
    assert payload["mu_delta"] == pytest.approx(delta, abs=1e-12)
    # emitted value must match the recursion on the emitted strategy
    recomputed = capture_probability(np.array(payload["P"]), payload["tau"]).mu
    assert abs(recomputed - payload["mu"]) <= 1e-9
    assert payload["mu"] == pytest.approx(0.6007819285, abs=1e-9)
    assert payload["uniform"]["mu"] == pytest.approx(5 / 9, abs=1e-9)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE criterion 1: PASS (B_p=14, delta={delta:.4f}, {elapsed:.2f}s)")


def test_criterion_2_closed_form_matches_recursion():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for index in range(200):
        kind = index % 3
        if kind == 0:
            n = int(rng.integers(2, 7))
            tau = [int(t) for t in rng.integers(1, 9, size=n)]
            result = synthesize_complete(tau)
        elif kind == 1:
            n_p = int(rng.integers(1, 5))
            n_q = int(rng.integers(1, 5))
            tau = [int(t) for t in rng.integers(2, 10, size=n_p + n_q)]
            result = synthesize_bipartite(build_bipartite(n_p, n_q), tau[:n_p], tau[n_p:])
        else:
            n = int(rng.integers(2, 7))
            tau = [int(t) for t in rng.integers(2, 9, size=n)]
            result = synthesize_star(tau)
        recursion_mu = capture_probability(result.P, tau).mu
        worst = max(worst, abs(recursion_mu - result.mu))
        assert abs(recursion_mu - result.mu) <= 1e-9, (kind, tau)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE criterion 2: PASS (200 instances, worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_allocation_agrees_with_enumeration():
    from patrolgame import allocate_bipartite_side, allocate_complete, co_optimize_bipartite

    start = time.perf_counter()
    disagreements = 0
    checks = 0
    for n in range(2, 6):
        for B in range(n + 1, n * n):
            report = exhaustive_allocation(build_complete(n), B)
            checks += 1
            disagreements += not report.gap <= ALLOCATION_TOLERANCE
            assert report.best_candidate == allocate_complete(n, B).tau
    for n_side in range(2, 5):
        for B_side in range(2 * n_side, 2 * n_side * n_side, 2):
            report = exhaustive_side_allocation(n_side, B_side)
            checks += 1
            disagreements += not report.gap <= ALLOCATION_TOLERANCE
            assert report.best_candidate == allocate_bipartite_side(n_side, B_side).tau
    for n_p in range(2, 5):
        for n_q in range(2, 5):
            lo = 2 * (n_p + n_q)
            hi = 2 * (n_p * n_p + n_q * n_q)
            for B in range(lo + 2, hi, 2):
                report = exhaustive_allocation(build_bipartite(n_p, n_q), B)
                checks += 1
                disagreements += not report.gap <= ALLOCATION_TOLERANCE
                assert report.best_candidate[0] == co_optimize_bipartite(n_p, n_q, B).B_p
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE criterion 3: PASS ({checks} instances, 0 disagreements, {elapsed:.2f}s)")


def test_criterion_4_bound_suites():
    start = time.perf_counter()
    report = bound_suite()  # defaults: 500 random strategies, n_p,n_q up to 8
    elapsed = time.perf_counter() - start
    failing = [c for c in report.checks if not c.passed]
    assert not failing, failing[:3]
    names = [c.instance for c in report.checks]
    assert sum(1 for s in names if s.startswith("stationary-bound")) == 500
    assert any(s.startswith("allocation-floor") for s in names)
    assert any("n_p=8 n_q=8" in s for s in names)
    assert elapsed < 30.0
    print(f"\nACCEPTANCE criterion 4: {report.summary} ({elapsed:.2f}s)")


def test_criterion_5_star_optimality_never_beaten():
    start = time.perf_counter()
    instances = 0
    for n in (3, 4):
        leaf_sets = set()
        values = (2, 3, 4)
        if n == 3:
            combos = [(a, b) for a in values for b in values]
        else:
            combos = [(a, b, c) for a in values for b in values for c in values]
        for combo in combos:
            leaf_sets.add(tuple(sorted(combo)))
        for leaves in sorted(leaf_sets):
            tau = (2,) + leaves
            optimum = synthesize_star(tau).mu
            found = local_search_strategy(build_star(n), tau, restarts=200,
                                          seed=2024).best_value
            assert found <= optimum + 1e-6, (tau, found, optimum)
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE criterion 5: PASS ({instances} star instances, {elapsed:.2f}s)")


def test_criterion_5_note_bipartite_search_gap():
    # stand-in for the nonlinear-solver comparison figure: random-restart
    # search on the co-optimized instance lands within 0.02 of the closed form
    g = build_bipartite(3, 2)
    tau = (6, 4, 4, 4, 2)
    report = local_search_strategy(g, tau, restarts=1000, seed=3)
    reference = synthesize_bipartite(g, tau[:3], tau[3:]).mu
    assert report.closed_form_value == pytest.approx(reference, abs=1e-12)
    assert report.gap is not None and report.gap <= 0.02
    print(f"\nACCEPTANCE criterion 5 (note): PASS (search gap {report.gap:.4f})")


def test_criterion_6_monte_carlo_three_sigma():
    start = time.perf_counter()
    report = monte_carlo_suite(trials=100_000, seed=7, instances=20)
    elapsed = time.perf_counter() - start
    failing = [c for c in report.checks if not c.passed]
    assert not failing, failing
    assert len(report.checks) == 20
    assert elapsed < 30.0
    worst = max(c.actual for c in report.checks)
    print(f"\nACCEPTANCE criterion 6: {report.summary} (worst z/3sigma {worst:.3f}, {elapsed:.2f}s)")
