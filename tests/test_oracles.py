import json
import pickle
import re
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import patrolgame.oracles
from patrolgame import (
    BoundSuiteConfig,
    BudgetOutOfRange,
    CheckResult,
    InfeasibleTau,
    InvalidSpec,
    SearchSpaceExceeded,
    Unsupported,
    allocate_complete,
    allocation_agreement_suite,
    bound_suite,
    build_bipartite,
    build_complete,
    build_general,
    build_star,
    capture_probability,
    co_optimize_bipartite,
    exhaustive_allocation,
    exhaustive_side_allocation,
    local_search_strategy,
    monte_carlo_suite,
    partitions,
    simulate_capture,
    solve_equalized_value,
    stationary_distribution,
)
from patrolgame.cli import _dump_json
from patrolgame.markov import counter_stream, min_capture_evaluator
from patrolgame.oracles import (ALLOCATION_TOLERANCE, MONTE_CARLO_FALSE_ALARM, _multiset_values,
                                _random_feasible_strategy, monte_carlo_suite_work)


# --- partition enumeration ------------------------------------------------------

def test_partitions_small_case():
    got = list(partitions(7, 3))
    assert got == [(5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)]
    assert all(sum(p) == 7 for p in got)
    with pytest.raises(InvalidSpec, match="parts must be >= 1"):
        next(partitions(0, 0))
    with pytest.raises(InvalidSpec, match="total must be an integer"):
        next(partitions("3", 2))
    with pytest.raises(InvalidSpec, match="parts must be an integer"):
        next(partitions(3, 2.0))


def test_partitions_cover_all_compositions():
    # multiset coverage: permutations of the partitions enumerate every composition
    import itertools
    comps = {c for p in partitions(6, 3) for c in itertools.permutations(p)}
    assert len(comps) == 10  # C(5, 2)


# --- exhaustive allocation ---------------------------------------------------------

def test_exhaustive_complete_reference():
    report = exhaustive_allocation(build_complete(3), 7)
    assert report.best_candidate == (3, 2, 2)
    assert report.candidates_examined == 15
    assert report.gap <= 1e-12


def test_exhaustive_complete_trivial_instance():
    report = exhaustive_allocation(build_complete(2), 3)
    assert report.best_candidate == (2, 1)


def test_exhaustive_bipartite_reference():
    report = exhaustive_allocation(build_bipartite(3, 2), 20)
    b_p, tau_p, tau_q = report.best_candidate
    assert b_p == 14
    assert tau_p == (6, 4, 4)
    assert tau_q == (4, 2)
    assert report.gap <= ALLOCATION_TOLERANCE


def reference_multiset_values(keys):
    """The scalar walk that the batched table replaced: `solve_equalized_value`
    over `partitions`, keeping the first minimum in generator order."""
    values = {}
    for n, units in dict.fromkeys(keys):
        for parts in partitions(units, n):
            w = solve_equalized_value(parts[::-1])
            if (n, units) not in values or w < values[n, units][0]:
                values[n, units] = (w, parts)
    return values


@pytest.mark.parametrize("nmax", range(2, 7))
def test_alloc_suite_report_equals_the_scalar_reference(monkeypatch, nmax):
    report = allocation_agreement_suite(nmax=nmax)
    monkeypatch.setattr(patrolgame.oracles, "_multiset_values", reference_multiset_values)
    assert pickle.dumps(allocation_agreement_suite(nmax=nmax)) == pickle.dumps(report)


@pytest.mark.parametrize("oracle, args", [
    (exhaustive_allocation, (build_complete(2), 3)),
    (exhaustive_allocation, (build_complete(5), 13)),
    (exhaustive_allocation, (build_bipartite(3, 2), 20)),
    (exhaustive_allocation, (build_bipartite(1, 3), 14)),
    (exhaustive_allocation, (build_bipartite(4, 4), 40)),
    (exhaustive_side_allocation, (1, 6)),
    (exhaustive_side_allocation, (4, 18)),
])
def test_exhaustive_oracles_equal_the_scalar_reference(monkeypatch, oracle, args):
    report = oracle(*args)
    monkeypatch.setattr(patrolgame.oracles, "_multiset_values", reference_multiset_values)
    assert pickle.dumps(oracle(*args)) == pickle.dumps(report)


def test_multiset_values_keeps_the_first_minimum(monkeypatch):
    rows = []

    def tied(batch):
        rows.extend(batch)
        return np.array([0.5, 0.25, 0.25])

    monkeypatch.setattr(patrolgame.synthesis, "solve_equalized_values", tied)
    values = _multiset_values([(2, 6)])
    assert rows == [(5, 1), (4, 2), (3, 3)]
    assert values == {(2, 6): (0.25, (4, 2))}
    assert type(values[2, 6][0]) is float


def test_alloc_suite_guard_enumerates_nothing(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the guard must reject the suite before any enumeration")

    monkeypatch.setattr(patrolgame.oracles, "_multiset_values", must_not_run)
    with pytest.raises(SearchSpaceExceeded,
                       match="^10737573 compositions exceed the guard 10000000$"):
        allocation_agreement_suite(nmax=7)


@pytest.mark.parametrize("nmax", [100, 10 ** 9])
def test_alloc_suite_guard_runs_in_bounded_memory(nmax):
    # each complete instance is guarded as it is generated, so the suite
    # stops at n = 7 whatever nmax is, before it lists the larger ones
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SearchSpaceExceeded,
                           match="^10737573 compositions exceed the guard 10000000$"):
            allocation_agreement_suite(nmax=nmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000


@pytest.mark.parametrize("nmax", [1, 0, -3])
def test_alloc_suite_without_instances_is_rejected(nmax):
    with pytest.raises(InvalidSpec, match=f"^nmax must be >= 2, got {nmax}$"):
        allocation_agreement_suite(nmax=nmax)


def test_exhaustive_guard():
    with pytest.raises(SearchSpaceExceeded):
        exhaustive_allocation(build_complete(12), 100)


def _must_not_enumerate(*args, **kwargs):
    raise AssertionError("the closed form must refuse the instance before the guard")


@pytest.mark.parametrize("oracle, args, error", [
    (exhaustive_side_allocation, (3, 4), BudgetOutOfRange),
    (exhaustive_side_allocation, (0, 4), InvalidSpec),
    (exhaustive_allocation, (build_complete(4), 3), BudgetOutOfRange),
    (exhaustive_allocation, (build_bipartite(2, 2), 6), BudgetOutOfRange),
    (exhaustive_allocation, (build_star(3), 7), Unsupported),
])
def test_exhaustive_oracles_refuse_what_the_closed_form_refuses(monkeypatch, oracle, args,
                                                               error):
    monkeypatch.setattr(patrolgame.oracles, "_guarded", _must_not_enumerate)
    with pytest.raises(error):
        oracle(*args)


def test_complete_rule_agrees_with_enumeration():
    for n in (2, 3, 4):
        for B in range(n + 1, n * n):
            report = exhaustive_allocation(build_complete(n), B)
            assert report.gap <= ALLOCATION_TOLERANCE, (n, B, report.gap)
            assert report.best_candidate == allocate_complete(n, B).tau


def test_side_rule_agrees_with_enumeration():
    for n_side in (2, 3):
        for B_side in range(2 * n_side, 2 * n_side * n_side, 2):
            report = exhaustive_side_allocation(n_side, B_side)
            assert report.gap <= ALLOCATION_TOLERANCE, (n_side, B_side, report.gap)


def test_bipartite_split_agrees_with_enumeration():
    for n_p, n_q in [(2, 2), (2, 3), (3, 2)]:
        lo = 2 * (n_p + n_q)
        hi = 2 * (n_p * n_p + n_q * n_q)
        for B in range(lo + 2, hi, 2):
            report = exhaustive_allocation(build_bipartite(n_p, n_q), B)
            assert report.gap <= ALLOCATION_TOLERANCE, (n_p, n_q, B, report.gap)
            assert report.best_candidate[0] == co_optimize_bipartite(n_p, n_q, B).B_p


# --- local search -----------------------------------------------------------------

def test_local_search_cannot_beat_star_optimum():
    report = local_search_strategy(build_star(3), (2, 2, 2), restarts=60, seed=4)
    assert report.best_value <= 0.5 + 1e-6
    assert report.best_value >= 0.5 - 0.01  # and it does get close
    assert report.closed_form_value == pytest.approx(0.5, abs=1e-10)


def test_local_search_star_deterministic():
    a = local_search_strategy(build_star(3), (2, 3, 2), restarts=25, seed=9)
    b = local_search_strategy(build_star(3), (2, 3, 2), restarts=25, seed=9)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_candidate, b.best_candidate)
    assert a.candidates_examined == b.candidates_examined


def test_local_search_respects_support():
    report = local_search_strategy(build_star(4), (2, 2, 2, 2), restarts=10, seed=1)
    P = report.best_candidate
    np.testing.assert_array_equal(P[1:, 1:], 0.0)
    np.testing.assert_array_equal(P[1:, 0], 1.0)
    assert P[0, 0] == 0.0


def test_local_search_close_on_complete_graph():
    g = build_complete(3)
    report = local_search_strategy(g, (2, 2, 2), restarts=40, seed=3)
    # the rank-one class is only heuristic on complete graphs, so the search
    # may exceed it slightly but must come at least close to it
    assert report.best_value >= report.closed_form_value - 0.01


def test_local_search_bipartite_gap():
    g = build_bipartite(3, 2)
    report = local_search_strategy(g, (6, 4, 4, 4, 2), restarts=40, seed=3)
    assert report.gap is not None and report.gap <= 0.02


def serial_restarts(g, tau, restarts, seed):
    """Reference: the one-move-at-a-time hill climb that the lockstep rounds
    must reproduce exactly.  Returns (value, kept matrix, evaluations) for
    each restart in restart order."""
    evaluate = min_capture_evaluator(tau)
    support = [np.flatnonzero(row) for row in g.adjacency]
    free_rows = [(i, cols) for i, cols in enumerate(support) if cols.size > 1]
    finals = []
    for restart in range(restarts):
        rng = counter_stream(seed, restart)
        P = _random_feasible_strategy(rng, support)
        mu = evaluate(P)
        evaluations = 1
        step = 0.2
        while step >= 1e-3:
            improved = True
            while improved:
                improved = False
                for i, cols in free_rows:
                    for c in cols:
                        for sign in (step, -step):
                            if sign < 0 and P[i, c] <= 0.0:
                                continue
                            original = P[i].copy()
                            trial = original.copy()
                            trial[c] += sign
                            np.clip(trial, 0.0, None, out=trial)
                            total = trial.sum()
                            if total <= 0.0:
                                continue
                            trial /= total
                            P[i] = trial
                            value = evaluate(P)
                            evaluations += 1
                            if value > mu + 1e-7:
                                mu = value
                                improved = True
                            else:
                                P[i] = original
            step *= 0.5
        finals.append((mu, P, evaluations))
    return finals


def serial_local_search(finals):
    """The fixed-order reduction over `serial_restarts` results: larger value
    wins, ties go to the lexicographically smaller matrix."""
    best_mu = -1.0
    best_P = None
    for mu, P, _ in finals:
        if mu > best_mu or (mu == best_mu and best_P is not None
                            and tuple(P.ravel()) < tuple(best_P.ravel())):
            best_mu = mu
            best_P = P
    return best_mu, best_P, sum(e for _, _, e in finals)


# restart counts within one chunk, and one past one and two full chunks, so
# the last chunk holds a single restart
RESTART_COUNTS = (1, 3, 8, patrolgame.oracles._LOCKSTEP_WIDTH + 1,
                  2 * patrolgame.oracles._LOCKSTEP_WIDTH + 1)


@pytest.mark.parametrize("graph, tau", [
    (build_star(3), (2, 2, 2)),
    (build_star(4), (3, 2, 4, 5)),
    (build_star(5), (2, 3, 5, 4, 4)),
    (build_complete(3), (2, 3, 2)),
    (build_complete(4), (2, 3, 3, 4)),
    (build_bipartite(3, 2), (6, 4, 4, 4, 2)),
    (build_bipartite(1, 1), (2, 2)),
], ids=["star3", "star4", "star5", "complete3", "complete4", "bipartite3+2",
        "bipartite1+1"])
def test_stacked_sweep_matches_serial_hill_climb(graph, tau):
    for seed in (0, 5, 11):
        finals = serial_restarts(graph, tau, max(RESTART_COUNTS), seed)
        for restarts in RESTART_COUNTS:
            report = local_search_strategy(graph, tau, restarts=restarts, seed=seed)
            best_mu, best_P, evaluations = serial_local_search(finals[:restarts])
            assert report.best_value == best_mu
            assert report.best_candidate.tobytes() == best_P.tobytes()
            assert report.candidates_examined == evaluations


def test_search_without_a_free_row_scores_each_restart_once():
    # every node of K1,1 has one edge, so no move exists
    report = local_search_strategy(build_bipartite(1, 1), (2, 2), restarts=5, seed=0)
    assert report.candidates_examined == 5
    assert report.best_value == 1.0


def test_tied_restarts_reduce_to_the_lexicographically_smaller_matrix():
    # with durations this long every capture probability of these restarts
    # rounds to 1.0, so restarts 3 and 4 tie and the later one wins on its matrix
    graph, tau, restarts, seed = build_star(3), (2, 400, 400), 6, 3
    finals = serial_restarts(graph, tau, restarts, seed)
    best_mu, best_P, evaluations = serial_local_search(finals)
    tied = [r for r, (mu, _, _) in enumerate(finals) if mu == best_mu]
    assert tied == [3, 4]
    assert tuple(finals[4][1].ravel()) < tuple(finals[3][1].ravel())
    report = local_search_strategy(graph, tau, restarts=restarts, seed=seed)
    assert report.best_value == best_mu == 1.0
    assert report.best_candidate.tobytes() == best_P.tobytes() == finals[4][1].tobytes()
    assert report.candidates_examined == evaluations


def test_a_tie_across_chunks_reduces_as_the_serial_search_does():
    # restart 16 opens the second chunk and ties restart 14 of the first on
    # value; its matrix is the lexicographically smaller one, so it wins
    graph, tau, seed = build_star(3), (2, 200, 200), 6
    restarts = patrolgame.oracles._LOCKSTEP_WIDTH + 1
    finals = serial_restarts(graph, tau, restarts, seed)
    best_mu, best_P, evaluations = serial_local_search(finals)
    assert [r for r, (mu, _, _) in enumerate(finals) if mu == best_mu] == [14, 16]
    assert tuple(finals[16][1].ravel()) < tuple(finals[14][1].ravel())
    report = local_search_strategy(graph, tau, restarts=restarts, seed=seed)
    assert report.best_value == best_mu
    assert report.best_candidate.tobytes() == best_P.tobytes() == finals[16][1].tobytes()
    assert report.candidates_examined == evaluations


def test_lockstep_width_does_not_grow_with_restarts(monkeypatch):
    largest = []
    kernel = patrolgame.oracles._capture_cdf_stack

    def recording(P, durations):
        largest[-1] = max(largest[-1], len(P))
        return kernel(P, durations)

    monkeypatch.setattr(patrolgame.oracles, "_capture_cdf_stack", recording)
    for restarts in (20, 200):
        largest.append(0)
        local_search_strategy(build_complete(4), (2, 3, 3, 4), restarts=restarts, seed=1)
    # K4 has self-loops, so 4 rows of 4 entries give 32 moves; the largest
    # round scores the whole first sweep of a full window
    width = patrolgame.oracles._LOCKSTEP_WIDTH
    assert largest == [width * 32, width * 32]


def test_infeasible_tau_fails_before_any_restart(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the feasibility report must reject tau before any kernel call")

    monkeypatch.setattr(patrolgame.oracles, "_capture_cdf_stack", must_not_run)
    # a general graph has no closed form, but the report refuses it all the same
    cycle = build_general(3, [[1, 2], [2, 3], [3, 1]])
    for g, tau in ((build_star(2), (1, 1)), (cycle, (2, 2, 2))):
        with pytest.raises(InfeasibleTau, match="first-arrival"):
            local_search_strategy(g, tau, restarts=3, seed=0)


def test_local_search_guard_and_validation():
    with pytest.raises(SearchSpaceExceeded):
        local_search_strategy(build_complete(9), (2,) * 9, restarts=1, seed=0)
    # restarts is read as a count >= 1 before the node limit is
    with pytest.raises(InvalidSpec, match=r"^restarts must be >= 1, got 0$"):
        local_search_strategy(build_complete(9), (2,) * 9, restarts=0, seed=0)


def test_oracle_report_json():
    report = exhaustive_allocation(build_complete(3), 7)
    payload = json.loads(_dump_json(report))
    assert set(payload) == {"best_value", "best_candidate", "candidates_examined",
                            "closed_form_value", "gap"}


# --- bound suite ----------------------------------------------------------------

def test_bound_suite_small_config_passes():
    # the config's one setting is the seed
    report = bound_suite(BoundSuiteConfig(seed=1))
    assert report.passed
    assert report.summary.startswith("PASS")
    rows = json.loads(_dump_json(report.checks))
    assert all(set(r) == {"instance", "expected", "actual", "pass"} for r in rows)


def row_by_row_strategy(rng, support):
    """Reference: one Dirichlet draw per row with more than one column, in
    row order; a one-column row puts its mass there and draws nothing."""
    n = len(support)
    P = np.zeros((n, n))
    for i, cols in enumerate(support):
        if cols.size == 1:
            P[i, cols[0]] = 1.0
        else:
            P[i, cols] = rng.dirichlet(np.ones(cols.size))
    return P


# support sizes 2, 2, 1, 3, 3, 1: runs of two, one, two and one rows
MIXED_RUNS = build_general(6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5), (4, 1), (4, 2),
                               (5, 6), (5, 1), (5, 3), (6, 1)])


@pytest.mark.parametrize("graph", [build_complete(5), build_bipartite(3, 2), build_star(6),
                                   MIXED_RUNS], ids=["complete5", "bipartite3+2", "star6", "mixed"])
def test_runs_of_rows_draw_what_row_by_row_draws_do(graph):
    support = patrolgame.oracles._support(graph)
    for seed in range(20):
        rng, reference = counter_stream(seed, 0), counter_stream(seed, 0)
        P = _random_feasible_strategy(rng, support)
        assert P.tobytes() == row_by_row_strategy(reference, support).tobytes()
        assert rng.random() == reference.random()  # both streams stop at the same draw


@pytest.mark.parametrize("seed", [1, 7, 2 ** 40])
def test_bound_suite_equals_the_instance_by_instance_reference(monkeypatch, seed):
    calls = []
    kernel = patrolgame.oracles._capture_cdf_stack
    monkeypatch.setattr(patrolgame.oracles, "_capture_cdf_stack",
                        lambda P, tau: calls.append(len(P)) or kernel(P, tau))
    report = bound_suite(BoundSuiteConfig(seed=seed))
    # the reference draws each instance row by row and checks it alone,
    # through the public stationary solve and capture probability
    monkeypatch.setattr(patrolgame.oracles, "_random_feasible_strategy", row_by_row_strategy)
    reference, sizes = [], set()
    for idx in range(500):
        g, P, tau = patrolgame.oracles._random_instance(counter_stream(seed, idx))
        mu = capture_probability(P, tau).mu
        bound = float(np.min(stationary_distribution(P) * np.asarray(tau)))
        reference.append(CheckResult(
            instance=f"stationary-bound[{idx}] {g.family} n={g.n} tau={list(tau)}",
            expected=f"mu <= {bound:.12g}", actual=mu, passed=mu <= bound + 1e-9))
        sizes.add(g.n)
    assert report.checks[:500] == tuple(reference)
    # one kernel call per node count covers all 500 instances
    assert len(calls) == len(sizes) and sum(calls) == 500


def test_bound_suite_counts_by_section():
    report = bound_suite()
    assert report.summary == "PASS 1291/1291"
    names = [c.instance for c in report.checks]
    assert sum(1 for s in names if s.startswith("stationary-bound")) == 500
    assert sum(1 for s in names if s.startswith("complete-ratio")) == 20  # n=2..5, 5 draws
    assert sum(1 for s in names if s.startswith("allocation-floor")) == 36  # n < B < n^2
    assert sum(1 for s in names if s.startswith("baseline-ratio")) == 735  # sides 2..8


# --- Monte Carlo suite ------------------------------------------------------------

def _one_step_short(P, tau, trials, seed):
    return simulate_capture(P, [t - 1 for t in tau], trials, seed)


def _lazier(P, tau, trials, seed):
    # P perturbed by delta = 0.02: every step stays put with extra probability delta
    return simulate_capture(0.98 * P + 0.02 * np.eye(len(P)), tau, trials, seed)


@pytest.mark.parametrize("defect", [_one_step_short, _lazier])
def test_monte_carlo_suite_fails_a_planted_defect(monkeypatch, defect):
    monkeypatch.setattr(patrolgame.oracles, "simulate_capture", defect)
    # at the default trials every instance must fail, not only the run
    report = monte_carlo_suite(seed=7, instances=3)
    assert not any(c.passed for c in report.checks), report.checks


def test_monte_carlo_suite_limit_follows_the_pair_count():
    # Bonferroni over the pairs of the run: 3 instances of 3 or 4 nodes
    report = monte_carlo_suite(trials=2000, seed=7, instances=3)
    pairs = sum(int(c.instance.split("n=")[1].split()[0]) ** 2 for c in report.checks)
    z = NormalDist().inv_cdf(1 - MONTE_CARLO_FALSE_ALARM / (2 * pairs))
    assert all(c.expected.endswith(f"<= {z / 3:.6g}") for c in report.checks)
    with pytest.raises(InvalidSpec):
        monte_carlo_suite(instances=0)


@pytest.mark.parametrize("instances", [2.5, -3, 0])
def test_monte_carlo_suite_work_refuses_what_the_suite_refuses(instances):
    # a fractional count would scale the work and a negative one make it
    # negative, which any work limit admits
    with pytest.raises(InvalidSpec, match="instances must be"):
        monte_carlo_suite_work(100_000, instances)
    with pytest.raises(InvalidSpec, match="instances must be"):
        monte_carlo_suite(trials=100, instances=instances)


@pytest.mark.parametrize("seed, instances", [((1 << 64) - 1, 20), ((1 << 64) - 2, 3), (-1, 1)])
def test_monte_carlo_suite_refuses_a_seed_past_64_bits_before_any_walk(monkeypatch, seed,
                                                                       instances):
    # instance i walks on seed + i, so the last instance's seed is checked first
    def must_not_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(patrolgame.oracles, "simulate_capture", must_not_walk)
    with pytest.raises(InvalidSpec, match=rf"seed must lie in \[0, 2\*\*64 - {instances}\]"):
        monte_carlo_suite(trials=10, seed=seed, instances=instances)


@pytest.mark.parametrize("run", [
    lambda: local_search_strategy(build_star(3), (2, 2, 2), restarts=1, seed=1.5),
    lambda: bound_suite(BoundSuiteConfig(seed=2.5)),
    lambda: monte_carlo_suite(trials=100, seed=3.5, instances=1),
], ids=["local_search_strategy", "bound_suite", "monte_carlo_suite"])
def test_a_fractional_seed_is_refused_not_rounded_down(run):
    # cast to uint64, seed s would replay seed floor(s) bit for bit
    with pytest.raises(InvalidSpec, match="seed and stream index must be integers"):
        run()


def test_integer_inputs_past_a_rule_are_refused_not_raised():
    # a duration past the float range and a seed given as text are refused
    # with InvalidSpec, not a bare OverflowError or TypeError
    huge = (10 ** 400, 2, 2)
    for call, message in [
        (lambda: patrolgame.synthesize_complete(huge), "exponent 1.00e+400 is past the float range"),
        (lambda: local_search_strategy(build_complete(3), huge, 1, 0),
         "exponent 1.00e+400 is past the float range"),
        (lambda: monte_carlo_suite(trials=10, seed="3", instances=1),
         "seed and stream index must be integers"),
    ]:
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            call()
    # the bound compares the integers before it divides them
    assert patrolgame.generic_capture_bound(huge[:2]) == 1.0


def test_monte_carlo_suite_walks_its_largest_seed():
    report = monte_carlo_suite(trials=10, seed=(1 << 64) - 1, instances=1)
    assert len(report.checks) == 1
