import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patrolgame import (
    DimensionMismatch,
    InvalidSpec,
    NotIrreducible,
    build_bipartite,
    build_graph,
    capture_probability,
    check_transition_matrix,
    simulate_capture,
    stationary_distribution,
    synthesize,
)
from patrolgame import markov
from patrolgame.cli import _dump_json
from patrolgame.markov import (
    _WALK_CHUNK,
    _capture_cdf_stack,
    counter_stream,
    min_capture_evaluator,
)

TWO_CYCLE = np.array([[0.0, 1.0], [1.0, 0.0]])


def hitting_time_probabilities(P, k_max):
    """Reference recursion: F[k-1][i, j] is the probability that the first
    arrival at j after leaving i takes exactly k steps, for 1 <= k <= k_max.

    F[0] is P itself and each successive matrix is the product of P with the
    previous one after zeroing its diagonal (walks that already arrived stop
    contributing).  The streaming kernel never holds this tensor.
    """
    P = check_transition_matrix(P)
    n = P.shape[0]
    F = np.empty((k_max, n, n))
    F[0] = P
    for k in range(1, k_max):
        step = F[k - 1].copy()
        np.fill_diagonal(step, 0.0)
        np.matmul(P, step, out=F[k])
    return F


def reference_walk(P, tau, trials, seed, chunk=_WALK_CHUNK):
    """Reference simulator: start node i walks `trials` walkers for max tau
    steps on stream (seed, i), `chunk` walkers at a time.  Each step counts
    the passed thresholds of the walker's cumulative row in one
    (walkers x n) comparison, the last threshold pinned to 1, and an
    explicit (n, trials) bool matrix marks the walkers that reached each
    target by its deadline.  `simulate_capture` must match it bit for bit."""
    P = check_transition_matrix(P)
    n = P.shape[0]
    tau = np.asarray(tau)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    estimates = np.empty((n, n))
    for i in range(n):
        rng = counter_stream(seed, i)
        hit = np.zeros((n, trials), dtype=bool)
        for start in range(0, trials, chunk):
            walkers = np.arange(start, min(start + chunk, trials))
            states = np.full(walkers.size, i)
            for k in range(1, tau.max() + 1):
                u = rng.random(walkers.size)
                states = (u[:, None] >= cum[states]).sum(axis=1)
                in_time = tau[states] >= k
                hit[states[in_time], walkers[in_time]] = True
        estimates[i] = hit.mean(axis=1)
    return estimates


def random_stochastic(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def stationary_by_nullspace(P):
    """Independent oracle: left fixed vector via SVD null space."""
    _, _, vt = np.linalg.svd(P.T - np.eye(P.shape[0]))
    vec = vt[-1]
    vec = np.abs(vec)
    return vec / vec.sum()


# --- validation -------------------------------------------------------------

def test_check_transition_matrix_errors():
    with pytest.raises(DimensionMismatch):
        check_transition_matrix(np.ones((2, 3)) / 3)
    with pytest.raises(InvalidSpec):
        check_transition_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidSpec):
        check_transition_matrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    check_transition_matrix(TWO_CYCLE)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("use", [
    lambda P: capture_probability(P, (2, 2)),
    stationary_distribution,
    lambda P: simulate_capture(P, (2, 2), trials=10, seed=0),
], ids=["capture_probability", "stationary_distribution", "simulate_capture"])
def test_non_finite_entries_are_rejected(bad, use):
    # every comparison with NaN is false, so a range check written as
    # "fail if out of range" would let it through
    with pytest.raises(InvalidSpec, match=r"\[0, 1\]"):
        use([[bad, 0.5], [0.5, 0.5]])


# --- stationary distribution ------------------------------------------------

def test_two_cycle_stationary():
    np.testing.assert_allclose(stationary_distribution(TWO_CYCLE), [0.5, 0.5], atol=1e-12)


def test_rank_one_chain_stationary():
    pi0 = np.array([0.2, 0.5, 0.3])
    P = np.tile(pi0, (3, 1))
    np.testing.assert_allclose(stationary_distribution(P), pi0, atol=1e-12)


def test_bipartite_block_stationary_matches_nullspace_oracle():
    p = np.array([0.3, 0.7])
    q = np.array([0.1, 0.5, 0.4])
    P = np.zeros((5, 5))
    P[:2, 2:] = q
    P[2:, :2] = p
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi, np.concatenate([p / 2, q / 2]), atol=1e-10)
    np.testing.assert_allclose(pi, stationary_by_nullspace(P), atol=1e-10)
    # fixed point property
    np.testing.assert_allclose(pi @ P, pi, atol=1e-12)


def test_reducible_matrix_rejected():
    with pytest.raises(NotIrreducible):
        stationary_distribution(np.eye(2))
    with pytest.raises(NotIrreducible):
        stationary_distribution(np.array([[0.5, 0.5], [0.0, 1.0]]))


def test_random_chains_satisfy_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        P = random_stochastic(rng, n)
        pi = stationary_distribution(P)
        assert pi.min() >= 0
        assert abs(pi.sum() - 1) < 1e-12
        np.testing.assert_allclose(pi @ P, pi, atol=1e-9)


def test_slowly_mixing_large_chain_solves_exactly():
    # lazy tour: stay at i with probability s_i, else step to i+1 (mod n)
    n = 280
    stay = np.random.default_rng(0).uniform(0.1, 0.9, size=n)
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, idx] = stay
    P[idx, (idx + 1) % n] = 1.0 - stay
    pi = stationary_distribution(P)
    assert np.abs(pi @ P - pi).max() <= 1e-12
    # the exact answer: pi_i proportional to 1 / (1 - s_i)
    expected = 1.0 / (1.0 - stay)
    np.testing.assert_allclose(pi, expected / expected.sum(), rtol=1e-10)


# --- hitting time recursion ---------------------------------------------------

def test_two_cycle_hitting_times():
    F = hitting_time_probabilities(TWO_CYCLE, 2)
    np.testing.assert_array_equal(F[0], TWO_CYCLE)
    np.testing.assert_array_equal(F[1], np.eye(2))


def test_rank_one_chain_column_law():
    # every column i of F_k is constant pi_i (1 - pi_i)**(k-1)
    pi = np.array([0.2, 0.5, 0.3])
    P = np.tile(pi, (3, 1))
    F = hitting_time_probabilities(P, 6)
    for k in range(1, 7):
        for i in range(3):
            expected = pi[i] * (1 - pi[i]) ** (k - 1)
            np.testing.assert_allclose(F[k - 1][:, i], expected, atol=1e-12)


def test_recursion_identity_holds():
    rng = np.random.default_rng(5)
    P = random_stochastic(rng, 4)
    F = hitting_time_probabilities(P, 5)
    for k in range(1, 5):
        step = F[k - 1] - np.diag(np.diag(F[k - 1]))
        np.testing.assert_allclose(F[k], P @ step, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_column_cdfs_monotone_and_bounded(n, seed):
    P = random_stochastic(np.random.default_rng(seed), n)
    F = hitting_time_probabilities(P, 8)
    cdf = np.cumsum(F, axis=0)
    assert np.all(F >= -1e-15) and np.all(F <= 1 + 1e-9)
    assert np.all(cdf <= 1 + 1e-9)
    assert np.all(np.diff(cdf, axis=0) >= -1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_stack_kernel_matches_reference_recursion(n, K, seed):
    # every slice of the streaming kernel is the running sum of the reference
    # hitting-time tensor, stopped at each column's own duration, bit for bit
    rng = np.random.default_rng(seed)
    stack = np.stack([random_stochastic(rng, n) for _ in range(K)])
    assert len({P.tobytes() for P in stack}) == K
    tau = rng.integers(1, 9, size=n)
    tau[:2] = (1, 8)  # mixed durations: columns stop counting at different steps
    rng.shuffle(tau)
    cdf = _capture_cdf_stack(stack, tau)
    assert cdf.shape == (K, n, n)
    for P, got in zip(stack, cdf):
        running = np.cumsum(hitting_time_probabilities(P, int(tau.max())), axis=0)
        for j, t in enumerate(tau):
            np.testing.assert_array_equal(got[:, j], running[t - 1, :, j])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_per_slice_durations_match_each_slice_alone(K, n, longest, seed):
    # a (K, n) duration array gives each slice the CDF of its own one-slice
    # call, bit for bit, however far the other slices' durations run on
    rng = np.random.default_rng(seed)
    stack = np.stack([random_stochastic(rng, n) for _ in range(K)])
    tau = rng.integers(1, longest + 1, size=(K, n))
    cdf = _capture_cdf_stack(stack, tau)
    assert cdf.shape == (K, n, n)
    for P, durations, got in zip(stack, tau, cdf):
        assert got.tobytes() == _capture_cdf_stack(P[None], durations)[0].tobytes()


# --- the kernel on distinct rows ----------------------------------------------

def synthesized_strategy(family, n, seed, longest=24):
    """The family's synthesized strategy on n nodes for seeded durations up
    to `longest` (even ones on a bipartite graph), and the durations."""
    rng = np.random.default_rng(seed)
    if family == "bipartite":
        sizes = {"n_p": n // 2, "n_q": n - n // 2}
        tau = 2 * rng.integers(1, longest // 2 + 1, size=n)
    else:
        sizes, tau = {"n": n}, rng.integers(2, longest + 1, size=n)
    return synthesize(build_graph({"family": family, **sizes}), tuple(tau.tolist())).P, tau


def ulps_apart(a, b):
    # non-negative floats are ordered like their bit patterns
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max())


def repeated_rows(n, r, seed):
    """An n-node strategy whose rows cycle through r random distinct rows."""
    return np.random.default_rng(seed).dirichlet(np.ones(n), size=r)[np.arange(n) % r]


def extended_precision_cdf(P, tau):
    """The distinct-row recursion run in np.longdouble, rows grouped by value
    and each class mass summed in that precision, rounded to float64 at the
    end: G_k[c, j] = sum over c' of W[c', c, j] G_{k-1}[c', j]."""
    rows, index = np.unique(P, axis=0, return_inverse=True)
    index = index.ravel()
    member = index == np.arange(len(rows))[:, None]  # member[c', j]
    rows = rows.astype(np.longdouble)
    mass = np.array([[row[columns].sum() for row in rows] for columns in member])
    W = mass[:, :, None] - member[:, None, :] * rows[None]
    G, running, cdf = rows.copy(), rows.copy(), np.empty_like(rows)
    for k in range(1, int(tau.max()) + 1):
        if k > 1:
            G = (W * G[:, None, :]).sum(axis=0)
            running += G
        cdf[:, tau == k] = running[:, tau == k]
    return cdf[index].astype(np.float64)


# a synthesized strategy takes the path from n = 12 r: a complete graph's one
# row from n = 12, a star's or bipartite graph's two rows from n = 24
@pytest.mark.parametrize("n, family, rows", [
    (12, "complete", 1), (24, "star", 2), (24, "bipartite", 2),
    (200, "complete", 1), (200, "star", 2), (200, "bipartite", 2)])
def test_synthesized_strategies_take_the_distinct_row_path(family, rows, n):
    P, _ = synthesized_strategy(family, n, n)
    distinct, index = markov._distinct_rows(P[None])
    assert distinct.shape == (rows, n)
    assert len(set(index.tolist())) == rows
    assert distinct[index].tobytes() == P.tobytes()


# the path's edge, 12 r <= n, at both sides; at r = n / 12 the r x n
# recursion takes about half the dense product's time at n = 200 and 1000
@pytest.mark.parametrize("n, rows, fast", [(12, 4, False), (3, 1, False), (200, 51, False),
                                           (12, 1, True), (11, 1, False), (24, 2, True),
                                           (23, 2, False), (200, 16, True), (200, 17, False),
                                           (1000, 83, True), (1000, 84, False)])
def test_the_distinct_row_path_takes_at_most_one_distinct_row_in_twelve(n, rows, fast):
    assert (markov._distinct_rows(repeated_rows(n, rows, n)[None]) is not None) is fast


def test_user_strategies_and_stacks_keep_the_dense_product():
    rng = np.random.default_rng(11)
    n = 280
    stay = rng.uniform(0.1, 0.9, size=n)
    lazy = np.diag(stay) + np.roll(np.diag(1.0 - stay), 1, axis=1)
    complete, _ = synthesized_strategy("complete", 12, 1)
    for stack in (random_stochastic(rng, 200)[None], lazy[None],
                  np.stack([complete, complete]), np.stack([repeated_rows(12, 2, 0)] * 3)):
        assert markov._distinct_rows(stack) is None


@pytest.mark.parametrize("family", ["complete", "star", "bipartite"])
def test_one_row_of_durations_is_the_shared_vector(family):
    # a one-slice stack reads a (1, n) duration array as its (n,) vector and
    # keeps the distinct-row path, bit for bit
    P, tau = synthesized_strategy(family, 24, 5)
    assert markov._distinct_rows(P[None]) is not None
    shared = _capture_cdf_stack(P[None], tau)
    assert _capture_cdf_stack(P[None], tau[None]).tobytes() == shared.tobytes()


def test_rows_that_share_a_signature_are_not_merged():
    # b's bit patterns are a's with 2 s added to entry 0 and s taken from
    # entry 1, so a weighted sum of bit patterns, sum_j (j + 1) bits_j, does
    # not tell the two rows apart; their bytes do, and at n = 24 their two
    # classes take the distinct-row path
    a = np.random.default_rng(2).dirichlet(np.ones(24))
    b = a.copy()
    b.view(np.uint64)[:2] += np.array([2, -1], dtype=np.int64).view(np.uint64) << 30
    P = np.array([a, b] * 12)
    distinct, index = markov._distinct_rows(P[None])
    assert distinct.tobytes() == P[:2].tobytes()
    assert index.tolist() == [0, 1] * 12
    tau = np.arange(2, 26)
    cdf = _capture_cdf_stack(P[None], tau)[0]
    assert ulps_apart(cdf, _capture_cdf_stack(np.stack([P, P]), tau)[0]) <= 64


@pytest.mark.parametrize("n, family", [
    (12, "complete"), (24, "star"), (24, "bipartite"), (200, "complete"), (200, "star"),
    (200, "bipartite"), (260, "complete"), (260, "star"), (260, "bipartite")])
def test_distinct_row_path_agrees_with_the_dense_product(family, n):
    # the r x n recursion adds its terms in another order than the dense
    # product, so the two agree to a few ulps, not bit for bit
    P, tau = synthesized_strategy(family, n, n)
    assert markov._distinct_rows(P[None]) is not None
    fast = _capture_cdf_stack(P[None], tau)[0]
    # a two-strategy stack takes the dense product, slice by slice
    dense = _capture_cdf_stack(np.stack([P, P]), tau)[0]
    running = np.cumsum(hitting_time_probabilities(P, int(tau.max())), axis=0)
    reference = running[tau - 1, :, np.arange(n)].T
    assert ulps_apart(fast, dense) <= 64
    assert ulps_apart(fast, reference) <= 64


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="np.longdouble has no 64-bit mantissa on this platform")
def test_distinct_row_path_is_more_accurate_than_the_dense_product():
    # largest ulp errors against the same recursion in long double, 11 bits
    # finer, for tau up to n; case by case the two paths trade places (in a
    # seeded scan of 48 cases the distinct-row path's error was at most the
    # dense product's in 43, and above it by up to 20 ulps in the other 5),
    # so the six cases are compared as a whole
    fast, dense = [], []
    for family in ("complete", "star", "bipartite"):
        for n in (200, 260):
            P, tau = synthesized_strategy(family, n, n, longest=n)
            reference = extended_precision_cdf(P, tau)
            fast.append(ulps_apart(_capture_cdf_stack(P[None], tau)[0], reference))
            dense.append(ulps_apart(_capture_cdf_stack(np.stack([P, P]), tau)[0], reference))
    assert sum(fast) <= sum(dense)


def test_bipartite_parity_of_column_minimum():
    # the worst-case entry of a column CDF only moves between odd and even steps
    g = build_bipartite(3, 2)
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(2))
    P = np.zeros((5, 5))
    P[:3, 3:] = q
    P[3:, :3] = p
    F = hitting_time_probabilities(P, 9)
    cdf = np.cumsum(F, axis=0)
    for col in range(5):
        mins = cdf[:, :, col].min(axis=1)
        for k in range(2, 9):  # 1-indexed step k = index + 1
            if k % 2 == 1:
                assert mins[k - 1] == pytest.approx(mins[k - 2], abs=1e-15)
            else:
                assert mins[k - 1] > mins[k - 2] - 1e-15


def test_bipartite_same_side_hitting_values():
    # same-side rows of column i carry p_i (1-p_i)**(k/2 - 1) at even k, zero at odd k
    p = np.array([0.25, 0.75])
    q = np.array([0.6, 0.4])
    P = np.zeros((4, 4))
    P[:2, 2:] = q
    P[2:, :2] = p
    F = hitting_time_probabilities(P, 8)
    for i in range(2):
        for k in range(2, 9):
            same_side = F[k - 1][:2, i]
            if k % 2 == 0:
                expected = p[i] * (1 - p[i]) ** (k // 2 - 1)
                np.testing.assert_allclose(same_side, expected, atol=1e-12)
            else:
                np.testing.assert_array_equal(same_side, 0.0)


# --- capture probability ------------------------------------------------------

def test_two_cycle_capture_is_certain():
    report = capture_probability(TWO_CYCLE, [2, 2])
    assert report.mu == pytest.approx(1.0, abs=1e-12)


def test_uniform_complete_capture():
    P = np.full((3, 3), 1 / 3)
    report = capture_probability(P, [2, 2, 2])
    assert report.mu == pytest.approx(5 / 9, abs=1e-12)
    np.testing.assert_allclose(report.cdf, 5 / 9, atol=1e-12)


def test_star_with_short_leaf_duration_is_hopeless():
    # node 2 cannot be reached from node 3 in one step whatever the strategy
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = rng.dirichlet(np.ones(2))
        P = np.zeros((3, 3))
        P[0, 1:] = q
        P[1:, 0] = 1.0
        report = capture_probability(P, [2, 1, 2])
        assert report.mu == 0.0
        assert report.worst_pair in {(1, 2), (2, 2), (3, 2)}


def test_capture_report_consistency():
    rng = np.random.default_rng(9)
    P = random_stochastic(rng, 4)
    tau = [3, 1, 4, 2]
    report = capture_probability(P, tau)
    i, j = report.worst_pair
    assert report.cdf[i - 1, j - 1] == report.mu == report.cdf.min()
    # column j of the cdf sums the first tau_j hitting matrices
    F = hitting_time_probabilities(P, max(tau))
    for col, t in enumerate(tau):
        np.testing.assert_allclose(report.cdf[:, col], F[:t, :, col].sum(axis=0), atol=1e-15)
    payload = json.loads(_dump_json(report))
    assert set(payload) == {"mu", "worst_pair", "cdf"}


def test_the_first_tied_pair_is_the_worst_pair():
    # targets 11, 22 and 33 share tau = 6 and their entry of the one
    # distinct row, so their CDF columns are bit-equal and the row-major
    # first pair wins; every pair has value mu in exact arithmetic, so the
    # rounding picks the tied group: the dense product's made it (1, 23),
    # the bisection's w (1, 1)
    tau = ((2, 9, 5, 12, 8, 4, 11, 7, 3, 10, 6) * 4)[:40]
    P = synthesize(build_graph({"family": "complete", "n": 40}), tau).P
    report = capture_probability(P, tau)
    assert len({report.cdf[:, j].tobytes() for j in (10, 21, 32)}) == 1
    first = np.flatnonzero(report.cdf == report.cdf.min())[0]
    assert report.worst_pair == tuple(int(k) + 1 for k in divmod(first, 40)) == (1, 11)


def test_capture_memory_stays_near_the_answer():
    # a synthesized n = 1000 strategy: the kernel carries its one distinct
    # row, so the peak is the n x n answer (7.6 MiB) and a little; the dense
    # product's four n x n buffers peaked at 38 MiB
    tau = (50,) + (2,) * 999
    P = synthesize(build_graph({"family": "complete", "n": 1000}), tau).P
    tracemalloc.start()
    try:
        capture_probability(P, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_capture_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        capture_probability(TWO_CYCLE, [2, 2, 2])


def test_stationary_bound_on_random_strategies():
    # capture probability never beats min_i pi_i tau_i, whatever the strategy
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        P = random_stochastic(rng, n)
        tau = rng.integers(1, 9, size=n)
        pi = stationary_distribution(P)
        mu = capture_probability(P, tau).mu
        assert mu <= np.min(pi * tau) + 1e-9


def test_min_capture_evaluator_matches_report():
    rng = np.random.default_rng(3)
    evaluate = min_capture_evaluator([3, 2, 4])
    for _ in range(10):
        P = random_stochastic(rng, 3)
        assert evaluate(P) == capture_probability(P, [3, 2, 4]).mu


# --- Monte Carlo simulator ----------------------------------------------------

def test_deterministic_walk_simulates_exactly():
    report = simulate_capture(TWO_CYCLE, [2, 2], trials=500, seed=42)
    np.testing.assert_array_equal(report.estimates, 1.0)
    assert report.overall == 1.0


def test_simulation_is_bitwise_reproducible():
    P = np.full((3, 3), 1 / 3)
    a = simulate_capture(P, [2, 2, 2], trials=4000, seed=123)
    b = simulate_capture(P, [2, 2, 2], trials=4000, seed=123)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    c = simulate_capture(P, [2, 2, 2], trials=4000, seed=124)
    assert not np.array_equal(a.estimates, c.estimates)


def test_uniform_walk_simulation_against_known_value():
    # every pair of the uniform 3-node walk has P(T <= 2) = 5/9
    P = np.full((3, 3), 1 / 3)
    sim = simulate_capture(P, [2, 2, 2], trials=100_000, seed=7)
    p = 5 / 9
    tolerance = 3 * np.sqrt(p * (1 - p) / 100_000)
    assert np.all(np.abs(sim.estimates - p) <= tolerance)


def test_simulation_matches_exact_within_three_sigma():
    rng = np.random.default_rng(17)
    trials = 20_000
    for seed in (1, 2):
        n = int(rng.integers(3, 5))
        P = random_stochastic(rng, n)
        tau = [int(t) for t in rng.integers(2, 5, size=n)]
        exact = capture_probability(P, tau).cdf
        sim = simulate_capture(P, tau, trials=trials, seed=seed)
        sigma = np.sqrt(np.clip(exact * (1 - exact), 0, None) / trials)
        assert np.all(np.abs(sim.estimates - exact) <= 3 * sigma + 1e-12)


def test_simulation_memory_does_not_grow_with_tau():
    # the walk draws its uniforms one step at a time, not as a (tau, trials) block
    P = np.full((3, 3), 1 / 3)

    def peak_bytes(tau):
        tracemalloc.start()
        try:
            simulate_capture(P, [tau] * 3, trials=20_000, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_capture(P, [2] * 3, trials=10, seed=0)
    assert peak_bytes(64) <= 1.1 * peak_bytes(2)


def _walk_case(n, trials):
    """A random chain, durations and seed; for n >= 3, row 0 holds an
    admitted negative entry that unsorts its thresholds, and row 1's
    cumulative sum reaches 1 before its last column."""
    rng = np.random.default_rng(1000 * n + trials)
    P = random_stochastic(rng, n)
    if n >= 3:
        P[0] = [0.3, -1e-10, 0.7 + 1e-10] + [0.0] * (n - 3)
        P[1] = [0.5, 0.5] + [0.0] * (n - 2)
    tau = [int(t) for t in rng.integers(1, 7, size=n)]
    return P, tau, int(rng.integers(2**31))


@pytest.mark.parametrize("n, trials", [(n, trials) for n in range(1, 9)
                                       for trials in (1, 7, 500, 3000)] + [(70, 7), (130, 7)])
def test_walk_matches_reference_walk_bitwise(n, trials):
    # n = 70 and n = 130 keep each walker's visits in two and three words
    P, tau, seed = _walk_case(n, trials)
    estimates = simulate_capture(P, tau, trials=trials, seed=seed).estimates
    assert estimates.tobytes() == reference_walk(P, tau, trials, seed).tobytes()


@pytest.mark.parametrize("n", [4, 70, 130])
def test_walk_in_chunks_matches_reference_walk_bitwise(monkeypatch, n):
    # 7 walkers in chunks of 3, 3 and 1: each chunk continues the start's stream
    monkeypatch.setattr(markov, "_WALK_CHUNK", 3)
    P, tau, seed = _walk_case(n, 7)
    estimates = simulate_capture(P, tau, trials=7, seed=seed).estimates
    assert estimates.tobytes() == reference_walk(P, tau, 7, seed, chunk=3).tobytes()
    assert estimates.tobytes() != reference_walk(P, tau, 7, seed).tobytes()


def _rank_one_case(n, trials):
    """`_walk_case`'s durations and seed, with every row equal to one random
    row; for n >= 3 that row's entry 1 is an admitted -1e-10, which unsorts
    its thresholds."""
    _, tau, seed = _walk_case(n, trials)
    row = np.random.default_rng(seed).dirichlet(np.ones(n))
    if n >= 3:
        row[0], row[1] = row[0] + row[1] + 1e-10, -1e-10
    return np.tile(row, (n, 1)), tau, seed


@pytest.mark.parametrize("n, trials", [(n, trials) for n in (1, 2, 3, 5, 70)
                                       for trials in (1, 7, 500)])
def test_rank_one_walk_matches_reference_walk_bitwise(n, trials):
    # every walker reads the one shared row, at every step
    P, tau, seed = _rank_one_case(n, trials)
    estimates = simulate_capture(P, tau, trials=trials, seed=seed).estimates
    assert estimates.tobytes() == reference_walk(P, tau, trials, seed).tobytes()


@pytest.mark.parametrize("n", [4, 70])
def test_rank_one_walk_in_chunks_matches_reference_walk_bitwise(monkeypatch, n):
    monkeypatch.setattr(markov, "_WALK_CHUNK", 3)
    P, tau, seed = _rank_one_case(n, 7)
    estimates = simulate_capture(P, tau, trials=7, seed=seed).estimates
    assert estimates.tobytes() == reference_walk(P, tau, 7, seed, chunk=3).tobytes()
    assert estimates.tobytes() != reference_walk(P, tau, 7, seed).tobytes()


@pytest.mark.parametrize("n, trials", [(n, trials) for n in (3, 4, 8, 70) for trials in (7, 500)])
def test_one_step_walk_matches_reference_walk_bitwise(n, trials):
    # at tau_max = 1 each start's walkers read only the start's own row
    P, _, seed = _walk_case(n, trials)
    estimates = simulate_capture(P, [1] * n, trials=trials, seed=seed).estimates
    assert estimates.tobytes() == reference_walk(P, [1] * n, trials, seed).tobytes()


@pytest.mark.parametrize("case", [_walk_case, _rank_one_case], ids=["random", "rank-one"])
def test_a_walk_on_257_nodes_counts_past_one_byte(case):
    P, tau, seed = case(257, 7)
    P = 0.5 * P + 0.5 * np.eye(257)[-1]  # half of every row's mass on node 257
    estimates = simulate_capture(P, tau, trials=7, seed=seed).estimates
    assert estimates[:, -1].any()  # some walker counted 256 passed thresholds
    assert estimates.tobytes() == reference_walk(P, tau, 7, seed).tobytes()


def test_each_start_node_draws_its_stream_once(monkeypatch):
    # n = 70 needs two visit words, and both fill in the same walk
    keys = []

    def counted(seed, index):
        keys.append((seed, index))
        return counter_stream(seed, index)

    monkeypatch.setattr(markov, "counter_stream", counted)
    P, tau, seed = _walk_case(70, 7)
    simulate_capture(P, tau, trials=7, seed=seed)
    assert keys == [(seed, i) for i in range(70)]


def test_walk_work_counts_one_walk_per_start_node():
    # each start-step also counts its fixed cost, 1000 walkers' worth
    assert markov.walk_work(4, 4, 100_000) == 6_464_000
    assert markov.walk_work(200, 6, 500) == 200 * 200 * 6 * 1500


@pytest.mark.parametrize("trials", [0, -1_000_000])
def test_walk_work_refuses_trials_below_one(trials):
    with pytest.raises(InvalidSpec, match=f"^trials must be >= 1, got {trials}$"):
        markov.walk_work(3, 2, trials)


@pytest.mark.parametrize("seed, index", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
def test_a_seed_or_index_outside_64_bits_is_refused(seed, index):
    with pytest.raises(InvalidSpec, match=r"must lie in \[0, 2\*\*64\)"):
        counter_stream(seed, index)
    if index == 0:
        with pytest.raises(InvalidSpec):
            simulate_capture(TWO_CYCLE, [2, 2], trials=10, seed=seed)


def test_the_largest_seed_and_index_are_keys():
    largest = (1 << 64) - 1
    assert counter_stream(largest, largest).random() != counter_stream(0, 0).random()


@pytest.mark.parametrize("seed, index", [(7.9, 0), (0, 1.5), (np.float64(3.0), 0), (None, 0)])
def test_a_seed_or_index_that_is_not_an_integer_is_refused(seed, index):
    # cast to uint64, 7.9 would key seed 7's stream
    with pytest.raises(InvalidSpec, match="^seed and stream index must be integers"):
        counter_stream(seed, index)
    if index == 0:
        with pytest.raises(InvalidSpec, match="^seed and stream index must be integers"):
            simulate_capture(TWO_CYCLE, [2, 2], trials=10, seed=seed)


def test_numpy_integer_seeds_key_the_python_integer_stream():
    assert counter_stream(np.int64(7), np.uint64(2)).random() == counter_stream(7, 2).random()


def test_simulation_memory_does_not_grow_with_n():
    # a step counts one threshold column at a time, never a (walkers x n) block
    def peak_bytes(n):
        P = np.full((n, n), 1 / n)
        tracemalloc.start()
        try:
            simulate_capture(P, [2] * n, trials=20_000, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_capture(TWO_CYCLE, [2, 2], trials=10, seed=0)
    assert peak_bytes(16) <= 1.25 * peak_bytes(2)


def test_simulation_validates_input():
    with pytest.raises(InvalidSpec):
        simulate_capture(TWO_CYCLE, [2, 2], trials=0, seed=0)
