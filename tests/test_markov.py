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
    capture_probability,
    check_transition_matrix,
    simulate_capture,
    stationary_distribution,
)
from patrolgame.cli import _dump_json
from patrolgame.markov import _capture_cdf_stack, min_capture_evaluator

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
    g = build_bipartite(1, 1)
    with pytest.raises(InvalidSpec):
        check_transition_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]), graph=g)
    check_transition_matrix(TWO_CYCLE, graph=g)


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


def test_simulation_validates_input():
    with pytest.raises(InvalidSpec):
        simulate_capture(TWO_CYCLE, [2, 2], trials=0, seed=0)
