import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import patrolgame.synthesis

from patrolgame import (
    DimensionMismatch,
    InfeasibleTau,
    InvalidSpec,
    TrivialGame,
    build_bipartite,
    build_complete,
    build_general,
    build_star,
    capture_probability,
    capture_upper_bound,
    generic_capture_bound,
    allocation_agreement_suite,
    solve_equalized_value,
    solve_equalized_values,
    stationary_distribution,
    synthesize,
    synthesize_bipartite,
    synthesize_complete,
    synthesize_star,
    uniform_bipartite_baseline,
)

# root of s^2 + s = 1 squared: solves sqrt(w) + w = 1, i.e. exponents (2, 1)
GOLDEN_W = (3 - math.sqrt(5)) / 2
# root of w**(1/3) + 2*w**(1/2) = 2, i.e. exponents (3, 2, 2); derived below
# from the cubic 2s^3 + s^2 - 2 = 0 with s = w**(1/6)
W_322 = 0.39921807145463346


def cubic_oracle_w322():
    roots = np.roots([2.0, 1.0, 0.0, -2.0])
    s = [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
    assert len(s) == 1
    return s[0] ** 6


# --- bisection ---------------------------------------------------------------

def reference_bisection(g, target, lo, hi, tol):
    """Generic bisection for a strictly increasing g, with bracket checks and
    an iteration cap: the reference that `solve_equalized_value` folds in."""
    assert lo <= hi
    scale = max(1.0, abs(target))
    g_lo, g_hi = g(lo), g(hi)
    if g_lo > target:
        assert g_lo - target <= tol * scale
        return lo
    if g_hi < target:
        assert target - g_hi <= tol * scale
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = g(mid)
        if abs(value - target) <= tol * scale or hi - lo <= tol:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_equalized_value(exponents):
    if len(exponents) == 1:
        return 0.0
    inv = np.array([1.0 / e for e in sorted(exponents)])
    return reference_bisection(lambda w: float(np.sum(w ** inv)), float(len(inv) - 1),
                               0.0, 1.0, 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=300))
@example([1] * 300)
@example(list(range(101, 401)))
def test_equalized_value_matches_reference_bisection(exponents):
    # bit for bit: the same midpoints and the same stop test
    assert solve_equalized_value(tuple(exponents)) == reference_equalized_value(exponents)


# w to the last bit: the 12-digit goldens alone would let a change to the
# bisection's arithmetic drift its low bits unseen
PINNED_W = [
    ((1, 2), "0x1.8722191a04000p-2"),
    ((2, 3, 3, 4), "0x1.c3033119e0000p-2"),
    ((1, 1, 2, 3, 5, 8), "0x1.649ba40b78000p-1"),
    ((12,) * 29, "0x1.500a1e5160000p-1"),
    (tuple(int(m) for m in np.random.default_rng(2026).integers(1, 40, size=300)),
     "0x1.ef9d5acac0000p-1"),
]


@pytest.mark.parametrize("exponents, w_hex", PINNED_W,
                         ids=["1,2", "2,3,3,4", "fibonacci", "12x29", "seeded300"])
def test_equalized_value_is_pinned_bitwise(exponents, w_hex):
    assert float.hex(solve_equalized_value(exponents)) == w_hex


def _assert_batch_is_the_scalar(rows):
    rows = [tuple(int(m) for m in row) for row in rows]
    got = [float.hex(w) for w in solve_equalized_values(rows).tolist()]
    assert got == [float.hex(solve_equalized_value(row)) for row in rows]


def _suite_batches(monkeypatch):
    """The rows of every batch the alloc-oracle suite at nmax 6 solves."""
    batches = []
    batch = patrolgame.synthesis.solve_equalized_values

    def recording(rows):
        batches.append(np.asarray(rows).tolist())
        return batch(rows)

    monkeypatch.setattr(patrolgame.synthesis, "solve_equalized_values", recording)
    allocation_agreement_suite(nmax=6)
    monkeypatch.undo()
    return batches


# bit for bit: a lane that stops one midpoint early or late, or a sum taken in
# another order (n >= 8 sums in eight interleaved partial sums), fails
def test_batch_equals_scalar_on_every_alloc_oracle_multiset(monkeypatch):
    batches = _suite_batches(monkeypatch)
    assert sum(map(len, batches)) == 9688
    for rows in batches:
        _assert_batch_is_the_scalar(rows)


@pytest.mark.parametrize("n", range(2, 41))
def test_batch_equals_scalar_on_uniform_rows(n):
    _assert_batch_is_the_scalar([(tau,) * n for tau in range(1, 61)])


@pytest.mark.parametrize("n", range(2, 41))
def test_batch_equals_scalar_on_random_rows(n):
    rng = np.random.default_rng([2026, n])
    _assert_batch_is_the_scalar(np.sort(rng.integers(1, 400, size=(40, n)), axis=1))


def test_batch_sorts_each_row_and_gives_zero_at_width_one():
    assert solve_equalized_values([(4, 1, 2), (2, 1, 4)]).tolist() == [
        solve_equalized_value((1, 2, 4))] * 2
    assert solve_equalized_values([(1,), (7,), (300,)]).tolist() == [0.0, 0.0, 0.0]
    assert solve_equalized_values(np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("rows", [[], [1, 2], np.zeros((2, 0)), [(0, 2)], [(math.nan, 2)]],
                         ids=["empty", "one-dimensional", "width-0", "zero", "nan"])
def test_batch_rejects_what_is_not_positive_exponent_rows(rows):
    with pytest.raises(InvalidSpec):
        solve_equalized_values(rows)


def test_equalized_value_against_polynomial_oracle():
    assert solve_equalized_value((3, 2, 2)) == pytest.approx(cubic_oracle_w322(), abs=1e-11)
    assert solve_equalized_value((3, 2, 2)) == pytest.approx(W_322, abs=1e-11)
    assert solve_equalized_value((2, 1)) == pytest.approx(GOLDEN_W, abs=1e-11)
    assert solve_equalized_value((1,)) == 0.0


# --- complete graphs ----------------------------------------------------------

def test_complete_symmetric_instance():
    result = synthesize_complete([2, 2, 2])
    assert result.w == pytest.approx(4 / 9, abs=1e-10)
    assert result.mu == pytest.approx(5 / 9, abs=1e-10)
    np.testing.assert_allclose(result.pi, 1 / 3, atol=1e-10)
    np.testing.assert_allclose(result.P, 1 / 3, atol=1e-10)
    assert result.optimality == "heuristic"


def test_complete_two_nodes_mixed_durations():
    result = synthesize_complete([1, 2])
    assert result.w == pytest.approx(GOLDEN_W, abs=1e-10)
    assert result.mu == pytest.approx(1 - GOLDEN_W, abs=1e-10)
    np.testing.assert_allclose(result.pi, [1 - GOLDEN_W, GOLDEN_W], atol=1e-9)
    # both nodes' individual capture terms equalize at mu
    terms = [1 - (1 - result.pi[i]) ** t for i, t in enumerate((1, 2))]
    np.testing.assert_allclose(terms, result.mu, atol=1e-9)


@pytest.mark.parametrize("n,tau", [(2, 3), (3, 2), (4, 5), (6, 4)])
def test_complete_uniform_duration_closed_form(n, tau):
    result = synthesize_complete([tau] * n)
    assert result.mu == pytest.approx(1 - (1 - 1 / n) ** tau, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("synth", [synthesize_complete, synthesize_star])
def test_huge_equal_durations_give_a_finite_uniform_strategy(synth):
    # w**(1/tau) rounds to 1 here, so 1 - w**(1/tau) would be 0 in every entry
    result = synth((10 ** 20,) * 3)
    assert np.isfinite(result.P).all() and np.isfinite(result.pi).all()
    np.testing.assert_allclose(result.P.sum(axis=1), 1.0, atol=1e-12)
    if synth is synthesize_complete:
        np.testing.assert_allclose(result.pi, 1 / 3, atol=1e-12)
    else:  # the centre holds half the mass and the leaves share the rest
        np.testing.assert_allclose(result.pi, [0.5, 0.25, 0.25], atol=1e-12)


def test_complete_rejects_single_node():
    with pytest.raises(InvalidSpec):
        synthesize_complete([3])


def test_complete_equalization_and_recursion_agreement():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        tau = [int(t) for t in rng.integers(1, 9, size=n)]
        result = synthesize_complete(tau)
        terms = np.array([1 - (1 - result.pi[i]) ** tau[i] for i in range(n)])
        np.testing.assert_allclose(terms, terms[0], atol=1e-8)
        assert capture_probability(result.P, tau).mu == pytest.approx(result.mu, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=6), st.integers(0, 5))
def test_complete_monotone_in_any_duration(tau, which):
    which %= len(tau)
    bumped = list(tau)
    bumped[which] += 1
    assert synthesize_complete(bumped).mu >= synthesize_complete(tau).mu - 1e-12


def test_complete_bound_dominance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        tau = [int(t) for t in rng.integers(1, 9, size=n)]
        result = synthesize_complete(tau)
        bounds = capture_upper_bound(result.pi, tau, mu=result.mu)
        assert result.mu <= bounds.stationary_bound + 1e-9
        assert result.mu <= bounds.generic_bound + 1e-9
        assert 0.0 <= result.subopt_lb <= 1.0


# --- bipartite graphs -----------------------------------------------------------

def test_bipartite_reference_instance():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [6, 4, 4], [4, 2])
    assert result.w_p == pytest.approx(W_322, abs=1e-10)
    assert result.w_q == pytest.approx(GOLDEN_W, abs=1e-10)
    assert result.mu == pytest.approx(1 - W_322, abs=1e-10)
    assert capture_probability(result.P, [6, 4, 4, 4, 2]).mu == pytest.approx(result.mu, abs=1e-9)


def test_bipartite_uniform_even_durations():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [4, 4, 4], [4, 4])
    assert result.w_p == pytest.approx(4 / 9, abs=1e-10)
    assert result.w_q == pytest.approx(1 / 4, abs=1e-10)
    assert result.mu == pytest.approx(5 / 9, abs=1e-10)


def test_bipartite_duration_two_entry():
    g = build_bipartite(2, 2)
    result = synthesize_bipartite(g, [4, 2], [4, 2])
    assert result.w_p == pytest.approx(GOLDEN_W, abs=1e-10)


def test_bipartite_rejects_duration_below_two():
    g = build_bipartite(2, 2)
    with pytest.raises(InfeasibleTau):
        synthesize_bipartite(g, [4, 1], [4, 2])


def test_bipartite_stationary_structure():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [6, 4, 4], [4, 2])
    # P side carries half the mass, split as the entering probabilities
    assert result.pi[:3].sum() == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(result.pi, stationary_distribution(result.P), atol=1e-9)


def test_bipartite_recursion_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_p = int(rng.integers(1, 5))
        n_q = int(rng.integers(1, 5))
        tau_p = [int(t) for t in rng.integers(2, 10, size=n_p)]
        tau_q = [int(t) for t in rng.integers(2, 10, size=n_q)]
        g = build_bipartite(n_p, n_q)
        result = synthesize_bipartite(g, tau_p, tau_q)
        mu = capture_probability(result.P, tau_p + tau_q).mu
        assert mu == pytest.approx(result.mu, abs=1e-9)


def test_bipartite_on_star_graph_matches_star_solver():
    for tau in [(2, 2), (2, 2, 3, 4), (5, 2, 2, 2), (3, 7, 4, 9, 11, 2)]:
        g = build_star(len(tau))
        results = [synthesize_star(tau), synthesize(g, tau),
                   synthesize_bipartite(g, tau[:1], tau[1:])]
        fields = [(r.P.tobytes(), r.mu, r.w, r.subopt_lb, r.optimality, r.w_p, r.w_q)
                  for r in results]
        assert fields[0] == fields[1] == fields[2], tau
        assert fields[0][3:] == (1.0, "optimal", None, None), tau


def test_bipartite_dimension_check():
    g = build_bipartite(3, 2)
    with pytest.raises(DimensionMismatch):
        synthesize_bipartite(g, [4, 4], [4, 4])
    # a short side is a dimension error even when the other side is infeasible
    with pytest.raises(DimensionMismatch):
        synthesize_bipartite(build_bipartite(1, 2), [1], [2])


# --- family dispatch -------------------------------------------------------------

@pytest.mark.parametrize("graph, tau, direct", [
    (build_complete(3), (3, 2, 2), lambda: synthesize_complete((3, 2, 2))),
    (build_star(4), (2, 2, 3, 4), lambda: synthesize_star((2, 2, 3, 4))),
    (build_bipartite(3, 2), (6, 4, 4, 4, 2),
     lambda: synthesize_bipartite(build_bipartite(3, 2), (6, 4, 4), (4, 2))),
], ids=["complete", "star", "bipartite"])
def test_synthesize_dispatches_on_family(graph, tau, direct):
    result, expected = synthesize(graph, tau), direct()
    assert result.P.tobytes() == expected.P.tobytes()
    assert (result.mu, result.w, result.optimality) == (expected.mu, expected.w,
                                                        expected.optimality)


def test_synthesize_rejects_general_and_wrong_length():
    with pytest.raises(InvalidSpec):
        synthesize(build_general(3, [(1, 2), (2, 3), (3, 1)]), (3, 3, 3))
    with pytest.raises(DimensionMismatch):
        synthesize(build_complete(3), (2, 2))


# --- star graphs ----------------------------------------------------------------

def test_star_symmetric_leaves():
    result = synthesize_star([2, 2, 2])
    np.testing.assert_allclose(result.P[0], [0.0, 0.5, 0.5], atol=1e-10)
    assert result.mu == pytest.approx(0.5, abs=1e-10)
    assert result.subopt_lb == 1.0


def test_star_mixed_leaves():
    result = synthesize_star([2, 4, 2])
    np.testing.assert_allclose(result.P[0], [0.0, GOLDEN_W, 1 - GOLDEN_W], atol=1e-9)
    assert result.mu == pytest.approx(1 - GOLDEN_W, abs=1e-9)
    np.testing.assert_allclose(result.pi, [0.5, GOLDEN_W / 2, (1 - GOLDEN_W) / 2], atol=1e-9)


def test_star_leaves_return_to_center():
    result = synthesize_star([3, 2, 5, 4])
    np.testing.assert_array_equal(result.P[1:, 0], 1.0)
    np.testing.assert_array_equal(result.P[1:, 1:], 0.0)
    assert capture_probability(result.P, [3, 2, 5, 4]).mu == pytest.approx(result.mu, abs=1e-9)


@pytest.mark.parametrize("center", [2, 3, 7])
def test_star_center_duration_is_irrelevant(center):
    base = synthesize_star([2, 3, 4, 2])
    other = synthesize_star([center, 3, 4, 2])
    assert other.mu == base.mu
    np.testing.assert_array_equal(other.P, base.P)


def test_star_rejects_short_durations():
    with pytest.raises(InfeasibleTau):
        synthesize_star([1, 2, 2])
    with pytest.raises(InfeasibleTau):
        synthesize_star([2, 2, 1])
    with pytest.raises(InvalidSpec):
        synthesize_star([2])


# --- uniform baseline --------------------------------------------------------------

def test_baseline_even_duration():
    result = uniform_bipartite_baseline(2, 2, 4)
    assert result.mu == pytest.approx(0.75, abs=1e-12)
    assert result.guarantee == pytest.approx(0.5 * (1 - 1 / math.e), abs=1e-12)


def test_baseline_minimum_attained_by_larger_side():
    result = uniform_bipartite_baseline(2, 3, 2)
    assert result.mu == pytest.approx(1 / 3, abs=1e-12)
    assert result.guarantee == pytest.approx(0.5 * (1 - 1 / math.e), abs=1e-12)
    assert result.ratio >= result.guarantee


def test_baseline_odd_duration_guarantee():
    result = uniform_bipartite_baseline(2, 3, 3)
    assert result.mu == pytest.approx(1 / 3, abs=1e-12)
    assert result.guarantee == pytest.approx(1 / 3, abs=1e-12)
    assert result.ratio >= result.guarantee - 1e-12


def test_baseline_matches_recursion():
    for n_p, n_q, tau in [(2, 2, 4), (2, 3, 2), (3, 4, 5), (4, 2, 6)]:
        result = uniform_bipartite_baseline(n_p, n_q, tau)
        n = n_p + n_q
        mu = capture_probability(result.P, [tau] * n).mu
        assert mu == pytest.approx(result.mu, abs=1e-9)
        np.testing.assert_allclose(result.pi, stationary_distribution(result.P), atol=1e-9)


def test_baseline_range_checks():
    with pytest.raises(TrivialGame):
        uniform_bipartite_baseline(2, 2, 1)
    with pytest.raises(TrivialGame):
        uniform_bipartite_baseline(2, 2, 5)
    with pytest.raises(InvalidSpec):
        uniform_bipartite_baseline(1, 3, 2)


# --- upper bounds -------------------------------------------------------------------

def test_bound_uniform_case():
    report = capture_upper_bound([0.25] * 4, [3] * 4)
    assert report.stationary_bound == pytest.approx(0.75, abs=1e-12)
    assert report.generic_bound == pytest.approx(0.75, abs=1e-12)


def test_bound_caps_at_one():
    report = capture_upper_bound([0.5, 0.5], [3, 3])
    assert report.generic_bound == 1.0


def test_bound_certifies_two_node_instance():
    result = synthesize_complete([1, 2])
    report = capture_upper_bound(result.pi, [1, 2], mu=result.mu)
    assert report.stationary_bound == pytest.approx(0.618, abs=1e-3)
    # achieved value meets its own stationary bound: optimal in this instance
    assert result.mu == pytest.approx(report.stationary_bound, abs=1e-9)
    assert report.ratio is not None and report.ratio <= 1 + 1e-12


def test_bound_dimension_check():
    with pytest.raises(DimensionMismatch):
        capture_upper_bound([0.5, 0.5], [1, 2, 3])


def test_generic_bound_values():
    assert generic_capture_bound([2, 2, 2]) == pytest.approx(2 / 3)
    assert generic_capture_bound([9, 1]) == 1.0
